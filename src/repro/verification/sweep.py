"""Multi-controller verification sweeps over a process pool.

The paper's verifiability comparison is inherently a *sweep*: many
(controller, system, horizon, target-error) combinations, each an
independent verification job.  :class:`VerificationSweep` runs such a job
matrix through a ``multiprocessing`` pool -- every job executes the batched
verification engine in its own worker process -- and aggregates the
per-job :class:`~repro.verification.verifier.VerificationReport` summaries
into one :class:`SweepReport`.

Jobs are transported as plain data (system name, MLP architecture dict and
weight arrays, analysis parameters), so they pickle cheaply and the worker
rebuilds the network locally.  Two budgets bound each job:

* ``work_budget`` -- the in-engine resource proxy (Bernstein coefficients
  evaluated during reachability); exceeding it aborts the reachability
  analysis with ``status='resource-exhausted'``, mirroring the paper's
  report of ``kappa_D`` dying after 12 reachable-set computations;
* ``time_budget_seconds`` -- a wall-clock budget checked at phase
  boundaries (after partitioning and after reachability); when exceeded,
  the remaining analyses are skipped and the job is marked
  ``resource-exhausted`` rather than running unboundedly.

The CLI front end is ``python -m repro verify-sweep``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.nn.network import MLP
from repro.systems import make_system
from repro.utils.parallel import default_worker_count
from repro.verification.verifier import VerificationReport, verify_controller


@dataclass
class SweepJob:
    """One verification job: a controller, a system and analysis parameters."""

    name: str
    system: str
    architecture: Dict
    weights: Dict[str, np.ndarray]
    target_error: float = 0.5
    degree: int = 3
    max_partitions: int = 2048
    reach_steps: int = 15
    reach_box_scale: float = 0.1
    work_budget: Optional[int] = None
    invariant_grid: Optional[int] = None
    time_budget_seconds: Optional[float] = None

    @classmethod
    def from_network(cls, name: str, system: str, network: MLP, **parameters) -> "SweepJob":
        """Build a job from a live network (weights are copied out)."""

        return cls(
            name=name,
            system=system,
            architecture=network.architecture(),
            weights={key: value.copy() for key, value in network.state_dict().items()},
            **parameters,
        )

    @classmethod
    def from_saved(
        cls, system: str, directory: Union[str, Path], controller: str = "kappa_star", **parameters
    ) -> "SweepJob":
        """Build a job from a controller saved by ``repro train``."""

        from repro.utils.persistence import load_student_controller

        network = load_student_controller(directory, name=controller).network
        return cls.from_network(f"{controller}@{system}", system, network, **parameters)

    def build_network(self) -> MLP:
        network = MLP.from_architecture(self.architecture)
        network.load_state_dict(self.weights)
        return network

    def describe(self) -> str:
        """The job's originating spec, for error messages and telemetry.

        Worker tracebacks alone do not say *which* job died; every sweep
        error embeds this one-line identity (system, controller name and
        the analysis budgets) so a failed cell in a thousand-cell fleet is
        attributable without re-running anything.
        """

        budgets = (
            f"target_error={self.target_error}, degree={self.degree}, "
            f"max_partitions={self.max_partitions}, reach_steps={self.reach_steps}, "
            f"reach_box_scale={self.reach_box_scale}, work_budget={self.work_budget}, "
            f"invariant_grid={self.invariant_grid}, time_budget_seconds={self.time_budget_seconds}"
        )
        return f"job {self.name}: system={self.system}, {budgets}"

    def cache_config(self) -> Dict:
        """The job's resolved identity for run-store caching.

        Keyed on the controller weight digest (same invalidation contract
        as the :func:`repro.nn.lipschitz.network_lipschitz` memo: any
        weight update changes it) crossed with every analysis budget; the
        system resolves through the scenario registry so variant spellings
        (``vanderpol?mu=1.50`` vs ``?mu=1.5``) share one cache entry.
        """

        from repro.experiments.digest import weights_digest
        from repro.scenarios import resolve_scenario

        spec, overrides = resolve_scenario(self.system)
        params = dict(spec.default_params)
        params.update(overrides)
        return {
            "system": spec.name,
            "params": params,
            "weights": weights_digest(self.weights, extra=self.architecture),
            # Verification has one engine; the fixed entry keeps the keys of
            # results stored while an "engine" option existed resolvable.
            "engine": "batched",
            "budgets": {
                "target_error": self.target_error,
                "degree": self.degree,
                "max_partitions": self.max_partitions,
                "reach_steps": self.reach_steps,
                "reach_box_scale": self.reach_box_scale,
                "work_budget": self.work_budget,
                "invariant_grid": self.invariant_grid,
                "time_budget_seconds": self.time_budget_seconds,
            },
        }


@dataclass
class SweepJobResult:
    """Outcome of one sweep job (summary only: reports stay in the worker)."""

    name: str
    system: str
    status: str  # "ok" or "error"
    summary: Dict = field(default_factory=dict)
    error: Optional[str] = None
    elapsed_seconds: float = 0.0
    #: True when the result was replayed from a run store instead of
    #: executed (``elapsed_seconds`` is then the original measurement).
    cached: bool = False

    @property
    def verified(self) -> bool:
        return self.status == "ok" and bool(self.summary.get("verified", False))


@dataclass
class SweepReport:
    """Aggregated outcome of a :class:`VerificationSweep` run."""

    results: List[SweepJobResult]
    elapsed_seconds: float
    processes: int
    #: Each job's run-store :class:`~repro.experiments.store.CellOutcome`
    #: (empty without a store).
    outcomes: List = field(default_factory=list)

    @property
    def num_verified(self) -> int:
        return sum(1 for result in self.results if result.verified)

    @property
    def num_failed(self) -> int:
        return sum(1 for result in self.results if result.status == "error")

    def as_records(self) -> List[Dict]:
        """Flat per-job dictionaries (for tables, JSON or CSV exports)."""

        records = []
        for result in self.results:
            record = {
                "job": result.name,
                "system": result.system,
                "status": result.status,
                "elapsed_seconds": result.elapsed_seconds,
            }
            if result.error:
                record["error"] = result.error
            record.update(result.summary)
            records.append(record)
        return records

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write one row per job (union of all summary keys) to ``path``."""

        import csv

        records = self.as_records()
        keys: List[str] = []
        for record in records:
            for key in record:
                if key not in keys:
                    keys.append(key)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=keys, restval="")
            writer.writeheader()
            writer.writerows(records)
        return path

    def table(self) -> str:
        """Aligned text table of the sweep (one line per job + a footer)."""

        header = f"{'job':28s} {'system':10s} {'status':10s} {'verdict':12s} {'parts':>6s} {'L':>8s} {'seconds':>8s}"
        lines = [header, "-" * len(header)]
        for result in self.results:
            summary = result.summary
            verdict = summary.get("reach_status", "-") if result.status == "ok" else result.status
            partitions = summary.get("partitions", "-")
            lipschitz = summary.get("lipschitz")
            lines.append(
                f"{result.name:28s} {result.system:10s} {result.status:10s} {str(verdict):12s} "
                f"{str(partitions):>6s} "
                f"{(f'{lipschitz:.2f}' if lipschitz is not None else '-'):>8s} "
                f"{result.elapsed_seconds:8.2f}"
            )
        lines.append(
            f"{len(self.results)} jobs | {self.num_verified} verified | {self.num_failed} errors | "
            f"{self.processes} process(es) | {self.elapsed_seconds:.2f}s wall clock"
        )
        return "\n".join(lines)


def run_sweep_job(job: SweepJob) -> SweepJobResult:
    """Execute one job (also the pool worker body; must stay picklable).

    Delegates to :func:`~repro.verification.verifier.verify_controller`,
    which enforces the job's wall-clock budget at every phase boundary; an
    invariant-set analysis skipped by the budget is reported as
    ``invariant_status='resource-exhausted'``.
    """

    start = time.perf_counter()
    try:
        system = make_system(job.system)
        network = job.build_network()
        report: VerificationReport = verify_controller(
            system,
            network,
            name=job.name,
            target_error=job.target_error,
            degree=job.degree,
            max_partitions=job.max_partitions,
            reach_initial_box=system.initial_set.scale(job.reach_box_scale),
            reach_steps=job.reach_steps,
            reach_work_budget=job.work_budget,
            invariant_grid=job.invariant_grid,
            time_budget_seconds=job.time_budget_seconds,
        )
        summary = report.summary()
        if job.invariant_grid and report.invariant is None:
            summary["invariant_status"] = "resource-exhausted"
        return SweepJobResult(
            name=job.name,
            system=job.system,
            status="ok",
            summary=summary,
            elapsed_seconds=time.perf_counter() - start,
        )
    except Exception as error:  # noqa: BLE001 - a failed job must not kill the sweep
        return SweepJobResult(
            name=job.name,
            system=job.system,
            status="error",
            error=f"{type(error).__name__}: {error} [{job.describe()}]",
            elapsed_seconds=time.perf_counter() - start,
        )


class VerificationSweep:
    """Run many verification jobs, optionally fanned out across processes.

    ``processes=None`` derives the pool size from the machine via
    :func:`repro.utils.parallel.default_worker_count` -- one worker per
    available CPU, capped at the job count, so a narrow (1-CPU) container
    never forks a pool it cannot feed; ``processes<=1`` runs inline (no
    pool), which is also the deterministic mode the equivalence tests use.
    Results always come back in job order.

    ``store`` enables digest-keyed result caching through
    :meth:`~repro.experiments.store.RunStore.run_cells`: each job's
    identity is its :meth:`SweepJob.cache_config` (controller weight digest
    x analysis budgets), jobs whose digest is already present are replayed
    from disk, and only the misses ever reach the pool, as one batch.
    Errors and wall-clock-truncated verdicts are never cached (they rerun
    on every sweep; see :func:`_cacheable`), and ``force=True`` executes
    every job but still records the fresh results.  The report's
    ``outcomes`` say what the store did with each job.

    ``claims`` (a :class:`~repro.experiments.store.ClaimBoard`, sharded
    matrix runs) coordinates concurrent sweeps over one store: each pending
    job is claimed before dispatch and held (heartbeaten) while it runs;
    jobs another worker already claims come back with
    ``status='skipped'`` instead of executing twice.  Skipped jobs are not
    failures -- the claimant publishes (or its claim goes stale and a later
    sweep takes over).

    ``on_start``/``on_result`` are the telemetry seams: ``on_start(job)``
    fires for every job handed to execution (after cache probes and claim
    acquisition), and ``on_result(job, result)`` fires per executed job as
    its result streams back from the pool -- live, not after the barrier --
    so a watch client sees jobs complete one by one.  Neither fires for
    cached or skipped jobs; the caller observes those synchronously.
    """

    def __init__(
        self,
        jobs: Sequence[SweepJob],
        processes: Optional[int] = None,
        store=None,
        force: bool = False,
        claims=None,
        on_start=None,
        on_result=None,
    ):
        self.jobs = list(jobs)
        if processes is None:
            processes = default_worker_count(jobs=len(self.jobs))
        self.processes = max(1, int(processes))
        self.store = store
        if claims is not None and store is None:
            raise ValueError("claim-coordinated sweeps need a run store")
        self.claims = claims
        self.force = bool(force)
        self.on_start = on_start
        self.on_result = on_result

    def run(self) -> SweepReport:
        start = time.perf_counter()
        outcomes: List = []
        if self.store is None:
            results = self._execute(self.jobs)
        else:
            fresh: Dict[int, SweepJobResult] = {}

            def compute(indices: List[int]) -> List[Dict]:
                executed = self._execute([self.jobs[index] for index in indices])
                fresh.update(zip(indices, executed))
                return [_payload(result) for result in executed]

            outcomes = self.store.run_cells(
                [self.store.key("verify", job.cache_config()) for job in self.jobs],
                compute,
                claims=self.claims,
                force=self.force,
                cacheable=lambda index, payload: _cacheable(self.jobs[index], payload),
            )
            results = [
                fresh[index] if outcome.status == "computed" else replay_result(job, outcome)
                for index, (job, outcome) in enumerate(zip(self.jobs, outcomes))
            ]
        return SweepReport(
            results=results,
            elapsed_seconds=time.perf_counter() - start,
            processes=self.processes,
            outcomes=outcomes,
        )

    def _execute(self, jobs: List[SweepJob]) -> List[SweepJobResult]:
        """Run ``jobs`` inline or across the pool, in job order."""

        if self.on_start is not None:
            for job in jobs:
                self.on_start(job)
        results: List[SweepJobResult] = []
        with contextlib.ExitStack() as stack:
            if self.processes <= 1 or len(jobs) <= 1:
                stream = map(run_sweep_job, jobs)
            else:
                context = multiprocessing.get_context(
                    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
                )
                pool = stack.enter_context(context.Pool(processes=min(self.processes, len(jobs))))
                # imap keeps job order but streams completions, so on_result
                # fires as each worker reports.
                stream = pool.imap(run_sweep_job, jobs)
            for job, result in zip(jobs, stream):
                if self.on_result is not None:
                    self.on_result(job, result)
                results.append(result)
        return results


def _payload(result: SweepJobResult) -> Dict:
    """The run-store record of one executed job."""

    payload = {
        "name": result.name,
        "system": result.system,
        "status": result.status,
        "summary": result.summary,
        "elapsed_seconds": result.elapsed_seconds,
    }
    if result.error:
        payload["error"] = result.error
    return payload


def _cacheable(job: SweepJob, payload: Dict) -> bool:
    """Only deterministic outcomes may be recorded.

    Errors always rerun.  A wall-clock-truncated analysis
    (``time_budget_seconds`` bound and a ``resource-exhausted`` verdict)
    depends on machine load, so replaying it would make a transient
    slowdown permanent; work-budget exhaustion is a deterministic count and
    caches fine.
    """

    if payload["status"] != "ok":
        return False
    if job.time_budget_seconds:
        summary = payload["summary"]
        if "resource-exhausted" in (summary.get("reach_status"), summary.get("invariant_status")):
            return False
    return True


def replay_result(job: SweepJob, outcome) -> SweepJobResult:
    """The :class:`SweepJobResult` of a job the run store did not execute.

    A ``cached`` outcome replays under the *requesting* job's labels: the
    digest canonicalises variant spellings, so the entry may have been
    produced by a job named after an equivalent spec (``vanderpol?mu=1.50``
    vs ``?mu=1.5``).  Any other outcome keeps its status (``skipped``).
    """

    if outcome.status != "cached":
        return SweepJobResult(name=job.name, system=job.system, status=outcome.status)
    payload = outcome.payload
    summary = dict(payload.get("summary", {}))
    if "controller" in summary:
        summary["controller"] = job.name
    return SweepJobResult(
        name=job.name,
        system=job.system,
        status=payload["status"],
        summary=summary,
        error=payload.get("error"),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        cached=True,
    )
