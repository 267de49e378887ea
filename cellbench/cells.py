"""Workloads of the cell benchmark: pinned inputs, timed operations and checks.

Every budget and width is written here; nothing is inherited from scenario
hints or from the CPU count.  One *operation* is a ``train -> evaluate ->
verify`` cell (``cell-vanderpol``) or one pass over the verification jobs
(``verify-sweep``).  A run repeats operations on the same seed, so every
repetition must reproduce the first one's weights, quality figures and
verification verdicts exactly; the traced run's first operation is untraced,
which makes the traced-equals-untraced check the same comparison.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import (
    CocktailConfig,
    CocktailPipeline,
    DistillationConfig,
    EvaluationConfig,
    MixingConfig,
    make_default_experts,
    make_system,
    set_global_seed,
)
from repro.metrics import evaluate_controllers, robustness as robustness_layer
from repro.nn import lipschitz
from repro.verification.partition import partition_network
from repro.verification.verifier import verify_controller

import layers
from spans import Instrumentation, Tracer

#: Lockstep widths of every training run (never CPU-derived).
NUM_ENVS = 16
TRAIN_BATCH_SIZE = 128
#: Table I evaluation of every controller, as ``repro train`` runs it.
TABLE_SAMPLES = 150
#: kappa* under FGSM attack and under noise, as ``repro evaluate`` runs it.
ROBUSTNESS_SAMPLES = 500
PERTURBATION_FRACTION = 0.1
#: Every verification uses an error target below what any student meets at
#: its partition cap, so the partition is the full uniform grid of
#: ``max_partitions`` boxes whatever the student's Lipschitz constant: the
#: verification work then depends on the plant and the budget, not on the
#: seed.  At the scenarios' own targets the count jumps by powers of two
#: between seeds (vanderpol: 512 to 2048 boxes, 0.3 to 1.0 s).
TARGET_ERROR = 0.1
REACH_BOX_SCALE = 0.1
#: Operations per run, at least, so that every median has three samples.
MIN_OPERATIONS = 3
#: A traced run alternates untraced and traced operations, at least this
#: many of each, so the tracing overhead compares like with like.
MIN_TRACED_PAIRS = 2
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class TrainBudget:
    mixing_epochs: int
    mixing_steps: int
    distill_epochs: int
    dataset_size: int
    trajectory_fraction: float


@dataclass(frozen=True)
class VerifyBudget:
    degree: int
    max_partitions: int
    reach_steps: int
    invariant_grid: Optional[int]


#: Paper system 1's default training budget.
VANDERPOL_TRAIN = TrainBudget(10, 1024, 100, 2500, 0.6)
#: The reduced budget the verify-sweep students are trained with at set-up.
SWEEP_TRAIN = TrainBudget(2, 256, 25, 500, 0.6)
#: Per-scenario verification budgets; the invariant set runs on 2-D plants.
VERIFY = {
    "vanderpol": VerifyBudget(3, 4096, 15, 20),
    "3d": VerifyBudget(3, 4096, 15, None),
    "cartpole": VerifyBudget(2, 2048, 10, None),
    "pendulum": VerifyBudget(3, 2048, 15, 20),
    "acc": VerifyBudget(3, 2048, 15, None),
}
SWEEP_SCENARIOS = ("vanderpol", "3d", "cartpole", "pendulum", "acc")


@dataclass(frozen=True)
class Workload:
    scenarios: Tuple[str, ...]
    #: Budget of the timed training; ``None`` trains at set-up instead.
    train: Optional[TrainBudget]


#: A ``cell-cartpole`` workload is left out: at cartpole's default budget
#: kappa*'s quality swings between seeds (safe rate 0.15 to 0.91 over seeds
#: 11-15), and its evaluation time follows how long trajectories survive, so
#: its figures spread past any bound the benchmark may set (see README.md).
WORKLOADS = {
    "cell-vanderpol": Workload(("vanderpol",), VANDERPOL_TRAIN),
    "verify-sweep": Workload(SWEEP_SCENARIOS, None),
}

#: End-to-end metric units, in report order (``BENCHMARK.json`` end_to_end).
END_TO_END = {
    "setup_s": "s",
    "cell_s": "s",
    "train_s": "s",
    "evaluate_s": "s",
    "verify_s": "s",
    "sweep_s": "s",
    "kstar_safe_rate": "ratio",
    "kstar_attack_safe_rate": "ratio",
    "kstar_noise_safe_rate": "ratio",
    "kstar_energy": "a.u.",
    "verified_frac": "ratio",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ledger:
    """Counts attempted and failed operations (cell phases and sweep jobs)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, action: Callable[[], object]):
        """Run ``action``; an exception or a failed check counts as a failure."""

        self.attempted += 1
        try:
            return action()
        except Exception:
            self.failed += 1
            print(f"FAILED {label}:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def skip(self, label: str, count: int) -> None:
        """Phases that cannot run because an earlier phase failed."""

        self.attempted += count
        self.failed += count
        print(f"FAILED {label}: skipped after an earlier failure", file=sys.stderr)


# ---------------------------------------------------------------------------
# The program's entry points, called as the CLI verbs call them
# ---------------------------------------------------------------------------


def cocktail_config(budget: TrainBudget, seed: int) -> CocktailConfig:
    """The config ``jobs.runner.execute_train`` builds, with every value pinned."""

    return CocktailConfig(
        mixing=MixingConfig(
            epochs=budget.mixing_epochs,
            steps_per_epoch=budget.mixing_steps,
            num_envs=NUM_ENVS,
            seed=seed,
        ),
        distillation=DistillationConfig(
            epochs=budget.distill_epochs,
            dataset_size=budget.dataset_size,
            hidden_sizes=(32, 32),
            l2_weight=5e-3,
            trajectory_fraction=budget.trajectory_fraction,
            train_batch_size=TRAIN_BATCH_SIZE,
            seed=seed,
        ),
        evaluation=EvaluationConfig(samples=TABLE_SAMPLES),
        seed=seed,
    )


def train(scenario: str, budget: TrainBudget, seed: int):
    """``repro train``: Algorithm 1 with the direct baseline, then Table I."""

    config = cocktail_config(budget, seed)
    set_global_seed(seed)
    system = make_system(scenario)
    result = CocktailPipeline(system, make_default_experts(system), config).run()
    table = evaluate_controllers(system, result.controllers(), seed=seed, config=config.evaluation)
    return system, result, table


def robustness(system, controller, perturbation: str, seed: int):
    """``repro evaluate`` on one perturbation regime."""

    # Looked up at call time, so the traced run sees the wrapped function.
    return robustness_layer.evaluate_robustness(
        system,
        controller,
        perturbation=perturbation,
        fraction=PERTURBATION_FRACTION,
        samples=ROBUSTNESS_SAMPLES,
        rng=seed,
    )


def verify(system, network, scenario: str, name: str):
    """``repro verify`` with the reach box, at the benchmark's budget."""

    budget = VERIFY[scenario]
    return verify_controller(
        system,
        network,
        name=name,
        target_error=TARGET_ERROR,
        degree=budget.degree,
        max_partitions=budget.max_partitions,
        reach_initial_box=system.initial_set.scale(REACH_BOX_SCALE),
        reach_steps=budget.reach_steps,
        invariant_grid=budget.invariant_grid,
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_rate(label: str, outcome, samples: int) -> None:
    check(0.0 <= outcome.safe_rate <= 1.0, f"{label}: safe rate {outcome.safe_rate} outside [0, 1]")
    check(outcome.samples == samples, f"{label}: {outcome.samples} samples, expected {samples}")


def check_table(table) -> None:
    for name, metrics in table.items():
        check_rate(f"Table I {name}", metrics.clean, TABLE_SAMPLES)


def check_verdict(report) -> None:
    status = report.reachability.status
    check(status in ("verified", "unsafe"), f"{report.controller_name}: reach status {status!r}")


def verdict(report) -> dict:
    """The timing-free part of a verification report."""

    summary = report.summary()
    return {key: value for key, value in summary.items() if not key.endswith("_seconds")}


def check_soundness(system, network, scenario: str, seed: int, points: int = 64) -> None:
    """The network's outputs lie in the partition's enclosures around sampled points.

    Partitions ``network`` as the verifier does, draws ``points`` states from
    the seed inside the safe region, and evaluates the network at each state
    and at four more states of a box of 2% of the region's width around it.
    """

    budget = VERIFY[scenario]
    region = system.safe_region
    approximation = partition_network(
        network,
        region,
        target_error=TARGET_ERROR,
        degree=budget.degree,
        max_partitions=budget.max_partitions,
    )
    rng = np.random.default_rng([seed, 1])
    centres = rng.uniform(region.low, region.high, size=(points, region.dimension))
    half = 0.01 * (region.high - region.low)
    lows = np.maximum(centres - half, region.low)
    highs = np.minimum(centres + half, region.high)
    lower, upper = approximation.control_bounds_batch(lows, highs)
    samples = [centres] + [rng.uniform(lows, highs) for _ in range(4)]
    for states in samples:
        outputs = network.predict(states)
        inside = np.all((outputs >= lower - 1e-9) & (outputs <= upper + 1e-9), axis=1)
        check(bool(inside.all()), f"{scenario}: {int((~inside).sum())} outputs outside their enclosure")


def check_repeat(reference: Optional[dict], figures: dict, label: str) -> dict:
    """Every operation of a run must reproduce the first one exactly."""

    if reference is None:
        return figures
    check(figures == reference, f"{label} differs from the first operation: {figures} != {reference}")
    return reference


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def cold_import_seconds(source: Path) -> float:
    """Wall time of a fresh interpreter importing what the benchmark calls."""

    start = time.perf_counter()
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro, repro.metrics, repro.verification.verifier",
        ],
        check=True,
        env=dict(os.environ, PYTHONPATH=str(source)),
    )
    return time.perf_counter() - start


@dataclass
class Student:
    scenario: str
    name: str
    system: object
    controller: object


@dataclass
class Prepared:
    """What the timed loop needs; the sweep's students and their quality."""

    students: List[Student]
    train_seconds: float = float("nan")
    evaluate_seconds: float = float("nan")
    quality: Optional[Dict[str, float]] = None


def prepare(workload: Workload, seed: int, ledger: Ledger) -> Prepared:
    """Build the inputs; for ``verify-sweep`` train and evaluate the students."""

    if workload.train is not None:
        for scenario in workload.scenarios:
            make_default_experts(make_system(scenario))
        return Prepared(students=[])

    students: List[Student] = []
    outcomes = []
    train_seconds = evaluate_seconds = 0.0
    for scenario in workload.scenarios:
        start = time.perf_counter()
        trained = ledger.attempt(f"set-up train {scenario}", lambda: train(scenario, SWEEP_TRAIN, seed))
        train_seconds += time.perf_counter() - start
        if trained is None:
            continue
        system, result, _table = trained
        students.append(Student(scenario, "kappa_star", system, result.student))
        students.append(Student(scenario, "kappaD", system, result.direct_student))
        start = time.perf_counter()
        evaluated = ledger.attempt(
            f"set-up evaluate {scenario}",
            lambda: evaluate_student(system, result.student, seed),
        )
        evaluate_seconds += time.perf_counter() - start
        if evaluated is not None:
            outcomes.append(evaluated)
    return Prepared(students, train_seconds, evaluate_seconds, pooled_quality(outcomes))


def evaluate_student(system, controller, seed: int):
    outcomes = {regime: robustness(system, controller, regime, seed) for regime in ("none", "attack", "noise")}
    for regime, outcome in outcomes.items():
        check_rate(f"kappa* {regime}", outcome, ROBUSTNESS_SAMPLES)
    return outcomes


def pooled_quality(outcomes: List[dict]) -> Optional[Dict[str, float]]:
    """Mean safe rates over the students; energy weighted by safe trajectories.

    A student with no safe trajectory has infinite mean energy and weight 0.
    """

    if not outcomes:
        return None
    safe = [outcome["none"].safe_rate for outcome in outcomes]
    energy = sum(
        rate * outcome["none"].mean_energy for rate, outcome in zip(safe, outcomes) if rate > 0
    ) / sum(safe)
    return {
        "kstar_safe_rate": float(np.mean(safe)),
        "kstar_attack_safe_rate": float(np.mean([outcome["attack"].safe_rate for outcome in outcomes])),
        "kstar_noise_safe_rate": float(np.mean([outcome["noise"].safe_rate for outcome in outcomes])),
        "kstar_energy": float(energy),
    }


# ---------------------------------------------------------------------------
# Timed operations
# ---------------------------------------------------------------------------


@dataclass
class Operation:
    """What one operation measured."""

    seconds: Dict[str, float]
    horizon: List[float]
    quality: Optional[Dict[str, float]] = None


def horizon_share(report, steps: int) -> float:
    """Share of the reach horizon proven safe: 1 when verified, else the steps before the unsafe box."""

    reach = report.reachability
    return 1.0 if reach.status == "verified" else (reach.steps_completed - 1) / steps


class Runner:
    """Runs one workload's operations on one seed and keeps the reference outputs."""

    def __init__(self, workload: Workload, seed: int, prepared: Prepared, ledger: Ledger):
        self.workload = workload
        self.seed = seed
        self.prepared = prepared
        self.ledger = ledger
        self.reference: Dict[str, dict] = {}
        #: (system, network) of every kappa* the run verified, by scenario.
        self.verified_students: Dict[str, tuple] = {}

    def _same(self, key: str, figures: dict) -> None:
        self.reference[key] = check_repeat(self.reference.get(key), figures, key)

    def run(self, tracer: Tracer) -> Optional[Operation]:
        # Each operation starts as a fresh process would: with no Lipschitz
        # constants memoised for the identical weights of the previous one.
        lipschitz._LIPSCHITZ_CACHE.clear()
        if self.workload.train is None:
            return self._sweep(tracer)
        return self._cell(tracer)

    def check_soundness(self) -> None:
        """Spot-check the enclosures of every verified kappa*, outside the timed loop."""

        for scenario, (system, network) in self.verified_students.items():
            self.ledger.attempt(
                f"{scenario} soundness",
                lambda: check_soundness(system, network, scenario, self.seed),
            )

    def _cell(self, tracer: Tracer) -> Optional[Operation]:
        (scenario,) = self.workload.scenarios
        seed = self.seed
        ledger = self.ledger
        with tracer.span("cell"):

            def train_phase():
                with tracer.span("train"):
                    system, result, table = train(scenario, self.workload.train, seed)
                check_table(table)
                star = table["kappa_star"].clean
                self._same(
                    "kappa*",
                    {
                        "digest": lipschitz.network_weights_digest(result.student.network),
                        "safe_rate": star.safe_rate,
                        "energy": star.mean_energy,
                    },
                )
                return system, result.student, star

            trained = ledger.attempt(f"{scenario} train", train_phase)
            if trained is None:
                ledger.skip(f"{scenario} evaluate and verify", 2)
                return None
            system, student, star = trained

            def evaluate_phase():
                with tracer.span("evaluate"):
                    attack = robustness(system, student, "attack", seed)
                    noise = robustness(system, student, "noise", seed)
                check_rate("kappa* attack", attack, ROBUSTNESS_SAMPLES)
                check_rate("kappa* noise", noise, ROBUSTNESS_SAMPLES)
                figures = {
                    "attack": (attack.safe_rate, attack.mean_energy),
                    "noise": (noise.safe_rate, noise.mean_energy),
                }
                self._same("kappa* robustness", figures)
                return attack, noise

            def verify_phase():
                with tracer.span("verify"):
                    report = verify(system, student.network, scenario, "kappa_star")
                check_verdict(report)
                self._same("kappa* verification", verdict(report))
                self.verified_students[scenario] = (system, student.network)
                return report

            evaluated = ledger.attempt(f"{scenario} evaluate", evaluate_phase)
            report = ledger.attempt(f"{scenario} verify", verify_phase)
        if evaluated is None or report is None:
            return None
        attack, noise = evaluated
        verify_seconds = tracer.total("verify")
        return Operation(
            seconds={
                "cell_s": tracer.total("cell"),
                "train_s": tracer.total("train"),
                "evaluate_s": tracer.total("evaluate"),
                "verify_s": verify_seconds,
                "sweep_s": verify_seconds,
            },
            horizon=[horizon_share(report, VERIFY[scenario].reach_steps)],
            quality={
                "kstar_safe_rate": star.safe_rate,
                "kstar_attack_safe_rate": attack.safe_rate,
                "kstar_noise_safe_rate": noise.safe_rate,
                "kstar_energy": star.mean_energy,
            },
        )

    def _sweep(self, tracer: Tracer) -> Optional[Operation]:
        horizon: List[float] = []
        complete = True
        with tracer.span("sweep"):
            for student in self.prepared.students:
                label = f"{student.scenario} {student.name}"

                def job():
                    with tracer.span("verify"):
                        report = verify(student.system, student.controller.network, student.scenario, student.name)
                    check_verdict(report)
                    self._same(f"{label} verification", verdict(report))
                    return report

                report = self.ledger.attempt(f"{label} verify", job)
                if report is None:
                    complete = False
                    continue
                if student.name == "kappa_star":
                    self.verified_students[student.scenario] = (student.system, student.controller.network)
                horizon.append(horizon_share(report, VERIFY[student.scenario].reach_steps))
        if not complete or len(self.prepared.students) != 2 * len(self.workload.scenarios):
            return None
        jobs = [span.duration for span in tracer.spans if span.name == "verify"]
        return Operation(
            seconds={"sweep_s": tracer.total("sweep"), "verify_s": float(np.mean(jobs))},
            horizon=horizon,
        )


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint(prepared: Prepared):
    return (
        [lipschitz.network_weights_digest(student.controller.network) for student in prepared.students],
        prepared.quality,
    )


def set_up(workload: Workload, seed: int, source: Path, ledger: Ledger) -> Tuple[Prepared, float]:
    """Set up ``SETUP_REPEATS`` times; returns the first set-up and the median seconds.

    One set-up is a fresh interpreter importing the program plus building the
    workload's inputs in this process.  Every repetition must reproduce the
    first one's students and quality figures.
    """

    prepared: Optional[Prepared] = None
    seconds, train_seconds, evaluate_seconds = [], [], []
    for repeat in range(SETUP_REPEATS):
        cold = cold_import_seconds(source)
        start = time.perf_counter()
        candidate = prepare(workload, seed, ledger if repeat == 0 else Ledger())
        seconds.append(cold + time.perf_counter() - start)
        train_seconds.append(candidate.train_seconds)
        evaluate_seconds.append(candidate.evaluate_seconds)
        if prepared is None:
            prepared = candidate
        elif prepared.students:
            ledger.attempt(
                "set-up repeat",
                lambda: check(fingerprint(candidate) == fingerprint(prepared), "set-up is not reproducible"),
            )
    prepared.train_seconds = statistics.median(train_seconds)
    prepared.evaluate_seconds = statistics.median(evaluate_seconds)
    return prepared, statistics.median(seconds)


def run(workload_name: str, seed: int, seconds: float, trace: bool, source: Path) -> dict:
    """One benchmark run; returns the result object the last stdout line carries.

    With ``trace`` the operations alternate untraced and traced (every layer
    wrapped), starting untraced; the per-layer figures are medians over the
    traced ones.
    """

    workload = WORKLOADS[workload_name]
    ledger = Ledger()
    prepared, setup_seconds = set_up(workload, seed, source, ledger)
    runner = Runner(workload, seed, prepared, ledger)
    tracer = Tracer()
    untraced: List[Operation] = []
    traced: List[Operation] = []
    figures: List[Dict[str, float]] = []

    def wanted() -> bool:
        if trace:
            return min(len(untraced), len(traced)) < MIN_TRACED_PAIRS
        return len(untraced) < MIN_OPERATIONS

    start = time.perf_counter()
    while wanted() or time.perf_counter() - start < seconds:
        traced_turn = trace and len(traced) < len(untraced)
        tracer.clear()
        with Instrumentation(layers.TARGETS if traced_turn else (), tracer):
            operation = runner.run(tracer)
        if operation is None:
            break
        if traced_turn:
            traced.append(operation)
            figures.append(layers.operation_metrics(tracer))
        else:
            untraced.append(operation)
        kind = "traced" if traced_turn else "untraced"
        print(f"{kind} operation: {json.dumps(operation.seconds)}", file=sys.stderr, flush=True)
    runner.check_soundness()

    if trace:
        metrics = per_layer(figures, traced, untraced)
    else:
        metrics = end_to_end(untraced, prepared, setup_seconds)
    return {
        "correct": ledger.failed == 0 and bool(untraced) and (bool(traced) or not trace),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def _report(values: Dict[str, float], units: Dict[str, str]) -> dict:
    return {
        name: {"value": float(values[name]) if name in values else None, "unit": unit}
        for name, unit in units.items()
    }


def end_to_end(operations: List[Operation], prepared: Prepared, setup_seconds: float) -> dict:
    values: Dict[str, float] = {"setup_s": setup_seconds, "peak_rss_mb": peak_rss_mb()}
    if operations:
        for name in operations[0].seconds:
            values[name] = statistics.median(operation.seconds[name] for operation in operations)
        values["verified_frac"] = float(np.mean(operations[0].horizon))
        quality = operations[0].quality
        if quality is None:
            # verify-sweep: its cells train and evaluate at set-up.
            values["train_s"] = prepared.train_seconds
            values["evaluate_s"] = prepared.evaluate_seconds
            values["cell_s"] = values["train_s"] + values["evaluate_s"] + values["sweep_s"]
            quality = prepared.quality or {}
        values.update(quality)
    return _report(values, END_TO_END)


def per_layer(figures: List[Dict[str, float]], traced: List[Operation], untraced: List[Operation]) -> dict:
    values: Dict[str, float] = layers.median_metrics(figures) if figures else {}
    if traced and untraced:
        key = "cell_s" if "cell_s" in traced[0].seconds else "sweep_s"
        values["trace.overhead_s"] = statistics.median(op.seconds[key] for op in traced) - statistics.median(
            op.seconds[key] for op in untraced
        )
    return _report(values, layers.metric_units())


def describe(workload_name: str) -> dict:
    """Every pinned input of a workload, for the run's record."""

    workload = WORKLOADS[workload_name]
    return {
        "train": asdict(workload.train) if workload.train is not None else None,
        "set_up_train": asdict(SWEEP_TRAIN) if workload.train is None else None,
        "verify": {scenario: asdict(VERIFY[scenario]) for scenario in workload.scenarios},
        "num_envs": NUM_ENVS,
        "train_batch_size": TRAIN_BATCH_SIZE,
        "table_samples": TABLE_SAMPLES,
        "robustness_samples": ROBUSTNESS_SAMPLES,
        "perturbation_fraction": PERTURBATION_FRACTION,
        "target_error": TARGET_ERROR,
        "reach_box_scale": REACH_BOX_SCALE,
        "min_operations": MIN_OPERATIONS,
        "min_traced_pairs": MIN_TRACED_PAIRS,
        "setup_repeats": SETUP_REPEATS,
    }
