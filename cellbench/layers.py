"""The layer functions the traced run wraps, and the per-layer metrics they give.

Each :class:`~spans.Target` names a public function of one ``repro`` layer
at the place its callers look it up.  The per-layer metric names below are
the ``per_layer`` list of ``BENCHMARK.json``; ``test_cellbench.py`` keeps
the two equal.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from spans import Target, Tracer


def _count_collected(tracer: Tracer, buffer) -> None:
    tracer.count("rl.ppo.collect_steps", len(buffer))


def _count_partition(tracer: Tracer, approximation) -> None:
    tracer.count("verification.partitions", approximation.num_partitions)
    tracer.count("verification.coefficients", approximation.total_coefficients())
    # The coefficient cache keeps filling during reachability and the
    # invariant set, so its hit ratio is read when the operation ends.
    tracer.captured.append(approximation)


def _count_reach(tracer: Tracer, result) -> None:
    tracer.count("verification.reach_work", result.work)
    tracer.count("verification.reach_steps", result.steps_completed)


def _count_invariant(tracer: Tracer, result) -> None:
    tracer.count("verification.invariant_work", result.work)


TARGETS = (
    Target("autodiff.backward", "repro.autodiff.tensor", "Tensor.backward"),
    Target("nn.optim.step", "repro.nn.optim", "Adam.step"),
    Target("nn.optim.step", "repro.nn.optim", "SGD.step"),
    Target("rl.ppo.update", "repro.rl.ppo", "PPOTrainer.update"),
    Target("rl.ppo.collect", "repro.rl.ppo", "PPOTrainer.collect_rollouts", _count_collected),
    Target("core.distillation.robust", "repro.core.distillation", "RobustDistiller.distill"),
    Target("core.distillation.direct", "repro.core.distillation", "DirectDistiller.distill"),
    Target("core.distillation.dataset", "repro.core.distillation", "collect_distillation_dataset"),
    Target("attacks.fgsm.perturb_batch", "repro.attacks.fgsm", "FGSMAttack.perturb_batch"),
    Target("metrics.evaluation.robustness", "repro.metrics.robustness", "evaluate_robustness"),
    Target("systems.simulation.rollout_batch", "repro.systems.simulation", "rollout_batch"),
    Target("nn.lipschitz.network_lipschitz", "repro.nn.lipschitz", "network_lipschitz"),
    Target("verification.partition", "repro.verification.partition", "partition_network", _count_partition),
    # The fit runs inside CoefficientCache.get_batch, which partition and
    # reachability reach through the cache; IBP is imported at call time.
    Target("verification.bernstein_fit", "repro.verification.bernstein", "bernstein_coefficients_batch"),
    Target("verification.ibp", "repro.verification.intervals", "refined_network_output_bounds_batch"),
    Target("verification.reach", "repro.verification.reachability", "reachable_sets", _count_reach),
    Target("verification.invariant", "repro.verification.invariant", "compute_invariant_set", _count_invariant),
)

#: Spans reported as ``<name>_s`` (outermost time) and ``<name>_self_s``.
TIMED = tuple(dict.fromkeys(target.span for target in TARGETS))
#: Spans whose number per operation is reported as ``<name>_calls``.
CALLED = (
    "autodiff.backward",
    "nn.optim.step",
    "rl.ppo.update",
    "systems.simulation.rollout_batch",
    "nn.lipschitz.network_lipschitz",
)
#: Counts recorded from results.
COUNTED = (
    "rl.ppo.collect_steps",
    "verification.partitions",
    "verification.coefficients",
    "verification.reach_work",
    "verification.reach_steps",
    "verification.invariant_work",
)
#: Phase spans opened by ``cells.py``; their self time is the time no layer covers.
PHASES = ("train", "evaluate", "verify")


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""

    units: Dict[str, str] = {}
    for name in TIMED:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
    for name in CALLED:
        units[f"{name}_calls"] = "count"
    for name in COUNTED:
        units[name] = "count"
    units["verification.cache_hit_ratio"] = "ratio"
    for phase in PHASES:
        units[f"phase.{phase}_self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def operation_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer figures of one traced operation (without the overhead)."""

    self_times = tracer.self_times()
    figures: Dict[str, float] = {}
    for name in TIMED:
        figures[f"{name}_s"] = tracer.total(name)
        figures[f"{name}_self_s"] = self_times.get(name, 0.0)
    for name in CALLED:
        figures[f"{name}_calls"] = sum(1 for span in tracer.spans if span.name == name)
    for name in COUNTED:
        figures[name] = tracer.counts.get(name, 0)
    hits = sum(approximation.coefficient_cache.hits for approximation in tracer.captured)
    misses = sum(approximation.coefficient_cache.misses for approximation in tracer.captured)
    figures["verification.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for phase in PHASES:
        figures[f"phase.{phase}_self_s"] = self_times.get(phase, 0.0)
    return figures


def median_metrics(operations: List[Dict[str, float]]) -> Dict[str, float]:
    """The median of every figure over the traced operations of a run."""

    return {
        name: float(statistics.median(figures[name] for figures in operations))
        for name in operations[0]
    }
