"""Tests of the cell benchmark's own code: spans, wrappers, failure counts, names."""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

import cells  # noqa: E402
import layers  # noqa: E402
from spans import Instrumentation, Target, Tracer, covered  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_the_union_of_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("cell"):
        clock.now = 1.0
        with tracer.span("train"):
            clock.now = 2.0
            with tracer.span("layer"):
                clock.now = 5.0
            clock.now = 6.0
        clock.now = 7.0
        with tracer.span("verify"):
            clock.now = 9.0
        clock.now = 10.0
    self_times = tracer.self_times()
    assert self_times == {"cell": 3.0, "train": 2.0, "layer": 3.0, "verify": 2.0}
    assert tracer.total("cell") == 10.0
    assert tracer.total("train") == 5.0


def test_outermost_total_does_not_count_a_layer_that_calls_itself():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("layer"):
        clock.now = 1.0
        with tracer.span("layer"):
            clock.now = 3.0
        clock.now = 4.0
    assert tracer.total("layer") == 4.0
    assert tracer.self_times()["layer"] == 4.0


def test_covered_merges_overlapping_and_clips_to_the_parent():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 5.0), (8.0, 12.0), (-2.0, -1.0)]) == 6.0
    assert covered(0.0, 1.0, []) == 0.0


def _bindings():
    """Every module attribute and class attribute a target can replace."""

    snapshot = {}
    for target in layers.TARGETS:
        module = importlib.import_module(target.module)
        *path, name = target.attribute.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        snapshot[(id(owner), name)] = owner.__dict__.get(name, "absent")
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro"):
            for attribute, value in vars(module).items():
                if callable(value):
                    snapshot[(module_name, attribute)] = value
    return snapshot


def _assert_restored(before):
    """Every binding is back, and no module imported meanwhile kept a wrapper."""

    after = _bindings()
    assert {key: after[key] for key in before} == before
    assert not [key for key, value in after.items() if hasattr(value, "traced_span")]


def test_traced_run_records_every_layer_and_restores_every_attribute():
    before = _bindings()
    tracer = Tracer()
    budget = cells.TrainBudget(1, 64, 2, 64, 0.6)
    with Instrumentation(layers.TARGETS, tracer):
        system, result, _table = cells.train("vanderpol", budget, seed=3)
        cells.robustness(system, result.student, "attack", seed=3)
        cells.verify_controller(
            system,
            result.student.network,
            target_error=0.5,
            degree=2,
            max_partitions=64,
            reach_initial_box=system.initial_set.scale(0.1),
            reach_steps=3,
            invariant_grid=4,
        )
    _assert_restored(before)
    figures = layers.operation_metrics(tracer)
    for name in layers.TIMED:
        if name != "nn.optim.step" or figures["nn.optim.step_calls"]:
            assert figures[f"{name}_s"] > 0.0, name
    assert figures["rl.ppo.collect_steps"] > 0
    assert figures["verification.partitions"] > 0
    assert 0.0 <= figures["verification.cache_hit_ratio"] <= 1.0


def test_instrumentation_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Instrumentation(layers.TARGETS, Tracer()):
            raise RuntimeError("boom")
    _assert_restored(before)


def test_instrumentation_restores_what_it_patched_when_a_target_is_missing():
    before = _bindings()
    broken = layers.TARGETS + (Target("missing", "repro.nn.optim", "Adam.no_such_method"),)
    with pytest.raises(AttributeError):
        with Instrumentation(broken, Tracer()):
            pass
    _assert_restored(before)


def test_ledger_counts_exceptions_and_failed_checks():
    ledger = cells.Ledger()
    assert ledger.attempt("ok", lambda: 7) == 7
    assert ledger.attempt("raises", lambda: 1 / 0) is None
    assert ledger.attempt("check", lambda: cells.check(False, "wrong")) is None
    ledger.skip("later phases", 2)
    assert (ledger.attempted, ledger.failed) == (5, 4)


def test_check_repeat_accepts_equal_and_refuses_different_outputs():
    reference = cells.check_repeat(None, {"digest": "a"}, "kappa*")
    assert cells.check_repeat(reference, {"digest": "a"}, "kappa*") == reference
    with pytest.raises(cells.CheckFailed):
        cells.check_repeat(reference, {"digest": "b"}, "kappa*")


def test_emitted_names_equal_benchmark_json():
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(cells.WORKLOADS)
    assert {metric["name"]: metric["unit"] for metric in spec["end_to_end"]} == cells.END_TO_END
    assert {metric["name"]: metric["unit"] for metric in spec["per_layer"]} == layers.metric_units()
    empty = cells.Prepared(students=[])
    assert list(cells.end_to_end([], empty, 1.0)) == list(cells.END_TO_END)
    assert list(cells.per_layer([], [], [])) == list(layers.metric_units())
