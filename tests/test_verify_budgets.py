"""Out-of-range verification budgets are refused before any work starts.

One bounds check (:func:`repro.verification.check_verify_budgets`) runs at
the start of ``verify_controller``, inside ``VerifySweepJobSpec``
validation (so the daemon answers ``bad-spec`` instead of queueing jobs
that can only end as ``error``) and in ``repro verify`` (which exits with
the check's message instead of a traceback).
"""

import json

import pytest

from repro.cli import main
from repro.jobs.messages import VerifySweepJobSpec, build_job_spec
from repro.nn import MLP
from repro.systems import make_system
from repro.utils.messages import MessageValidationError
from repro.verification import check_verify_budgets, verify_controller
from repro.verification import verifier

#: ``KEY=VALUE`` assignment -> the message fragment naming the budget.
BAD_BUDGETS = {
    "degree=0": "degree must be >= 1",
    "max_partitions=0": "max_partitions must be >= 1",
    "target_error=-1": "target_error must be > 0",
    "reach_steps=0": "reach_steps must be >= 1",
    "invariant_grid=1": "invariant_grid must be >= 2",
    "invariant_grid=-3": "invariant_grid must be >= 2",
}


@pytest.fixture
def saved_controller_dir(tmp_path):
    from repro.nn.serialization import save_state_dict

    save_state_dict(MLP(2, 1, hidden_sizes=(4,)), tmp_path / "kappa_star.npz")
    (tmp_path / "record.json").write_text(
        json.dumps({"controllers": {"kappa_star": "kappa_star.npz"}})
    )
    return tmp_path


def test_defaults_and_disabled_invariant_pass():
    check_verify_budgets(degree=3, max_partitions=2048, target_error=0.5, reach_steps=15)
    check_verify_budgets(1, 1, 1e-9, 1, invariant_grid=2)


@pytest.mark.parametrize("assignment", sorted(BAD_BUDGETS))
def test_spec_refuses_out_of_range_budget(assignment):
    with pytest.raises(MessageValidationError, match=BAD_BUDGETS[assignment]):
        build_job_spec("verify-sweep", ["specs=vanderpol:DIR", assignment])


def test_spec_refuses_negative_reach_box_scale():
    with pytest.raises(MessageValidationError, match="reach_box_scale must be >= 0"):
        build_job_spec("verify-sweep", ["specs=vanderpol:DIR", "reach_box_scale=-0.5"])


def test_daemon_answers_bad_spec_without_queueing(tmp_path):
    from repro.jobs.service import JobService, ServiceError

    service = JobService(tmp_path / "run", workers=1)
    payload = dict(VerifySweepJobSpec(specs=("vanderpol:DIR",)).to_json(), degree=0)
    try:
        with pytest.raises(ServiceError) as excinfo:
            service.submit(payload)
        assert excinfo.value.code == "bad-spec"
        assert "degree must be >= 1" in str(excinfo.value)
        assert service.list_jobs() == []
    finally:
        service.close()


@pytest.mark.parametrize(
    "budget",
    [
        {"degree": 0},
        {"max_partitions": 0},
        {"target_error": -1.0},
        {"reach_steps": 0},
        {"invariant_grid": 1},
        {"invariant_grid": -3},
    ],
)
def test_verify_controller_checks_before_partitioning(budget, monkeypatch):
    def partition_must_not_run(*args, **kwargs):
        raise AssertionError("partitioning ran before the budget check")

    monkeypatch.setattr(verifier, "partition_network", partition_must_not_run)
    system = make_system("vanderpol")
    with pytest.raises(ValueError, match="must be"):
        verify_controller(
            system,
            MLP(2, 1, hidden_sizes=(4,)),
            reach_initial_box=system.initial_set.scale(0.1),
            **budget,
        )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--degree", "0"], "degree must be >= 1, got 0"),
        (["--max-partitions", "0"], "max_partitions must be >= 1, got 0"),
        (["--target-error", "-1"], "target_error must be > 0, got -1.0"),
        (["--reach-steps", "0"], "reach_steps must be >= 1, got 0"),
        (["--reach-box-scale", "-0.5"], "reach_box_scale must be >= 0, got -0.5"),
        (["--invariant-grid", "1"], "invariant_grid must be >= 2 (or disabled), got 1"),
        (["--invariant-grid", "-3"], "invariant_grid must be >= 2 (or disabled), got -3"),
    ],
)
def test_cli_verify_exits_with_the_check_message(saved_controller_dir, flags, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--system", "vanderpol", "--controller-dir",
              str(saved_controller_dir), *flags])
    assert excinfo.value.code == message


def test_cli_verify_sweep_exits_with_the_spec_message(saved_controller_dir):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-sweep", "--spec", f"vanderpol:{saved_controller_dir}", "--degree", "0"])
    assert excinfo.value.code == "VerifySweepJobSpec.degree must be >= 1, got 0"
