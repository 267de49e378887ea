"""Guards for the job specs as the single schema of the CLI job verbs.

``repro train`` / ``evaluate`` / ``verify-sweep`` / ``scenarios run`` derive
their flags from the :mod:`repro.jobs.messages` dataclasses and turn the
parsed flags back into a spec with one function.  These tests pin what that
derivation must never move:

* the literal job digest of one spec of each kind (so the resolved config,
  budget defaults included, is unchanged);
* the literal bytes of a sharded run's ``matrix.json`` manifest;
* each verb's parser, option by option (order aside).

It also checks that every spec field is a flag or explicitly off the CLI,
and that specs refuse, at submission, values that used to fail only when a
worker reached them.
"""

import contextlib
import io
import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import RunStore
from repro.jobs.messages import (
    EvaluateJobSpec,
    MatrixJobSpec,
    TrainJobSpec,
    VerifySweepJobSpec,
    build_job_spec,
)
from repro.jobs.runner import job_key
from repro.scenarios import run_scenario_matrix
from repro.scenarios.matrix import MANIFEST_FILE
from repro.utils.messages import MessageValidationError


@pytest.fixture
def seeded_controller_dir(tmp_path):
    """A hand-saved pendulum controller with fixed (seeded) weights."""

    from repro.nn import MLP
    from repro.nn.serialization import save_state_dict

    directory = tmp_path / "ctrl"
    directory.mkdir()
    save_state_dict(MLP(2, 1, hidden_sizes=(4,), seed=0), directory / "kappa_star.npz")
    (directory / "record.json").write_text(
        json.dumps({"controllers": {"kappa_star": "kappa_star.npz"}})
    )
    return directory


def _pinned_specs(controller_dir):
    return {
        # Explicit vectorisation widths: the digest must not follow the CPU count.
        "train": TrainJobSpec(system="vanderpol", num_envs=4, train_batch_size=8, seed=3),
        "train-explicit": TrainJobSpec(
            system="pendulum", mixing_epochs=1, mixing_steps=64, distill_epochs=2,
            dataset_size=64, eval_samples=8, num_envs=2, train_batch_size=4, eval_batch_size=5,
        ),
        # cartpole's hints set both widths, so its all-default spec is portable.
        "train-hinted": TrainJobSpec(system="cartpole"),
        "evaluate": EvaluateJobSpec(
            system="pendulum", controller_dir=str(controller_dir), perturbation="attack",
            fraction=0.2, samples=16, batch_size=4, seed=1,
        ),
        "verify-sweep": VerifySweepJobSpec(
            specs=(f"pendulum:{controller_dir}",), degree=2, max_partitions=512, work_budget=100
        ),
        "matrix": MatrixJobSpec(
            scenarios=("pendulum", "cartpole"), samples=8, budget_scale=0.5,
            train_overrides={"mixing_epochs": 1}, verify_overrides={"degree": 2}, jobs=2,
        ),
        "matrix-catalog": MatrixJobSpec(),
    }


PINNED_DIGESTS = {
    "train": "7b3ebb4a16ccecc6c7077ff768eed0d2988965dfecb062ae78626149b20d5cef",
    "train-explicit": "833326d863830541bfc74b5aac2c1ce2d7747250c510482374755f7738c783ca",
    "train-hinted": "5a690759accae77e9d686ad31e2c85844e560a1fc475c832967eb2d3797584cb",
    "evaluate": "aed94e7bcb1537ae6ad96251d4163cf5218d7fca98c5f6454cb06a33002c6c55",
    "verify-sweep": "4c02c549842fbf32805205eb87832813d3ac82d2ae731e48c0741053425ed268",
    "matrix": "767d3f406fc7d417b2cbae3d4620c458829309bd877a26b8af004a9db3abf676",
    "matrix-catalog": "126addb027a272ffaea8bffccf881547070b369395df1a6c612ed7f116a043f8",
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_job_digest_is_pinned(name, tmp_path, seeded_controller_dir):
    spec = _pinned_specs(seeded_controller_dir)[name]
    assert job_key(RunStore(tmp_path / "store"), spec).digest == PINNED_DIGESTS[name]


class TestMatrixManifestBytes:
    def test_cli_shard_writes_the_pinned_manifest(self, tmp_path):
        run_dir = tmp_path / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            main(["scenarios", "run", "--scenario", "pendulum", "--no-train", "--no-verify",
                  "--samples", "4", "--run-dir", str(run_dir), "--shard", "1/2"])
        assert (run_dir / MANIFEST_FILE).read_text() == (
            '{\n  "budget_scale": 1.0,\n  "engine": "batched",\n  "fraction": 0.1,\n'
            '  "perturbations": [\n    "none",\n    "attack",\n    "noise"\n  ],\n'
            '  "samples": 4,\n  "scenarios": [\n    "pendulum"\n  ],\n  "seed": 0,\n'
            '  "train": false,\n  "train_overrides": {},\n  "verify": false,\n'
            '  "verify_overrides": {}\n}\n'
        )

    def test_overrides_and_perturbations_are_recorded(self, tmp_path):
        run_dir = tmp_path / "run"
        run_scenario_matrix(
            scenarios=["pendulum"], perturbations=("none", "noise"), samples=4, train=False,
            verify=False, seed=2, budget_scale=0.5, train_overrides={"mixing_epochs": 1},
            verify_overrides={"degree": 2}, jobs=3, run_dir=run_dir, shard="2/2",
            telemetry=False,
        )
        assert (run_dir / MANIFEST_FILE).read_text() == (
            '{\n  "budget_scale": 0.5,\n  "engine": "batched",\n  "fraction": 0.1,\n'
            '  "perturbations": [\n    "none",\n    "noise"\n  ],\n  "samples": 4,\n'
            '  "scenarios": [\n    "pendulum"\n  ],\n  "seed": 2,\n  "train": false,\n'
            '  "train_overrides": {\n    "mixing_epochs": 1\n  },\n  "verify": false,\n'
            '  "verify_overrides": {\n    "degree": 2\n  }\n}\n'
        )


def _subparser(*path):
    parser = build_parser()
    for name in path:
        action = next(a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction")
        parser = action.choices[name]
    return parser


def _snapshot(parser):
    """Every option of ``parser`` as comparable tuples (order-free)."""

    rows = set()
    for action in parser._actions:
        if action.__class__.__name__ == "_HelpAction":
            continue
        rows.add((
            tuple(action.option_strings),
            action.dest,
            action.default,
            getattr(action.type, "__name__", None) if action.type is not None else None,
            tuple(action.choices) if action.choices is not None else None,
            type(action).__name__,
            action.required,
            action.metavar,
            action.help,
        ))
    return rows


PARSER_SNAPSHOTS = {
    'train': {
        (('--dataset-size',), 'dataset_size', None, 'int', None, '_StoreAction', False, None,
         "distillation dataset size (default: the scenario's budget hint)"),
        (('--distill-epochs',), 'distill_epochs', None, 'int', None, '_StoreAction', False, None,
         "distillation epochs (default: the scenario's budget hint)"),
        (('--eval-batch-size',), 'eval_batch_size', 0, 'int', None, '_StoreAction', False, None,
         'Monte-Carlo rollouts advanced in lockstep (0 = whole sample as one batch)'),
        (('--eval-samples',), 'eval_samples', None, 'int', None, '_StoreAction', False, None,
         "Monte-Carlo evaluation samples (default: the scenario's budget hint)"),
        (('--mixing-epochs',), 'mixing_epochs', None, 'int', None, '_StoreAction', False, None,
         "PPO mixing epochs (default: the scenario's budget hint)"),
        (('--mixing-steps',), 'mixing_steps', None, 'int', None, '_StoreAction', False, None,
         "PPO steps per epoch (default: the scenario's budget hint)"),
        (('--num-envs',), 'num_envs', None, 'int', None, '_StoreAction', False, None,
         'parallel PPO mixing environments advanced in lockstep (default: scenario hint, then a '
         'CPU-derived width; 1 = scalar path)'),
        (('--output',), 'output', None, 'Path', None, '_StoreAction', True, None,
         'directory for the saved controllers'),
        (('--run-dir',), 'run_dir', None, 'Path', None, '_StoreAction', False, None,
         'experiment run store; an identical earlier train is restored from it instead of '
         'retrained, a fresh one is recorded under its config digest'),
        (('--seed',), 'seed', 0, 'int', None, '_StoreAction', False, None, None),
        (('--system',), 'system', 'vanderpol', '_scenario_argument', None, '_StoreAction', False,
         'SCENARIO',
         "registered scenario, one of ['3d', 'acc', 'cartpole', 'pendulum', 'vanderpol'] (aliases "
         'and variants like vanderpol?mu=1.5 accepted)'),
        (('--train-batch-size',), 'train_batch_size', None, 'int', None, '_StoreAction', False,
         None,
         'lockstep teacher rollouts / labels per batched query during distillation dataset '
         'collection (default: scenario hint, then a CPU-derived width; 1 = scalar path)'),
    },
    'evaluate': {
        (('--batch-size',), 'batch_size', 0, 'int', None, '_StoreAction', False, None,
         'Monte-Carlo rollouts advanced in lockstep (0 = whole sample as one batch)'),
        (('--controller',), 'controller', 'kappa_star', None, None, '_StoreAction', False, None,
         'any controller saved in --controller-dir (default kappa_star)'),
        (('--controller-dir',), 'controller_dir', None, 'Path', None, '_StoreAction', True, None,
         None),
        (('--fraction',), 'fraction', 0.1, 'float', None, '_StoreAction', False, None, None),
        (('--perturbation',), 'perturbation', 'none', None, ('none', 'attack', 'noise'),
         '_StoreAction', False, None, None),
        (('--samples',), 'samples', 200, 'int', None, '_StoreAction', False, None, None),
        (('--seed',), 'seed', 0, 'int', None, '_StoreAction', False, None, None),
        (('--system',), 'system', 'vanderpol', '_scenario_argument', None, '_StoreAction', False,
         'SCENARIO',
         "registered scenario, one of ['3d', 'acc', 'cartpole', 'pendulum', 'vanderpol'] (aliases "
         'and variants like vanderpol?mu=1.5 accepted)'),
    },
    'verify-sweep': {
        (('--controller-dir',), 'controller_dir', None, 'Path', None, '_StoreAction', False, None,
         'controller directory for the --system shorthand'),
        (('--csv',), 'csv', None, 'Path', None, '_StoreAction', False, None,
         'write one CSV row per job to this path'),
        (('--degree',), 'degree', 3, 'int', None, '_StoreAction', False, None, None),
        (('--invariant-grid',), 'invariant_grid', 0, 'int', None, '_StoreAction', False, None,
         '0 disables the invariant-set analysis'),
        (('--jobs',), 'jobs', 0, 'int', None, '_StoreAction', False, None,
         'worker processes for the sweep pool (0 = one per job, capped at the CPU count)'),
        (('--max-partitions',), 'max_partitions', 2048, 'int', None, '_StoreAction', False, None,
         None),
        (('--reach-box-scale',), 'reach_box_scale', 0.1, 'float', None, '_StoreAction', False, None,
         'initial reach box as a fraction of X0'),
        (('--reach-steps',), 'reach_steps', 15, 'int', None, '_StoreAction', False, None,
         'reachability horizon per job'),
        (('--run-dir',), 'run_dir', None, 'Path', None, '_StoreAction', False, None,
         'experiment run store; jobs whose (weight digest x budgets) key is already present are '
         'replayed from it instead of re-verified'),
        (('--spec',), 'spec', None, None, None, '_AppendAction', False, 'SYSTEM:DIR[:CONTROLLER]',
         'one verification job source; repeatable; omitting CONTROLLER expands to every controller '
         'recorded in DIR (kappa_star and, when present, kappaD)'),
        (('--system',), 'system', None, '_scenario_argument', None, '_StoreAction', False,
         'SCENARIO',
         "registered scenario, one of ['3d', 'acc', 'cartpole', 'pendulum', 'vanderpol'] (aliases "
         'and variants like vanderpol?mu=1.5 accepted)'),
        (('--target-error',), 'target_error', 0.5, 'float', None, '_StoreAction', False, None, None),
        (('--time-budget',), 'time_budget', 0.0, 'float', None, '_StoreAction', False, None,
         'per-job wall-clock budget in seconds, checked at phase boundaries (0 = unbounded)'),
        (('--work-budget',), 'work_budget', 0, 'int', None, '_StoreAction', False, None,
         'per-job reachability work budget in Bernstein coefficients (0 = unbounded); exceeding it '
         "aborts with status 'resource-exhausted'"),
    },
    'scenarios run': {
        (('--budget-scale',), 'budget_scale', 1.0, 'float', None, '_StoreAction', False, None,
         "uniformly scale each scenario's training budget hints"),
        (('--claim-lease',), 'claim_lease', 60.0, 'float', None, '_StoreAction', False, 'SECONDS',
         'with --shard/--shard-workers: seconds without a heartbeat before another shard may take '
         'over a claimed cell (default 60)'),
        (('--csv',), 'csv', None, 'Path', None, '_StoreAction', False, None,
         'write one CSV row per matrix cell'),
        (('--force',), 'force', False, None, None, '_StoreTrueAction', False, None,
         'recompute every cell and overwrite the store entries (needs --run-dir)'),
        (('--fraction',), 'fraction', 0.1, 'float', None, '_StoreAction', False, None,
         'attack/noise magnitude fraction'),
        (('--jobs',), 'jobs', 0, 'int', None, '_StoreAction', False, None,
         'verification worker processes (0 = one per scenario, capped at the CPU count)'),
        (('--no-steal',), 'no_steal', False, None, None, '_StoreTrueAction', False, None,
         'with --shard/--shard-workers: do not pick up unfinished cells of other shards (by '
         "default an idle shard steals stragglers' work)"),
        (('--no-telemetry',), 'no_telemetry', False, None, None, '_StoreTrueAction', False, None,
         'do not append the typed event log under <run-dir>/events/ (store-backed runs write it by '
         'default; see `repro runs watch`)'),
        (('--no-train',), 'no_train', False, None, None, '_StoreTrueAction', False, None,
         'skip training kappa_star (evaluates the analytic experts only)'),
        (('--no-verify',), 'no_verify', False, None, None, '_StoreTrueAction', False, None,
         'skip the verification cells'),
        (('--resume',), 'resume', False, None, None, '_StoreTrueAction', False, None,
         'explicitly resume an interrupted sweep from --run-dir (reuse is already the default with '
         '--run-dir; this flag just rejects a missing --run-dir)'),
        (('--run-dir',), 'run_dir', None, 'Path', None, '_StoreAction', False, None,
         'experiment run store: every cell (train/evaluate/verify) is keyed by its config digest '
         'and flushed as it completes; cells already present are loaded instead of recomputed, so '
         'reruns are incremental'),
        (('--samples',), 'samples', 32, 'int', None, '_StoreAction', False, None,
         'Monte-Carlo rollouts per evaluation cell'),
        (('--scenario',), 'scenario', None, '_scenario_argument', None, '_AppendAction', False,
         'SCENARIO',
         'restrict the matrix to this scenario (repeatable; default: the whole catalog)'),
        (('--seed',), 'seed', 0, 'int', None, '_StoreAction', False, None, None),
        (('--shard',), 'shard', None, '_shard_argument', None, '_StoreAction', False, 'I/N',
         'run only shard I of N (1-based) against the shared --run-dir; every shard writes '
         'digest-keyed cells into the same store, and `repro runs merge` reassembles the full CSV '
         'once all cells exist'),
        (('--shard-time-budget',), 'shard_time_budget', 0.0, 'float', None, '_StoreAction', False,
         'SECONDS',
         'with --shard: wall-clock budget for this shard; on exhaustion the report status is '
         "'resource-exhausted' and the remaining cells stay unclaimed for other shards (0 = "
         'unbounded)'),
        (('--shard-workers',), 'shard_workers', 0, 'int', None, '_StoreAction', False, 'N',
         'fan the matrix across N local shard worker processes against --run-dir and merge when '
         'they finish (single-host alternative to running N --shard commands)'),
    },
}


@pytest.mark.parametrize("verb", sorted(PARSER_SNAPSHOTS))
def test_parser_snapshot(verb):
    assert _snapshot(_subparser(*verb.split())) == PARSER_SNAPSHOTS[verb]


VERB_SPECS = {
    "train": TrainJobSpec,
    "evaluate": EvaluateJobSpec,
    "verify-sweep": VerifySweepJobSpec,
    "scenarios run": MatrixJobSpec,
}

#: Hand-written flags: how or where a verb runs, not what it computes.
RUN_CONTEXT_DESTS = {
    "train": {"run_dir"},
    "evaluate": set(),
    "verify-sweep": {"system", "controller_dir", "csv", "run_dir"},
    "scenarios run": {
        "csv", "run_dir", "resume", "force", "shard", "shard_workers", "no_steal",
        "claim_lease", "shard_time_budget", "no_telemetry",
    },
}


def _expected_flag(spec_field):
    """The flag a spec field maps to: singular for tuples, --no- for booleans."""

    name = spec_field.name.replace("_", "-")
    if isinstance(spec_field.default, tuple):
        return f"--{name[:-1]}"
    if isinstance(spec_field.default, bool):
        return f"--no-{name}"
    return f"--{name}"


class TestSpecIsTheSchema:
    @pytest.mark.parametrize("verb", sorted(VERB_SPECS))
    def test_every_field_is_a_flag_or_explicitly_off_cli(self, verb):
        from dataclasses import fields

        parser = _subparser(*verb.split())
        options = {option for action in parser._actions for option in action.option_strings}
        derived = set()
        for spec_field in fields(VERB_SPECS[verb]):
            flag = _expected_flag(spec_field)
            if spec_field.metadata.get("cli", True):
                assert flag in options, f"{spec_field.name} has no {flag} flag"
                derived.add(flag[2:].replace("-", "_"))
            else:
                assert spec_field.metadata == {"cli": False}
                assert flag not in options and f"--{spec_field.name}" not in options
        dests = {action.dest for action in parser._actions if action.dest != "help"}
        assert dests - derived == RUN_CONTEXT_DESTS[verb]

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["train", "--output", "runs/x/"], TrainJobSpec(output="runs/x")),
            (["evaluate", "--controller-dir", "runs/x"], EvaluateJobSpec(controller_dir="runs/x")),
            (["verify-sweep", "--spec", "pendulum:runs/x"],
             VerifySweepJobSpec(specs=("pendulum:runs/x",))),
            (["scenarios", "run"], MatrixJobSpec()),
        ],
    )
    def test_bare_required_flags_give_the_default_spec(self, argv, expected):
        from repro.cli import _spec_from_args

        args = build_parser().parse_args(argv)
        assert _spec_from_args(type(expected), args) == expected

    def test_every_flag_reaches_its_field(self):
        from repro.cli import _spec_from_args

        args = build_parser().parse_args([
            "scenarios", "run", "--scenario", "pendulum", "--scenario", "acc", "--samples", "7",
            "--fraction", "0.25", "--no-train", "--no-verify", "--jobs", "2", "--seed", "5",
            "--budget-scale", "0.5",
        ])
        assert _spec_from_args(MatrixJobSpec, args) == MatrixJobSpec(
            scenarios=("pendulum", "acc"), samples=7, fraction=0.25, train=False,
            verify=False, jobs=2, seed=5, budget_scale=0.5,
        )

    def test_malformed_values_stay_argparse_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenarios", "run", "--samples", "many"])
        assert excinfo.value.code == 2
        assert "invalid int value: 'many'" in capsys.readouterr().err


class TestSpecsRefuseValuesThatFailLate:
    """Values that used to pass validation and fail only inside a worker."""

    def test_unknown_perturbation_is_refused(self):
        with pytest.raises(MessageValidationError, match="perturbations"):
            build_job_spec("matrix", ["perturbations=none,bogus", "scenarios=pendulum"])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: EvaluateJobSpec(controller_dir="x", fraction=-1.0),
            lambda: MatrixJobSpec(fraction=-1.0),
        ],
    )
    def test_negative_fraction_is_refused(self, make):
        with pytest.raises(MessageValidationError, match="fraction must be >= 0"):
            make()

    def test_daemon_answers_bad_spec_without_queueing(self, tmp_path):
        from repro.jobs.service import JobService, ServiceError

        service = JobService(tmp_path / "run", workers=1)
        payload = dict(
            MatrixJobSpec(scenarios=("pendulum",), train=False, verify=False).to_json(),
            perturbations=["bogus"],
        )
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.submit(payload)
            assert excinfo.value.code == "bad-spec"
            assert service.list_jobs() == []
        finally:
            service.close()

    def test_cli_exits_with_the_spec_message(self, seeded_controller_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--system", "pendulum", "--controller-dir",
                  str(seeded_controller_dir), "--fraction", "-1"])
        assert excinfo.value.code == "EvaluateJobSpec.fraction must be >= 0"
        with pytest.raises(SystemExit) as excinfo:
            main(["scenarios", "run", "--samples", "0"])
        assert excinfo.value.code == "MatrixJobSpec.samples must be > 0"
