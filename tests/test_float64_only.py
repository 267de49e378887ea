"""Training and verification run in float64 only.

No path takes a precision argument: a caller passing ``dtype=`` gets the
ordinary ``TypeError`` (even for ``"float64"``, so no compatibility shim
silently accepts and ignores it), and the precision-policy module is gone.
The float64 histories themselves are checked where they are produced
(``test_systems_batch.py``, ``test_rl_components.py`` and the scenario
conformance suite).
"""

import importlib

import numpy as np
import pytest

from repro.nn.network import MLP
from repro.systems import make_system


def _rollout(dtype):
    from repro.experts import NeuralController
    from repro.systems.simulation import rollout_batch, sample_initial_states

    system = make_system("vanderpol")
    controller = NeuralController(MLP(2, 1, hidden_sizes=(4,), seed=0))
    return rollout_batch(system, controller, sample_initial_states(system, 2, rng=0), dtype=dtype)


def _buffer(dtype):
    from repro.rl.buffers import RolloutBuffer

    return RolloutBuffer(num_envs=2, dtype=dtype)


def _gae(dtype):
    from repro.rl.gae import compute_gae_batch

    zeros = np.zeros((2, 1))
    return compute_gae_batch(zeros, zeros, zeros.astype(bool), 0.99, 0.95, np.zeros(1), dtype=dtype)


def _ppo_config(dtype):
    from repro.rl.ppo import PPOConfig

    return PPOConfig(dtype=dtype)


def _mixing_config(dtype):
    from repro.core.config import MixingConfig

    return MixingConfig(dtype=dtype)


def _verify(dtype):
    from repro.verification.verifier import verify_controller

    network = MLP(2, 1, hidden_sizes=(4,), seed=0)
    return verify_controller(make_system("vanderpol"), network, max_partitions=8, dtype=dtype)


def _sweep_job(dtype):
    from repro.verification.sweep import SweepJob

    network = MLP(2, 1, hidden_sizes=(4,), seed=0)
    return SweepJob.from_network("job@vanderpol", "vanderpol", network, dtype=dtype)


@pytest.mark.parametrize(
    "call",
    [_rollout, _buffer, _gae, _ppo_config, _mixing_config, _verify, _sweep_job],
    ids=lambda call: call.__name__.lstrip("_"),
)
def test_no_path_accepts_a_dtype(call):
    with pytest.raises(TypeError, match="dtype"):
        call("float64")


def test_precision_policy_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.utils.dtypes")
