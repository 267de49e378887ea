"""Batch-of-one pins: each one-state call equals row 0 of its batched sibling.

Every per-state formula -- expert controls, the plant's step/clip/safety,
disturbance draws, the PPO/DDPG policies and the value network, the
perturbations and the MDP transition -- is written once, over
``(N, ...)`` batches; the scalar entry points call it on a one-row batch.
These checks are seeded and byte-exact: the scalar result (and the random
stream it leaves behind) equals the batch-of-one.  Scalar-only classes run
the other way round, through their base class's row loop, and a class that
writes neither form raises ``NotImplementedError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    FGSMAttack,
    GaussianMeasurementNoise,
    PGDAttack,
    UniformMeasurementNoise,
)
from repro.core.mixing import AdaptiveMixingEnv
from repro.experts import Controller, LinearStateFeedback, make_default_experts
from repro.metrics.lipschitz import controller_lipschitz
from repro.rl.env import ControlEnv
from repro.rl.policies import (
    CategoricalMLPPolicy,
    DeterministicMLPPolicy,
    GaussianMLPPolicy,
    ValueNetwork,
)
from repro.scenarios import list_scenarios
from repro.systems import make_system
from repro.systems.disturbance import DisturbanceModel, UniformDisturbance

SCENARIOS = list_scenarios()
STATES = 50


def _states(system, seed=0, count=STATES):
    return system.safe_region.scale(1.2).sample(np.random.default_rng(seed), count=count)


@pytest.mark.parametrize("scenario", SCENARIOS)
class TestPlantsAndExperts:
    def test_default_experts(self, scenario):
        system = make_system(scenario)
        states = _states(system)
        for expert in make_default_experts(system):
            for state in states:
                scalar = expert(state)
                np.testing.assert_array_equal(scalar, expert.batch_control(state[None, :])[0])
                assert scalar.shape == (system.control_dim,)

    def test_step_clip_and_safety(self, scenario):
        system = make_system(scenario)
        states = _states(system)
        bound = system.control_bound.high
        controls = np.random.default_rng(1).uniform(-2.0 * bound, 2.0 * bound, size=(STATES, system.control_dim))
        scalar_rng, batch_rng = np.random.default_rng(2), np.random.default_rng(2)
        for state, control in zip(states, controls):
            np.testing.assert_array_equal(
                system.clip_control(control), system.clip_control_batch(control[None, :])[0]
            )
            assert system.is_safe(state) == system.is_safe_batch(state[None, :])[0]
            assert type(system.is_safe(state)) is bool
            np.testing.assert_array_equal(
                system.step(state, control, rng=scalar_rng),
                system.step_batch(state[None, :], control[None, :], rng=batch_rng)[0],
            )
        assert scalar_rng.uniform() == batch_rng.uniform()

    def test_disturbance_sample(self, scenario):
        model = make_system(scenario).disturbance
        scalar_rng, batch_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(STATES):
            np.testing.assert_array_equal(model.sample(scalar_rng), model.sample_batch(batch_rng, count=1)[0])
        assert scalar_rng.uniform() == batch_rng.uniform()


def test_step_keeps_its_input_checks():
    system = make_system("vanderpol")
    with pytest.raises(ValueError, match="state has shape"):
        system.step(np.zeros(3), np.zeros(1))
    with pytest.raises(ValueError, match="control has dimension"):
        system.step(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="control has dimension"):
        system.clip_control([1.0, 2.0])


def test_given_disturbance_overrides_sampling():
    system = make_system("vanderpol")
    state, control, disturbance = np.array([0.3, -0.2]), np.array([1.5]), np.array([0.01, -0.02])
    np.testing.assert_array_equal(
        system.step(state, control, disturbance=disturbance),
        system.dynamics(state, control, disturbance),
    )


class TestPolicies:
    def _states(self, seed=0):
        return np.random.default_rng(seed).normal(size=(STATES, 3))

    def test_gaussian_act_and_mean(self):
        policy = GaussianMLPPolicy(3, 2, [-1.0, -1.0], [1.0, 1.0], hidden_sizes=(8, 8), seed=0)
        scalar_rng, batch_rng = np.random.default_rng(4), np.random.default_rng(4)
        for state in self._states():
            for deterministic in (False, True):
                action, log_prob = policy.act(state, rng=scalar_rng, deterministic=deterministic)
                actions, log_probs = policy.act_batch(state[None, :], rng=batch_rng, deterministic=deterministic)
                np.testing.assert_array_equal(action, actions[0])
                assert type(log_prob) is float and log_prob == log_probs[0]
            np.testing.assert_array_equal(policy.mean_action(state), policy.mean_actions(state[None, :])[0])
        assert scalar_rng.uniform() == batch_rng.uniform()

    def test_categorical_act_and_probabilities(self):
        policy = CategoricalMLPPolicy(3, 3, hidden_sizes=(8, 8), seed=0)
        scalar_rng, batch_rng = np.random.default_rng(5), np.random.default_rng(5)
        for state in self._states():
            for deterministic in (False, True):
                action, log_prob = policy.act(state, rng=scalar_rng, deterministic=deterministic)
                actions, log_probs = policy.act_batch(state[None, :], rng=batch_rng, deterministic=deterministic)
                assert type(action) is int and action == actions[0]
                assert type(log_prob) is float and log_prob == log_probs[0]
            probabilities = policy.probabilities(state)
            assert probabilities.shape == (3,)
            assert np.log(probabilities[action] + 1e-12) == log_prob
        assert scalar_rng.uniform() == batch_rng.uniform()

    def test_deterministic_act_with_and_without_noise(self):
        policy = DeterministicMLPPolicy(3, 2, [-2.0, 0.0], [2.0, 1.0], hidden_sizes=(8, 8), seed=0)
        scalar_rng, batch_rng = np.random.default_rng(6), np.random.default_rng(6)
        for state in self._states():
            for noise in (0.0, 0.3):
                np.testing.assert_array_equal(
                    policy.act(state, noise_scale=noise, rng=scalar_rng),
                    policy.act_batch(state[None, :], noise_scale=noise, rng=batch_rng)[0],
                )
        assert scalar_rng.uniform() == batch_rng.uniform()

    def test_value_network(self):
        critic = ValueNetwork(3, hidden_sizes=(8, 8), seed=0)
        for state in self._states():
            value = critic.value(state)
            assert type(value) is float and value == critic.values(state[None, :])[0]


@pytest.mark.parametrize(
    "make",
    [
        lambda controller, bound: FGSMAttack(controller, bound, probability=0.5),
        lambda controller, bound: PGDAttack(controller, bound, steps=3, probability=0.5),
        lambda controller, bound: UniformMeasurementNoise(bound),
        lambda controller, bound: GaussianMeasurementNoise(bound / 3.0),
    ],
    ids=["fgsm", "pgd", "uniform-noise", "gaussian-noise"],
)
def test_perturbations(make):
    system = make_system("vanderpol")
    controller = make_default_experts(system)[1]
    bound = 0.1 * system.state_scale()
    scalar, batched = make(controller, bound), make(controller, bound)
    scalar_rng, batch_rng = np.random.default_rng(7), np.random.default_rng(7)
    for state in _states(system):
        np.testing.assert_array_equal(
            scalar(state, scalar_rng), batched.perturb_batch(state[None, :], batch_rng)[0]
        )
    assert scalar_rng.uniform() == batch_rng.uniform()


@pytest.mark.parametrize("mixing", [False, True], ids=["plain", "mixing"])
def test_scalar_env_is_the_width_one_vec_env(mixing):
    """``ControlEnv.step`` against ``VecControlEnv`` at width 1, up to the first done."""

    def build():
        system = make_system("vanderpol")
        perturbation = UniformMeasurementNoise(0.05 * system.state_scale())
        if mixing:
            return AdaptiveMixingEnv(system, make_default_experts(system), perturbation=perturbation, rng=0)
        return ControlEnv(system, perturbation=perturbation, rng=0)

    env, vec = build(), build().vectorized(1)
    actions = np.random.default_rng(8).uniform(
        env.action_space.low, env.action_space.high, size=(env.horizon, env.action_dim)
    )
    np.testing.assert_array_equal(env.reset(), vec.reset()[0])
    for steps, action in enumerate(actions, start=1):
        observation, reward, done, info = env.step(action)
        observations, rewards, dones, vec_info = vec.step(action[None, :])
        assert type(reward) is float and reward == rewards[0]
        assert done == dones[0] and info["safe"] == vec_info["safe"][0]
        assert info["steps"] == steps
        np.testing.assert_array_equal(info["control"], vec_info["controls"][0])
        np.testing.assert_array_equal(info["true_state"], vec_info["next_states"][0])
        if done:
            break
        np.testing.assert_array_equal(observation, observations[0])
    assert steps > 1


def test_scalar_env_does_not_auto_reset():
    system = make_system("vanderpol")
    env = ControlEnv(system, horizon=2, rng=0)
    env.reset(initial_state=np.zeros(2))
    env.step([0.0])
    observation, _reward, done, info = env.step([0.0])
    assert done and info["steps"] == 2
    np.testing.assert_array_equal(observation, info["true_state"])
    _observation, _reward, _done, info = env.step([0.0])
    assert info["steps"] == 3


class TestNeitherFormRaises:
    def test_controller(self):
        class Bare(Controller):
            pass

        with pytest.raises(NotImplementedError, match="batch_control"):
            Bare()(np.zeros(2))
        with pytest.raises(NotImplementedError, match="batch_control"):
            Bare().batch_control(np.zeros((3, 2)))

    def test_disturbance_model(self):
        class Bare(DisturbanceModel):
            pass

        with pytest.raises(NotImplementedError, match="sample_batch"):
            Bare().sample(np.random.default_rng(0))
        with pytest.raises(NotImplementedError, match="sample_batch"):
            Bare().sample_batch(np.random.default_rng(0), count=2)


class TestScalarOnlyFormsStillWork:
    def test_controller_row_loop(self):
        class Doubling(Controller):
            def control(self, state):
                return 2.0 * np.asarray(state)[:1]

        states = np.arange(6.0).reshape(3, 2)
        np.testing.assert_array_equal(Doubling().batch_control(states), [[0.0], [4.0], [8.0]])

    def test_batch_only_controller(self):
        gain = LinearStateFeedback([[1.0, 2.0]])
        np.testing.assert_array_equal(gain(np.array([1.0, 1.0])), [-3.0])

    def test_disturbance_row_loop(self):
        class Box(DisturbanceModel):
            def sample(self, rng=None):
                return UniformDisturbance([0.1, 0.2]).sample(rng)

        scalar_rng, batch_rng = np.random.default_rng(9), np.random.default_rng(9)
        draws = Box().sample_batch(batch_rng, count=4)
        expected = [UniformDisturbance([0.1, 0.2]).sample(scalar_rng) for _ in range(4)]
        np.testing.assert_array_equal(draws, expected)


#: Table I's ``L`` of every default expert, pinned to the last bit.
TABLE_I_LIPSCHITZ = {
    ("3d", "kappa1"): 10.292036560309079,
    ("3d", "kappa2"): 0.980994427252635,
    ("acc", "kappa1"): 6.95409437821641,
    ("acc", "kappa2"): 1.220620716445481,
    ("cartpole", "kappa1"): 74.57318362885763,
    ("cartpole", "kappa2"): 18.172781845386247,
    ("pendulum", "kappa1"): 18.236381722367412,
    ("pendulum", "kappa2"): 12.257650672131263,
    ("vanderpol", "kappa1"): 10.48525909128184,
    ("vanderpol", "kappa2"): 0.7211102550927978,
}


@pytest.mark.parametrize("scenario", sorted({scenario for scenario, _ in TABLE_I_LIPSCHITZ}))
def test_table_one_lipschitz_pins(scenario):
    system = make_system(scenario)
    for expert in make_default_experts(system):
        assert controller_lipschitz(expert, system) == TABLE_I_LIPSCHITZ[(scenario, expert.name)]
