"""Tests for the vectorized environment (VecControlEnv).

The scalar/vectorized equivalence at ``num_envs = 1`` is pinned bit-for-bit
against the frozen legacy loops in ``tests/test_training_determinism.py``;
this file covers the vectorized mechanics themselves: lockstep shapes,
per-environment auto-reset, horizon bookkeeping, the per-row fallback for
scalar subclasses, the batched Eq. (4) hook of the adaptive-mixing
environment and the batched reward function.  The deleted scalar reward and
vectorised mixing environment survive below as verbatim references.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mixing import AdaptiveMixingEnv
from repro.experts import make_default_experts
from repro.rl.env import ControlEnv, RewardFunction, VecControlEnv
from repro.systems import make_system
from repro.systems.simulation import weighted_expert_controls


# ---------------------------------------------------------------------------
# Reference implementations: verbatim copies of deleted scalar/twin code.
# ---------------------------------------------------------------------------


def legacy_reward(reward, state, control, next_state, safe):
    """The deleted scalar ``RewardFunction.__call__`` body."""

    if not safe:
        return float(reward.punishment)
    energy = float(np.sum(np.abs(control)))
    state_cost = float(np.sum(np.asarray(next_state) ** 2)) if reward.state_weight else 0.0
    return float(reward.survival_bonus - reward.energy_weight * energy - reward.state_weight * state_cost)


def legacy_action_to_control(env, action, state):
    """The deleted scalar ``AdaptiveMixingEnv.action_to_control`` loop."""

    weights = np.clip(np.atleast_1d(action), -env.weight_bounds, env.weight_bounds)
    control = np.zeros(env.system.control_dim)
    for weight, expert in zip(weights, env.experts):
        control = control + weight * np.atleast_1d(expert(state))
    return env.system.clip_control(control)


def legacy_vec_mixing_controls(experts, weight_bounds, system, actions, states):
    """The deleted ``VecMixingEnv.actions_to_controls`` body."""

    weights = np.clip(np.atleast_2d(actions), -weight_bounds, weight_bounds)
    return weighted_expert_controls(experts, weights, states, system.control_dim)


@pytest.fixture
def vanderpol_vec():
    system = make_system("vanderpol")
    env = ControlEnv(system, rng=0)
    return env, env.vectorized(4)


class TestRewardFunctionBatch:
    def test_rows_match_scalar_calls_bitwise(self):
        reward = RewardFunction(punishment=-50.0, energy_weight=0.1, state_weight=0.01)
        rng = np.random.default_rng(0)
        states = rng.normal(size=(16, 3))
        controls = rng.normal(size=(16, 2))
        next_states = rng.normal(size=(16, 3))
        safe = rng.uniform(size=16) < 0.5
        batched = reward.batch(states, controls, next_states, safe)
        for index in range(16):
            assert batched[index] == legacy_reward(
                reward, states[index], controls[index], next_states[index], bool(safe[index])
            )

    def test_zero_state_weight_skips_state_cost(self):
        reward = RewardFunction(state_weight=0.0)
        batched = reward.batch(
            np.ones((2, 2)), np.zeros((2, 1)), np.full((2, 2), 1e6), np.array([True, True])
        )
        np.testing.assert_array_equal(batched, [reward.survival_bonus] * 2)


class TestVecControlEnv:
    def test_reset_and_step_shapes(self, vanderpol_vec):
        env, vec = vanderpol_vec
        observations = vec.reset()
        assert observations.shape == (4, env.state_dim)
        actions = np.zeros((4, env.action_dim))
        observations, rewards, dones, info = vec.step(actions)
        assert observations.shape == (4, env.state_dim)
        assert rewards.shape == dones.shape == (4,)
        assert info["controls"].shape == (4, env.action_dim)
        assert info["next_states"].shape == (4, env.state_dim)

    def test_step_before_reset_raises(self, vanderpol_vec):
        _env, vec = vanderpol_vec
        with pytest.raises(RuntimeError):
            vec.step(np.zeros((4, 1)))

    def test_invalid_num_envs_rejected(self):
        env = ControlEnv(make_system("vanderpol"), rng=0)
        with pytest.raises(ValueError):
            env.vectorized(0)

    def test_horizon_triggers_done_and_auto_reset(self):
        system = make_system("vanderpol")
        env = ControlEnv(system, horizon=3, rng=0)
        vec = env.vectorized(2)
        vec.reset(initial_states=np.zeros((2, 2)))
        for step in range(3):
            _obs, _rewards, dones, info = vec.step(np.zeros((2, 1)))
            if step < 2:
                assert not np.any(dones)
                np.testing.assert_array_equal(info["steps"], step + 1)
            else:
                assert np.all(dones)
        # Auto-reset: internal step counters are back at zero, so the next
        # step does not terminate on the horizon again.
        _obs, _rewards, dones, info = vec.step(np.zeros((2, 1)))
        np.testing.assert_array_equal(info["steps"], 1)
        assert not np.any(dones)

    def test_unsafe_members_reset_individually(self):
        system = make_system("vanderpol")
        env = ControlEnv(system, rng=0)
        vec = env.vectorized(3)
        # Member 1 starts on the safe-region boundary's far outside: first
        # dynamics step keeps it far outside X -> done for that member only.
        edge = system.safe_region.high * 0.99
        initial = np.stack([np.zeros(2), edge, np.zeros(2)])
        vec.reset(initial_states=initial)
        # Push member 1 outward with the maximal control.
        actions = np.stack([[0.0], [system.control_bound.high[0]], [0.0]])
        for _ in range(system.horizon):
            _obs, rewards, dones, info = vec.step(actions)
            if dones[1]:
                break
        assert dones[1] and not dones[0] and not dones[2]
        assert rewards[1] == env.reward.punishment
        # The auto-reset member restarted inside the initial set.
        assert system.initial_set.contains(vec._states[1])

    def test_discrete_action_vector_maps_one_action_per_member(self):
        """Regression: a categorical policy's ``(N,)`` action vector must be
        treated as one action per member, not transposed into a single
        ``(1, N)`` batch row (which silently broadcast member 0's control
        to every environment)."""

        from repro.baselines.switching import SwitchingEnv

        system = make_system("vanderpol")
        experts = make_default_experts(system)
        env = SwitchingEnv(system, experts, rng=0)
        vec = env.vectorized(4)
        states = system.initial_set.sample(np.random.default_rng(2), count=4)
        vec.reset(initial_states=states)
        actions = np.array([0, 1, 0, 1])  # alternate the selected expert
        _obs, _rewards, _dones, info = vec.step(actions)
        assert info["controls"].shape == (4, system.control_dim)
        for index, action in enumerate(actions):
            expected = system.clip_control(env.action_to_control(action, states[index]))
            np.testing.assert_allclose(info["controls"][index], expected)
        # Members given different experts at the same step must not all
        # receive member 0's control.
        assert not np.allclose(info["controls"][0], info["controls"][1])

    def test_wrong_action_row_count_rejected(self, vanderpol_vec):
        _env, vec = vanderpol_vec
        vec.reset()
        with pytest.raises(ValueError):
            vec.step(np.zeros((3, 1)))

    def test_per_row_fallback_for_scalar_subclass(self):
        class DoublingEnv(ControlEnv):
            def action_to_control(self, action, state):
                return 2.0 * np.atleast_1d(action)

        system = make_system("vanderpol")
        env = DoublingEnv(system, rng=0)
        vec = env.vectorized(3)
        vec.reset(initial_states=np.zeros((3, 2)))
        actions = np.array([[0.1], [0.2], [0.3]])
        _obs, _rewards, _dones, info = vec.step(actions)
        np.testing.assert_allclose(info["controls"], 2.0 * actions)


class TestVecMixingEnv:
    """The adaptive-mixing MDP vectorizes through its batched Eq. (4) hook."""

    def test_adaptive_mixing_env_vectorizes_through_batch_hook(self):
        system = make_system("vanderpol")
        experts = make_default_experts(system)
        env = AdaptiveMixingEnv(system, experts, rng=0)
        vec = env.vectorized(5)
        assert type(vec) is VecControlEnv
        assert vec.template is env and vec.num_envs == 5

    def test_batch_hook_matches_deleted_vec_mixing_env_bitwise(self):
        system = make_system("vanderpol")
        experts = make_default_experts(system)
        env = AdaptiveMixingEnv(system, experts, rng=0)
        rng = np.random.default_rng(1)
        states = system.safe_region.sample(rng, count=6)
        actions = rng.uniform(-2.0, 2.0, size=(6, len(experts)))
        expected = legacy_vec_mixing_controls(experts, env.weight_bounds, system, actions, states)
        np.testing.assert_array_equal(env.actions_to_controls(actions, states), expected)

        vec = env.vectorized(6)
        vec.reset(initial_states=states)
        _obs, _rewards, _dones, info = vec.step(actions)
        np.testing.assert_array_equal(info["controls"], system.clip_control_batch(expected))

    def test_batched_controls_match_scalar_hook_rows(self):
        system = make_system("vanderpol")
        experts = make_default_experts(system)
        env = AdaptiveMixingEnv(system, experts, rng=0)
        rng = np.random.default_rng(1)
        states = system.safe_region.sample(rng, count=6)
        actions = rng.uniform(-1.0, 1.0, size=(6, len(experts)))
        batched = system.clip_control_batch(env.actions_to_controls(actions, states))
        for index in range(6):
            legacy = legacy_action_to_control(env, actions[index], states[index])
            # The scalar hook is the batch-of-one: bit-identical to the
            # deleted loop.  Wider batches may differ in the last bit.
            np.testing.assert_array_equal(env.action_to_control(actions[index], states[index]), legacy)
            np.testing.assert_allclose(batched[index], legacy, rtol=1e-12, atol=1e-12)

    def test_requires_two_experts(self):
        system = make_system("vanderpol")
        experts = make_default_experts(system)
        with pytest.raises(ValueError):
            AdaptiveMixingEnv(system, experts[:1], rng=0)

    def test_weight_bound_validation(self):
        system = make_system("vanderpol")
        experts = make_default_experts(system)
        with pytest.raises(ValueError):
            AdaptiveMixingEnv(system, experts, weight_bound=[1.5, 1.5, 1.5], rng=0)
