"""Gym-style environment wrappers around a :class:`repro.systems.ControlSystem`.

Two environments implement the MDP of Section III-A -- the observation is
the (possibly perturbed) plant state, the episode terminates on a safety
violation or after ``T`` steps, and the reward combines a large negative
punishment for leaving the safe region with a monotonically-decreasing
function of the applied control energy:

* :class:`ControlEnv` -- the scalar environment (``reset() -> obs``,
  ``step(a) -> (obs, r, done, info)``), stepping one plant state at a time.
* :class:`VecControlEnv` -- ``N`` simultaneous copies of the same MDP
  advanced in lockstep, with per-environment auto-reset: a member whose
  episode ends is immediately re-seeded from ``X0`` and its fresh
  observation returned in the same step.  With ``num_envs = 1`` the random
  stream consumption and every emitted array are bit-identical to the
  scalar environment driven by the historical collection loop.

Both compute a transition with one method, :meth:`ControlEnv.transition`, on
the plant's batched primitives (``clip_control_batch``/``step_batch``/
``is_safe_batch``) and :meth:`RewardFunction.batch`; the scalar environment
runs it on one row.  The action-to-control map is the environment's
``action_to_control_batch`` hook when it defines one (the adaptive-mixing
environment does, Eq. (4)); environments that only override the per-row
:meth:`ControlEnv.action_to_control` hook run it row by row.

The same scalar wrapper trains the DDPG experts (action = control input),
while the adaptive-mixing and switching environments in
:mod:`repro.core.mixing` and :mod:`repro.baselines.switching` subclass it
and override :meth:`ControlEnv.action_to_control`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.rl.spaces import BoxSpace
from repro.systems.base import ControlSystem
from repro.systems.simulation import PerturbationFn, _perturbation_batch
from repro.utils.seeding import RngLike, get_rng


@dataclass
class RewardFunction:
    """The paper's reward: punishment on violation, energy cost otherwise.

    ``r(s, a) = R_pun`` when the next state is unsafe, otherwise
    ``h(||u||_1)`` with ``h`` monotonically decreasing.  We use
    ``h(x) = survival_bonus - energy_weight * x - state_weight * ||s||_2^2``;
    the state term is optional (zero by default so the default matches the
    paper exactly) but useful when training experts from scratch, which the
    paper obtains with off-the-shelf DDPG.
    """

    punishment: float = -100.0
    energy_weight: float = 0.05
    survival_bonus: float = 1.0
    state_weight: float = 0.0

    def batch(
        self, states: np.ndarray, controls: np.ndarray, next_states: np.ndarray, safe: np.ndarray
    ) -> np.ndarray:
        """The reward of each row of ``(N, ...)`` transition batches, shape ``(N,)``."""

        energy = np.sum(np.abs(np.atleast_2d(controls)), axis=1)
        if self.state_weight:
            state_cost = np.sum(np.atleast_2d(next_states) ** 2, axis=1)
        else:
            state_cost = np.zeros_like(energy)
        rewards = self.survival_bonus - self.energy_weight * energy - self.state_weight * state_cost
        return np.where(np.asarray(safe, dtype=bool), rewards, float(self.punishment))


def _observe(
    perturbation: Optional[PerturbationFn], states: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """What the agent sees of an ``(N, state_dim)`` batch of true states."""

    if perturbation is None:
        return states.copy()
    return _perturbation_batch(perturbation, states, rng)


class ControlEnv:
    """Minimal gym-like API: ``reset() -> obs`` and ``step(a) -> (obs, r, done, info)``."""

    def __init__(
        self,
        system: ControlSystem,
        reward: Optional[RewardFunction] = None,
        horizon: Optional[int] = None,
        perturbation: Optional[PerturbationFn] = None,
        rng: RngLike = None,
    ):
        self.system = system
        self.reward = reward if reward is not None else RewardFunction()
        self.horizon = int(horizon) if horizon is not None else system.horizon
        self.perturbation = perturbation
        self._rng = get_rng(rng)
        self._state: Optional[np.ndarray] = None
        self._steps = 0
        self.observation_space = BoxSpace(system.safe_region.low, system.safe_region.high)
        self.action_space = self.build_action_space()

    # -- hooks ---------------------------------------------------------------
    def build_action_space(self) -> BoxSpace:
        """Default: the agent outputs the raw control input."""

        return BoxSpace(self.system.control_bound.low, self.system.control_bound.high)

    def action_to_control(self, action: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Map the agent's action to the control applied to the plant."""

        return np.atleast_1d(np.asarray(action, dtype=np.float64))

    def actions_to_controls(self, actions: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Map ``(N, action_dim)`` agent actions to raw plant controls.

        Uses the ``action_to_control_batch`` hook when the environment
        defines one, and otherwise loops the per-row
        :meth:`action_to_control` hook -- so any scalar subclass vectorizes
        correctly out of the box.
        """

        batch = getattr(self, "action_to_control_batch", None)
        if batch is not None:
            return np.atleast_2d(np.asarray(batch(actions, states), dtype=np.float64))
        return np.stack(
            [
                np.atleast_1d(self.action_to_control(action, state))
                for action, state in zip(np.atleast_2d(actions), states)
            ],
            axis=0,
        )

    def transition(
        self, states: np.ndarray, actions: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The MDP transition of an ``(N, ...)`` batch of states and actions.

        Returns the applied (clipped) ``controls``, the true
        ``next_states``, the per-row ``safe`` mask and the ``rewards``.
        """

        controls = self.system.clip_control_batch(self.actions_to_controls(actions, states))
        next_states = self.system.step_batch(states, controls, rng=rng)
        safe = self.system.is_safe_batch(next_states)
        return controls, next_states, safe, self.reward.batch(states, controls, next_states, safe)

    # -- gym API ----------------------------------------------------------------
    def seed(self, seed: int) -> None:
        self._rng = get_rng(seed)

    def reset(self, initial_state: Optional[np.ndarray] = None) -> np.ndarray:
        if initial_state is None:
            initial_state = self.system.sample_initial_state(self._rng)
        self._state = np.asarray(initial_state, dtype=np.float64).copy()
        self._steps = 0
        return _observe(self.perturbation, self._state[None, :], self._rng)[0]

    def step(self, action: np.ndarray) -> Tuple[np.ndarray, float, bool, dict]:
        """One transition: :meth:`transition` on one row.

        There is no auto-reset: after ``done`` the caller resets.
        """

        if self._state is None:
            raise RuntimeError("step() called before reset()")
        actions = np.asarray(action, dtype=np.float64).reshape(1, -1)
        controls, next_states, safe, rewards = self.transition(self._state[None, :], actions, self._rng)
        self._steps += 1
        next_state = next_states[0]
        done = (not safe[0]) or self._steps >= self.horizon
        self._state = next_state
        info = {
            "safe": bool(safe[0]),
            "control": controls[0],
            "steps": self._steps,
            "true_state": next_state.copy(),
        }
        observation = _observe(self.perturbation, next_states, self._rng)[0]
        return observation, float(rewards[0]), bool(done), info

    def vectorized(self, num_envs: int) -> "VecControlEnv":
        """Build the ``N``-environment lockstep version of this environment.

        The vectorised environment shares this environment's random
        generator and its :meth:`actions_to_controls` map, so with
        ``num_envs = 1`` it consumes the stream exactly like this one.
        """

        return VecControlEnv(self, num_envs)

    @property
    def state_dim(self) -> int:
        return self.system.state_dim

    @property
    def action_dim(self) -> int:
        return self.action_space.dimension


class VecControlEnv:
    """``N`` lockstep copies of a :class:`ControlEnv` MDP on one plant.

    The plant object is stateless (the environment owns the state), so one
    system instance serves all ``N`` members: ``step`` performs one batched
    control mapping, one batched clip, one batched plant update and one
    batched safety check per call.  Members whose episode ends (violation
    or horizon) are auto-reset: their ``done`` flag is reported and the
    observation returned for them is the fresh initial observation, which
    is what an on-policy collection loop needs.

    API: ``reset() -> (N, state_dim)`` and ``step(actions (N, action_dim))
    -> (observations, rewards, dones, info)`` with ``(N,)`` reward/done
    vectors; ``info`` carries the batched ``controls``, per-member ``safe``
    flags and the true ``next_states`` (pre-reset).

    With ``num_envs = 1`` every random draw (initial state, perturbation,
    disturbance) happens in the same order and with the same shapes as the
    scalar environment driven by the historical per-step loop, so seeded
    results agree bit for bit; with ``N > 1`` the stream is consumed
    step-major (like :func:`repro.systems.simulation.rollout_batch`) and
    individual members differ from sequential scalar episodes on
    stochastic plants -- statistically equivalent, not bitwise.
    """

    def __init__(self, template: ControlEnv, num_envs: int):
        if num_envs <= 0:
            raise ValueError("num_envs must be positive")
        self.template = template
        self.num_envs = int(num_envs)
        self.system = template.system
        self.reward = template.reward
        self.horizon = template.horizon
        self.perturbation = template.perturbation
        self._rng = template._rng
        self.observation_space = template.observation_space
        self.action_space = template.action_space
        self._states: Optional[np.ndarray] = None
        self._steps = np.zeros(self.num_envs, dtype=int)

    # -- vectorized gym API ----------------------------------------------------
    def seed(self, seed: int) -> None:
        self._rng = get_rng(seed)

    def _sample_initial_states(self, count: int) -> np.ndarray:
        return np.atleast_2d(self.system.initial_set.sample(self._rng, count=count))

    def reset(self, initial_states: Optional[np.ndarray] = None) -> np.ndarray:
        if initial_states is None:
            initial_states = self._sample_initial_states(self.num_envs)
        states = np.atleast_2d(np.asarray(initial_states, dtype=np.float64)).copy()
        if states.shape != (self.num_envs, self.system.state_dim):
            raise ValueError(
                f"initial_states have shape {states.shape}, "
                f"expected ({self.num_envs}, {self.system.state_dim})"
            )
        self._states = states
        self._steps = np.zeros(self.num_envs, dtype=int)
        return _observe(self.perturbation, self._states, self._rng)

    def step(self, actions: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
        if self._states is None:
            raise RuntimeError("step() called before reset()")
        states = self._states
        actions = np.asarray(actions, dtype=np.float64)
        if actions.ndim <= 1:
            # One scalar action per member (e.g. a categorical policy's
            # ``(N,)`` vector) -- a column, never a single ``(1, N)`` row.
            actions = actions.reshape(self.num_envs, -1)
        if len(actions) != self.num_envs:
            raise ValueError(
                f"actions have shape {actions.shape}, expected ({self.num_envs}, action_dim)"
            )
        controls, next_states, safe, rewards = self.template.transition(states, actions, self._rng)
        self._steps += 1
        dones = (~safe) | (self._steps >= self.horizon)

        observations = _observe(self.perturbation, next_states, self._rng)
        info = {
            "safe": safe,
            "controls": controls,
            "steps": self._steps.copy(),
            "next_states": next_states.copy(),
        }

        self._states = next_states.copy()
        done_index = np.flatnonzero(dones)
        if done_index.size:
            fresh = self._sample_initial_states(done_index.size)
            self._states[done_index] = fresh
            self._steps[done_index] = 0
            observations[done_index] = _observe(self.perturbation, fresh, self._rng)
        return observations, rewards, dones, info

    @property
    def state_dim(self) -> int:
        return self.system.state_dim

    @property
    def action_dim(self) -> int:
        return self.action_space.dimension

