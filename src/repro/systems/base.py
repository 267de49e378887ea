"""Abstract discrete-time feedback control system.

Mirrors the problem formulation of Section II:

.. math::  s(t+1) = f(s(t), u(t), \\omega(t), \\delta(t))

with a safe region ``X``, an initial set ``X0 \\subseteq X``, a control bound
``U``, a bounded external disturbance ``\\omega`` and a bounded state
perturbation ``\\delta`` that models adversarial attacks or measurement
noise.  Controllers observe the (possibly perturbed) state and return a
control input which the plant clips to ``U``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.systems.disturbance import DisturbanceModel, NoDisturbance
from repro.systems.sets import Box
from repro.utils.seeding import RngLike, get_rng


class ControlSystem:
    """Base class for the paper's discrete-time plants.

    Sub-classes implement :meth:`dynamics_batch` -- the deterministic part of
    the state update given the applied (already clipped) controls and the
    sampled external disturbances, as NumPy array expressions over a batch
    -- and define the sets/box bounds in ``__init__``.  :meth:`dynamics` is
    its batch-of-one, so the scalar and batched updates cannot drift apart.
    A plant that only writes a scalar :meth:`dynamics` still works: the
    base :meth:`dynamics_batch` loops over rows.  The same rule holds one
    layer up: :meth:`step`, :meth:`clip_control` and :meth:`is_safe` are the
    batch-of-one of :meth:`step_batch`, :meth:`clip_control_batch` and
    :meth:`is_safe_batch`.

    Attributes
    ----------
    state_dim, control_dim:
        Dimensions of the state and control vectors.
    safe_region:
        ``X``: leaving it terminates the episode with the safety punishment.
    initial_set:
        ``X0``: where initial states are sampled from.
    control_bound:
        ``U``: applied controls are clipped to this box.
    disturbance:
        The external disturbance model ``omega``.
    horizon:
        Episode length ``T`` used in the paper's energy metric.
    name:
        Human-readable system name used in tables.
    """

    name = "system"

    def __init__(
        self,
        state_dim: int,
        control_dim: int,
        safe_region: Box,
        initial_set: Box,
        control_bound: Box,
        horizon: int,
        disturbance: Optional[DisturbanceModel] = None,
        dt: float = 0.05,
    ):
        if state_dim <= 0 or control_dim <= 0:
            raise ValueError("state and control dimensions must be positive")
        if safe_region.dimension != state_dim:
            raise ValueError("safe_region dimension does not match state_dim")
        if initial_set.dimension != state_dim:
            raise ValueError("initial_set dimension does not match state_dim")
        if control_bound.dimension != control_dim:
            raise ValueError("control_bound dimension does not match control_dim")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.state_dim = state_dim
        self.control_dim = control_dim
        self.safe_region = safe_region
        self.initial_set = initial_set
        self.control_bound = control_bound
        self.horizon = int(horizon)
        self.disturbance = disturbance if disturbance is not None else NoDisturbance(state_dim)
        self.dt = float(dt)

    # ------------------------------------------------------------------
    # Interface to implement
    # ------------------------------------------------------------------
    def dynamics(self, state: np.ndarray, control: np.ndarray, disturbance: np.ndarray) -> np.ndarray:
        """One-step deterministic state update (control already clipped).

        The batch-of-one of :meth:`dynamics_batch`, the same way
        :func:`~repro.systems.simulation.rollout` wraps ``rollout_batch``.
        """

        if type(self).dynamics_batch is ControlSystem.dynamics_batch:
            raise NotImplementedError(
                f"{type(self).__name__} must implement dynamics_batch (or dynamics)"
            )
        return self.dynamics_batch(state, control, disturbance)[0]

    def dynamics_batch(
        self, states: np.ndarray, controls: np.ndarray, disturbances: np.ndarray
    ) -> np.ndarray:
        """Vectorised state update over ``(N, state_dim)`` batches.

        Inputs are ``states (N, state_dim)``, ``controls (N, control_dim)``
        (already clipped) and ``disturbances (N, omega_dim)``; the result has
        shape ``(N, state_dim)``.  The registered plants override it with
        NumPy array expressions so the batched rollout engine runs at array
        speed; this default loops a plant's own scalar :meth:`dynamics` over
        the rows.
        """

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
        disturbances = np.atleast_2d(np.asarray(disturbances, dtype=np.float64))
        return np.stack(
            [
                self.dynamics(state, control, disturbance)
                for state, control, disturbance in zip(states, controls, disturbances)
            ],
            axis=0,
        )

    # ------------------------------------------------------------------
    # Common behaviour
    # ------------------------------------------------------------------
    def _control_row(self, control: Union[float, Sequence[float]]) -> np.ndarray:
        """One raw control command as a checked ``(1, control_dim)`` batch."""

        control = np.atleast_1d(np.asarray(control, dtype=np.float64))
        if control.size != self.control_dim:
            raise ValueError(
                f"control has dimension {control.size}, expected {self.control_dim}"
            )
        return control.reshape(1, -1)

    def clip_control(self, control: Union[float, Sequence[float]]) -> np.ndarray:
        """Clip a raw control command to the admissible box ``U``."""

        return self.clip_control_batch(self._control_row(control))[0]

    def step(
        self,
        state: Sequence[float],
        control: Sequence[float],
        rng: RngLike = None,
        disturbance: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance the plant by one sampling period.

        ``disturbance`` overrides random sampling when provided (used by the
        verification code, which enumerates disturbance extremes instead).
        The batch-of-one of :meth:`step_batch`.
        """

        state = np.asarray(state, dtype=np.float64)
        if state.shape != (self.state_dim,):
            raise ValueError(f"state has shape {state.shape}, expected ({self.state_dim},)")
        if disturbance is not None:
            disturbance = np.reshape(np.asarray(disturbance, dtype=np.float64), (1, -1))
        return self.step_batch(
            state[None, :], self._control_row(control), rng=rng, disturbances=disturbance
        )[0]

    def clip_control_batch(self, controls: np.ndarray) -> np.ndarray:
        """Clip a ``(N, control_dim)`` batch of raw commands to ``U``."""

        controls = np.atleast_2d(np.asarray(controls, dtype=np.float64))
        if controls.shape[-1] != self.control_dim:
            raise ValueError(
                f"controls have dimension {controls.shape[-1]}, expected {self.control_dim}"
            )
        return np.clip(controls, self.control_bound.low, self.control_bound.high)

    def step_batch(
        self,
        states: np.ndarray,
        controls: np.ndarray,
        rng: RngLike = None,
        disturbances: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Advance a ``(N, state_dim)`` batch of plants by one period.

        Controls are clipped, one disturbance is sampled per batch member
        (unless ``disturbances`` overrides the sampling) and
        :meth:`dynamics_batch` produces the next states.
        """

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if states.shape[-1] != self.state_dim:
            raise ValueError(f"states have shape {states.shape}, expected (N, {self.state_dim})")
        clipped = self.clip_control_batch(controls)
        if disturbances is None:
            disturbances = self.disturbance.sample_batch(get_rng(rng), count=len(states))
        disturbances = np.atleast_2d(np.asarray(disturbances, dtype=np.float64))
        return self.dynamics_batch(states, clipped, disturbances)

    def is_safe(self, state: Sequence[float]) -> bool:
        """Whether ``state`` lies inside the safe region ``X``."""

        return bool(self.is_safe_batch(np.reshape(state, (1, -1)))[0])

    def is_safe_batch(self, states: np.ndarray) -> np.ndarray:
        """Per-row safety mask for a ``(N, state_dim)`` batch of states."""

        return self.safe_region.contains_batch(states)

    def sample_initial_state(self, rng: RngLike = None) -> np.ndarray:
        return self.initial_set.sample(get_rng(rng))

    def state_scale(self) -> np.ndarray:
        """Half-width of the safe region, used to normalise perturbations.

        The paper expresses attack/noise magnitudes as a percentage of the
        "system state value bound"; this vector is that bound.
        """

        return np.maximum(np.abs(self.safe_region.low), np.abs(self.safe_region.high))

    def describe(self) -> dict:
        """A JSON-friendly description used in experiment records."""

        return {
            "name": self.name,
            "state_dim": self.state_dim,
            "control_dim": self.control_dim,
            "horizon": self.horizon,
            "dt": self.dt,
            "safe_region": [list(interval) for interval in self.safe_region],
            "initial_set": [list(interval) for interval in self.initial_set],
            "control_bound": [list(interval) for interval in self.control_bound],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(state_dim={self.state_dim}, control_dim={self.control_dim}, T={self.horizon})"
