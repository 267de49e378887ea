"""Projected gradient descent (PGD) attack: iterated FGSM.

Table II uses single-step FGSM; PGD (Madry et al.) is its standard stronger
multi-step variant and is used by the robustness stress-test ablation to
check that the robust student's advantage survives a stronger adversary.
Each step ascends the same objective as :mod:`repro.attacks.fgsm` (push the
control output as far as possible) and re-projects onto the ``Delta`` box
around the true state.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.attacks.base import BatchPerturbation, attack_rows
from repro.attacks.fgsm import ControllerLike, _control_change_gradient_batch
from repro.utils.seeding import get_rng


def pgd_perturbation(
    controller: ControllerLike,
    state: np.ndarray,
    bound: Union[float, Sequence[float]],
    steps: int = 5,
    step_size_fraction: float = 0.5,
) -> np.ndarray:
    """Multi-step projected gradient attack around ``state``.

    ``step_size_fraction`` scales each ascent step relative to the bound;
    the iterate is projected back into ``[state - bound, state + bound]``
    after every step so the final perturbation respects ``Delta``.  A
    single-row wrapper over :func:`pgd_perturbation_batch`.
    """

    state = np.asarray(state, dtype=np.float64)
    return pgd_perturbation_batch(
        controller,
        state[None, :],
        bound,
        steps=steps,
        step_size_fraction=step_size_fraction,
    )[0]


def pgd_perturbation_batch(
    controller: ControllerLike,
    states: np.ndarray,
    bound: Union[float, Sequence[float]],
    steps: int = 5,
    step_size_fraction: float = 0.5,
) -> np.ndarray:
    """Row-wise :func:`pgd_perturbation` for an ``(N, state_dim)`` batch."""

    if steps <= 0:
        raise ValueError("steps must be positive")
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    bound = np.atleast_1d(np.asarray(bound, dtype=np.float64))
    step_size = step_size_fraction * bound
    current = states.copy()
    for _ in range(steps):
        gradient = _control_change_gradient_batch(controller, current)
        sign = np.sign(gradient)
        sign[sign == 0.0] = 1.0
        current = current + step_size * sign
        current = np.clip(current, states - bound, states + bound)
    return current


class PGDAttack(BatchPerturbation):
    """Evaluation-time PGD attacker usable as a rollout perturbation."""

    def __init__(
        self,
        controller: ControllerLike,
        bound: Union[float, Sequence[float]],
        steps: int = 5,
        step_size_fraction: float = 0.5,
        probability: float = 1.0,
    ):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if steps <= 0:
            raise ValueError("steps must be positive")
        self.controller = controller
        self.bound = np.atleast_1d(np.asarray(bound, dtype=np.float64))
        self.steps = int(steps)
        self.step_size_fraction = float(step_size_fraction)
        self.probability = float(probability)

    def perturb_batch(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Attack an ``(N, state_dim)`` batch of measurements at one time step."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        return attack_rows(
            states,
            get_rng(rng),
            self.probability,
            lambda rows: pgd_perturbation_batch(
                self.controller,
                rows,
                self.bound,
                steps=self.steps,
                step_size_fraction=self.step_size_fraction,
            ),
        )
