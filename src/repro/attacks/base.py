"""The shared shape of every batched perturbation.

A perturbation writes its formula once, in ``perturb_batch`` over an
``(N, state_dim)`` batch of measurements; perturbing one state is its
batch-of-one.  The probabilistic attackers also share one copy of the
per-row attack mask.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class BatchPerturbation:
    """Base class: ``__call__`` is the batch-of-one of :meth:`perturb_batch`."""

    def perturb_batch(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, state: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.perturb_batch(np.reshape(state, (1, -1)), rng)[0]


def attack_rows(
    states: np.ndarray,
    rng: np.random.Generator,
    probability: float,
    attack: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Apply ``attack`` to each row of ``states`` with the given probability.

    One uniform draw per row decides which rows are attacked; with
    ``probability = 1`` every row is attacked and nothing is drawn.
    """

    if probability < 1.0:
        attacked = rng.uniform(size=len(states)) <= probability
        if not np.any(attacked):
            return states
        result = states.copy()
        result[attacked] = attack(states[attacked])
        return result
    return attack(states)
