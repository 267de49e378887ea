"""Policy and value networks used by PPO and DDPG.

All networks are thin wrappers around :class:`repro.nn.MLP`:

* :class:`GaussianMLPPolicy` -- diagonal-Gaussian stochastic policy for PPO
  over continuous actions (the mixing weights of Section III-A).
* :class:`CategoricalMLPPolicy` -- softmax policy for PPO over a finite set
  of actions (the switching baseline A_S of [4]).
* :class:`DeterministicMLPPolicy` -- tanh-squashed deterministic actor used
  by DDPG (the expert controllers).
* :class:`ValueNetwork` / :class:`QNetwork` -- state-value and state-action
  critics.

Each array formula is written once, over ``(N, state_dim)`` batches; the
one-state calls (``act``, ``mean_action``, ``probabilities``, ``value``)
are its batch-of-one.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import Tensor, functional
from repro.nn.layers import Module
from repro.nn.network import MLP
from repro.utils.seeding import RngLike, get_rng


class GaussianMLPPolicy(Module):
    """Diagonal Gaussian policy: mean from an MLP, state-independent log std."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        action_low: Sequence[float],
        action_high: Sequence[float],
        hidden_sizes: Sequence[int] = (64, 64),
        activation: str = "tanh",
        init_log_std: float = -0.5,
        seed: Optional[int] = None,
    ):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.action_low = np.asarray(action_low, dtype=np.float64)
        self.action_high = np.asarray(action_high, dtype=np.float64)
        if self.action_low.shape != (action_dim,) or self.action_high.shape != (action_dim,):
            raise ValueError("action bounds must have shape (action_dim,)")
        self.mean_net = MLP(state_dim, action_dim, hidden_sizes, activation=activation, seed=seed)
        self.log_std = Tensor(np.full(action_dim, float(init_log_std)), requires_grad=True)

    # -- graph-building calls (training) ---------------------------------------
    def forward(self, states: Tensor) -> Tuple[Tensor, Tensor]:
        """Return ``(mean, log_std)`` with gradients attached."""

        mean = self.mean_net(states)
        return mean, self.log_std

    def log_prob(self, states: Tensor, actions: np.ndarray) -> Tensor:
        mean, log_std = self.forward(states)
        return functional.gaussian_log_prob(actions, mean, log_std)

    def entropy(self) -> Tensor:
        return functional.gaussian_entropy(self.log_std, self.action_dim)

    # -- array-only calls (rollouts) ---------------------------------------------
    def act(self, state: np.ndarray, rng: RngLike = None, deterministic: bool = False) -> Tuple[np.ndarray, float]:
        """Sample a clipped action and return it with its log probability.

        The batch-of-one of :meth:`act_batch`.
        """

        actions, log_probs = self.act_batch(np.reshape(state, (1, -1)), rng=rng, deterministic=deterministic)
        return actions[0], float(log_probs[0])

    def act_batch(
        self, states: np.ndarray, rng: RngLike = None, deterministic: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample one clipped action per row of ``states``.

        One ``(N, state_dim)`` forward pass and one ``(N, action_dim)``
        noise draw.  Returns ``(actions (N, action_dim), log_probs (N,))``.
        """

        generator = get_rng(rng)
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        mean = np.atleast_2d(self.mean_net.predict(states))
        std = np.exp(self.log_std.data)
        if deterministic:
            actions = mean
        else:
            actions = mean + std * generator.normal(size=(len(states), self.action_dim))
        log_probs = np.sum(
            -0.5 * ((actions - mean) / std) ** 2 - np.log(std) - 0.5 * np.log(2.0 * np.pi),
            axis=1,
        )
        return np.clip(actions, self.action_low, self.action_high), log_probs

    def mean_action(self, state: np.ndarray) -> np.ndarray:
        return self.mean_actions(np.reshape(state, (1, -1)))[0]

    def mean_actions(self, states: np.ndarray) -> np.ndarray:
        """Deterministic (mean) actions for an ``(N, state_dim)`` batch."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        means = np.atleast_2d(self.mean_net.predict(states))
        return np.clip(means, self.action_low, self.action_high)


class CategoricalMLPPolicy(Module):
    """Softmax policy over ``num_actions`` discrete choices (switching baseline)."""

    def __init__(
        self,
        state_dim: int,
        num_actions: int,
        hidden_sizes: Sequence[int] = (64, 64),
        activation: str = "tanh",
        seed: Optional[int] = None,
    ):
        if num_actions < 2:
            raise ValueError("a categorical policy needs at least two actions")
        self.state_dim = state_dim
        self.num_actions = num_actions
        self.logits_net = MLP(state_dim, num_actions, hidden_sizes, activation=activation, seed=seed)

    def forward(self, states: Tensor) -> Tensor:
        return self.logits_net(states)

    def log_prob(self, states: Tensor, actions: np.ndarray) -> Tensor:
        """Log probability of integer actions under the softmax distribution."""

        logits = self.forward(states)
        # log softmax = logits - logsumexp(logits)
        max_logits = Tensor(np.max(logits.data, axis=-1, keepdims=True))
        shifted = logits - max_logits
        log_norm = shifted.exp().sum(axis=-1, keepdims=True).log() + max_logits
        log_probs = logits - log_norm
        actions = np.asarray(actions, dtype=int).reshape(-1)
        rows = np.arange(len(actions))
        return log_probs[rows, actions]

    def act(self, state: np.ndarray, rng: RngLike = None, deterministic: bool = False) -> Tuple[int, float]:
        """The batch-of-one of :meth:`act_batch`."""

        actions, log_probs = self.act_batch(np.reshape(state, (1, -1)), rng=rng, deterministic=deterministic)
        return int(actions[0]), float(log_probs[0])

    def act_batch(
        self, states: np.ndarray, rng: RngLike = None, deterministic: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample one action per row of ``states``.

        Returns ``(actions (N,) int, log_probs (N,))``, with one ``choice``
        draw per row, in row order.
        """

        generator = get_rng(rng)
        probabilities = self._probabilities_batch(states)
        if deterministic:
            actions = np.argmax(probabilities, axis=1)
        else:
            actions = np.array(
                [int(generator.choice(self.num_actions, p=row)) for row in probabilities]
            )
        rows = np.arange(len(probabilities))
        log_probs = np.log(probabilities[rows, actions] + 1e-12)
        return actions, log_probs

    def probabilities(self, state: np.ndarray) -> np.ndarray:
        return self._probabilities_batch(np.reshape(state, (1, -1)))[0]

    def _probabilities_batch(self, states: np.ndarray) -> np.ndarray:
        """Softmax action probabilities for an ``(N, state_dim)`` batch."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        logits = np.atleast_2d(self.logits_net.predict(states))
        logits = logits - np.max(logits, axis=1, keepdims=True)
        probabilities = np.exp(logits)
        probabilities /= probabilities.sum(axis=1, keepdims=True)
        return probabilities


class DeterministicMLPPolicy(Module):
    """Tanh-squashed deterministic actor ``a = low + (tanh(f(s)) + 1)/2 * (high - low)``."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        action_low: Sequence[float],
        action_high: Sequence[float],
        hidden_sizes: Sequence[int] = (64, 64),
        activation: str = "relu",
        seed: Optional[int] = None,
    ):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.action_low = np.asarray(action_low, dtype=np.float64)
        self.action_high = np.asarray(action_high, dtype=np.float64)
        self.net = MLP(
            state_dim,
            action_dim,
            hidden_sizes,
            activation=activation,
            output_activation="tanh",
            seed=seed,
        )
        self._scale = (self.action_high - self.action_low) / 2.0
        self._offset = (self.action_high + self.action_low) / 2.0

    def forward(self, states: Tensor) -> Tensor:
        squashed = self.net(states)
        return squashed * Tensor(self._scale) + Tensor(self._offset)

    def act(self, state: np.ndarray, noise_scale: float = 0.0, rng: RngLike = None) -> np.ndarray:
        """The batch-of-one of :meth:`act_batch`."""

        return self.act_batch(np.reshape(state, (1, -1)), noise_scale=noise_scale, rng=rng)[0]

    def act_batch(self, states: np.ndarray, noise_scale: float = 0.0, rng: RngLike = None) -> np.ndarray:
        """Deterministic actions for an ``(N, state_dim)`` batch (optional
        exploration noise, one draw per row)."""

        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(self.net.predict(states)) * self._scale + self._offset
        if noise_scale > 0.0:
            actions = actions + noise_scale * self._scale * get_rng(rng).normal(
                size=(len(states), self.action_dim)
            )
        return np.clip(actions, self.action_low, self.action_high)


class ValueNetwork(Module):
    """State-value function V(s) for PPO."""

    def __init__(self, state_dim: int, hidden_sizes: Sequence[int] = (64, 64), activation: str = "tanh", seed: Optional[int] = None):
        self.net = MLP(state_dim, 1, hidden_sizes, activation=activation, seed=seed)

    def forward(self, states: Tensor) -> Tensor:
        return self.net(states)

    def value(self, state: np.ndarray) -> float:
        return float(self.values(np.reshape(state, (1, -1)))[0])

    def values(self, states: np.ndarray) -> np.ndarray:
        return self.net.predict(np.atleast_2d(np.asarray(states, dtype=np.float64)))[:, 0]


class QNetwork(Module):
    """State-action value function Q(s, a) for DDPG."""

    def __init__(
        self,
        state_dim: int,
        action_dim: int,
        hidden_sizes: Sequence[int] = (64, 64),
        activation: str = "relu",
        seed: Optional[int] = None,
    ):
        self.state_dim = state_dim
        self.action_dim = action_dim
        self.net = MLP(state_dim + action_dim, 1, hidden_sizes, activation=activation, seed=seed)

    def forward(self, states: Tensor, actions: Tensor) -> Tensor:
        joined = Tensor.concatenate([Tensor.ensure(states), Tensor.ensure(actions)], axis=-1)
        return self.net(joined)

    def q_values(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        joined = np.concatenate(
            [np.atleast_2d(np.asarray(states, dtype=np.float64)), np.atleast_2d(np.asarray(actions, dtype=np.float64))],
            axis=-1,
        )
        return self.net.predict(joined)[:, 0]
