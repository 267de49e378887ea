"""Reinforcement-learning substrate: PPO and DDPG implemented from scratch.

The paper trains (a) the expert neural controllers with DDPG under different
hyper-parameters and (b) the adaptive-mixing policy with PPO (Algorithm 1,
line 10; Remark 1 notes DDPG also works).  Neither PyTorch nor an RL library
is available offline, so this package implements both algorithms on top of
:mod:`repro.autodiff` / :mod:`repro.nn`.
"""

from repro.rl.spaces import BoxSpace, DiscreteSpace
from repro.rl.env import ControlEnv, RewardFunction, VecControlEnv
from repro.rl.buffers import ReplayBuffer, RolloutBuffer
from repro.rl.gae import compute_gae, compute_gae_batch, discounted_returns
from repro.rl.policies import (
    CategoricalMLPPolicy,
    DeterministicMLPPolicy,
    GaussianMLPPolicy,
    QNetwork,
    ValueNetwork,
)
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.ddpg import DDPGConfig, DDPGTrainer

__all__ = [
    "BoxSpace",
    "DiscreteSpace",
    "ControlEnv",
    "RewardFunction",
    "VecControlEnv",
    "RolloutBuffer",
    "ReplayBuffer",
    "compute_gae",
    "compute_gae_batch",
    "discounted_returns",
    "GaussianMLPPolicy",
    "CategoricalMLPPolicy",
    "DeterministicMLPPolicy",
    "ValueNetwork",
    "QNetwork",
    "PPOConfig",
    "PPOTrainer",
    "DDPGConfig",
    "DDPGTrainer",
]
