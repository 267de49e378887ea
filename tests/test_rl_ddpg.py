"""Tests for the DDPG trainer."""

import numpy as np
import pytest

from repro.nn.network import hard_update
from repro.rl.ddpg import DDPGConfig, DDPGTrainer
from repro.rl.env import ControlEnv, RewardFunction
from tests.test_rl_ppo import PointMassEnv


class TestDDPGConfig:
    def test_invalid_episodes(self):
        with pytest.raises(ValueError):
            DDPGConfig(episodes=0)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            DDPGConfig(gamma=0.0)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            DDPGConfig(tau=2.0)


class TestDDPGMechanics:
    def _trainer(self, **overrides):
        defaults = dict(
            episodes=2,
            batch_size=32,
            warmup_steps=20,
            hidden_sizes=(16, 16),
            buffer_capacity=5000,
            seed=0,
        )
        defaults.update(overrides)
        env = PointMassEnv(horizon=20, seed=0)
        return DDPGTrainer(env, config=DDPGConfig(**defaults), rng=0)

    def test_warmup_uses_random_actions(self):
        trainer = self._trainer()
        actions = [trainer.select_action(np.zeros(1), explore=True) for _ in range(10)]
        assert np.std([a[0] for a in actions]) > 0.0

    def test_exploit_action_is_deterministic(self):
        trainer = self._trainer()
        a = trainer.select_action(np.array([0.3]), explore=False)
        b = trainer.select_action(np.array([0.3]), explore=False)
        np.testing.assert_allclose(a, b)

    def test_update_without_enough_samples_is_noop(self):
        trainer = self._trainer()
        stats = trainer.update()
        assert stats == {"critic_loss": 0.0, "actor_loss": 0.0}

    def test_update_changes_networks_and_targets(self):
        trainer = self._trainer()
        rng = np.random.default_rng(0)
        for _ in range(100):
            state = rng.uniform(-1, 1, size=1)
            action = rng.uniform(-1, 1, size=1)
            trainer.buffer.add(state, action, -float(state[0] ** 2), state + 0.2 * action, False)
        actor_before = trainer.actor.net.state_dict()
        target_before = {k: v.copy() for k, v in trainer.target_actor.net.state_dict().items()}
        stats = trainer.update()
        assert np.isfinite(stats["critic_loss"]) and np.isfinite(stats["actor_loss"])
        actor_after = trainer.actor.net.state_dict()
        assert any(not np.allclose(actor_before[k], actor_after[k]) for k in actor_before)
        target_after = trainer.target_actor.net.state_dict()
        assert any(not np.allclose(target_before[k], target_after[k]) for k in target_before)

    def test_target_initialised_from_online_networks(self):
        trainer = self._trainer()
        point = np.array([0.2])
        np.testing.assert_allclose(
            trainer.target_actor.net.predict(point), trainer.actor.net.predict(point)
        )

    def test_train_logs_episodes_and_decays_noise(self):
        trainer = self._trainer(episodes=3)
        initial_noise = trainer._noise_scale
        logger = trainer.train()
        assert logger.epochs() == 3
        assert trainer._noise_scale < initial_noise

    def test_actions_respect_bounds_during_training(self):
        trainer = self._trainer(episodes=1)
        trainer.train()
        for _ in range(20):
            action = trainer.select_action(np.array([0.5]), explore=True)
            assert np.all(np.abs(action) <= 1.0 + 1e-9)


class TestDDPGLearning:
    def test_point_mass_improves(self):
        env = PointMassEnv(horizon=20, seed=2)
        config = DDPGConfig(
            episodes=25,
            batch_size=64,
            warmup_steps=100,
            actor_lr=1e-3,
            critic_lr=1e-3,
            exploration_noise=0.3,
            hidden_sizes=(32, 32),
            seed=2,
        )
        trainer = DDPGTrainer(env, config=config, rng=2)
        logger = trainer.train()
        returns = logger.series("episode_return")
        assert np.mean(returns[-5:]) > np.mean(returns[:5])

    def test_runs_on_vanderpol_control_env(self, vanderpol):
        env = ControlEnv(vanderpol, reward=RewardFunction(state_weight=1.0), horizon=25, rng=0)
        config = DDPGConfig(episodes=2, batch_size=32, warmup_steps=20, hidden_sizes=(16,), seed=0)
        trainer = DDPGTrainer(env, config=config, rng=0)
        logger = trainer.train()
        assert logger.epochs() == 2


class TestDDPGGolden:
    """DDPG is the one trainer that drives the scalar environment, the
    scalar deterministic policy and the scalar Eq. (4) hook; these digests
    pin its seeded actors to the bit."""

    @pytest.mark.parametrize(
        "mixing, steps, digest",
        [
            (False, 204, "2edc231a66115b5b973588b7f2949d77a20906f1a333dd92fc40b078e7b22690"),
            (True, 162, "bb85c09269f6c55812cf70bce69f933576b82681146c396ac36ae3f1f171f22a"),
        ],
        ids=["plain", "mixing"],
    )
    def test_seeded_actor_digest(self, mixing, steps, digest):
        from repro.core.mixing import AdaptiveMixingEnv
        from repro.experts import make_default_experts
        from repro.nn.lipschitz import network_weights_digest
        from repro.systems import make_system

        system = make_system("vanderpol")
        if mixing:
            env = AdaptiveMixingEnv(system, make_default_experts(system), rng=0)
        else:
            env = ControlEnv(system, rng=0)
        config = DDPGConfig(episodes=6, warmup_steps=32, batch_size=32, hidden_sizes=(16, 16), seed=0)
        trainer = DDPGTrainer(env, config=config, rng=0)
        trainer.train()
        assert trainer._total_steps == steps
        assert network_weights_digest(trainer.actor.net) == digest
