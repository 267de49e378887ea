"""Each plant writes its update equation once, in ``dynamics_batch``.

``ControlSystem.dynamics`` is the batch-of-one of ``dynamics_batch``, so
the scalar update (used by LQR linearisation, MPC, the DDPG environment
and the adversary) and the batched one (used by rollouts and PPO) agree to
the last bit on every row.  A hand-written scalar copy does not: NumPy's
scalar ``np.float64 ** 2`` and the array ``square`` differ in the last bit
on a few van der Pol states.
"""

import numpy as np
import pytest

from repro.scenarios import list_scenarios
from repro.systems import make_system
from repro.systems.base import ControlSystem
from repro.systems.sets import Box

ROWS = 4096


@pytest.mark.parametrize("name", list_scenarios())
def test_scalar_dynamics_bytes_equal_batched_row(name):
    system = make_system(name)
    rng = np.random.default_rng(0)
    states = system.safe_region.sample(rng, count=ROWS)
    controls = system.control_bound.sample(rng, count=ROWS)
    disturbances = system.disturbance.sample_batch(rng, count=ROWS)
    batched = system.dynamics_batch(states, controls, disturbances)
    mismatched = [
        row
        for row in range(ROWS)
        if system.dynamics(states[row], controls[row], disturbances[row]).tobytes()
        != batched[row].tobytes()
    ]
    assert mismatched == []


class _Plant(ControlSystem):
    def __init__(self):
        super().__init__(
            state_dim=1,
            control_dim=1,
            safe_region=Box.symmetric(1.0, dimension=1),
            initial_set=Box.symmetric(0.5, dimension=1),
            control_bound=Box.symmetric(1.0, dimension=1),
            horizon=10,
        )


def test_plant_without_either_method_raises_not_implemented():
    plant = _Plant()
    with pytest.raises(NotImplementedError, match="dynamics_batch"):
        plant.dynamics(np.zeros(1), np.zeros(1), np.zeros(0))
    with pytest.raises(NotImplementedError, match="dynamics_batch"):
        plant.step_batch(np.zeros((3, 1)), np.zeros((3, 1)), rng=0)


def test_scalar_only_plant_batches_through_the_row_loop():
    class ScalarOnly(_Plant):
        def dynamics(self, state, control, disturbance):
            return state + self.dt * control

    plant = ScalarOnly()
    states = np.array([[0.1], [-0.2], [0.3]])
    controls = np.array([[1.0], [0.5], [-1.0]])
    np.testing.assert_array_equal(
        plant.step_batch(states, controls, rng=0), states + plant.dt * controls
    )
