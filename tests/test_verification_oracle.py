"""Oracle pack pinning the batched verification engine to the scalar flow.

Verification has a single engine: frontier-batched partitioning, stacked
Bernstein/IBP enclosures and vectorised invariant-set images.  Its
soundness argument is that it computes exactly what the historical
one-box-at-a-time flow computes -- a FIFO queue of boxes, one
:class:`BernsteinApproximation` per partition, one overlap at a time, one
grid cell at a time -- only faster.

This module freezes that scalar flow as private ``_reference_*`` copies
(the same pattern as ``tests/test_kernel_differential.py``) built only on
the public single-box API, and asserts the engine reproduces it **bit for
bit** on every registered scenario: partitions, refinement steps,
coefficients, ``max_error``, ``total_coefficients``, control bounds, reach
tubes and work, invariant masks, work-budget exhaustion, verification
reports and sweep reports.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

import numpy as np
import pytest

from repro.autodiff import Tensor, functional
from repro.experts.lqr import LQRController
from repro.nn.lipschitz import network_lipschitz
from repro.nn.network import MLP
from repro.nn.optim import Adam
from repro.scenarios import list_scenarios
from repro.systems import make_system
from repro.systems.sets import Box
from repro.verification.bernstein import BernsteinApproximation, bernstein_error_bound
from repro.verification.intervals import Interval, refined_network_output_bounds
from repro.verification.invariant import compute_invariant_set
from repro.verification.partition import partition_network
from repro.verification.reachability import reachable_sets
from repro.verification.sweep import SweepJob, VerificationSweep
from repro.verification.system_models import interval_dynamics
from repro.verification.verifier import verify_controller

# ----------------------------------------------------------------------
# Frozen reference implementations (verbatim copies of the scalar flow --
# do not modify; they are the contract the batched engine must reproduce).
# ----------------------------------------------------------------------


class _ReferencePartition:
    """The scalar engine's partition: one Box and one fit per partition."""

    def __init__(self, network, domain, boxes, models, lipschitz_constant, refinement_steps):
        self.network = network
        self.domain = domain
        self.boxes = boxes
        self.models = models
        self.lipschitz_constant = lipschitz_constant
        self.refinement_steps = refinement_steps
        self._lows = np.stack([partition.low for partition in boxes], axis=0)
        self._highs = np.stack([partition.high for partition in boxes], axis=0)

    @property
    def num_partitions(self):
        return len(self.boxes)

    @property
    def max_error(self):
        return max(model.error_bound() for model in self.models)

    def total_coefficients(self):
        return sum(model.num_coefficients() for model in self.models)

    def _overlapping_indices(self, box):
        mask = np.all(self._lows <= box.high[None, :], axis=-1) & np.all(
            box.low[None, :] <= self._highs, axis=-1
        )
        return np.nonzero(mask)[0]

    def control_bounds(self, box, include_error=True):
        splits = 4 if self.domain.dimension <= 2 else 2
        enclosure: Optional[Interval] = None
        for index in self._overlapping_indices(box):
            partition_box = self.boxes[index]
            model = self.models[index]
            overlap = partition_box.intersection(box)
            if overlap is None:
                continue
            local = BernsteinApproximation(
                self.network,
                overlap,
                degrees=model.degrees,
                lipschitz_constant=self.lipschitz_constant,
            )
            bounds = local.range_enclosure(include_error=include_error)
            ibp = refined_network_output_bounds(self.network, overlap, splits_per_dim=splits)
            lower = np.maximum(bounds.lower, ibp.lower)
            upper = np.minimum(bounds.upper, ibp.upper)
            tightened = Interval(np.minimum(lower, upper), upper)
            enclosure = tightened if enclosure is None else enclosure.hull(tightened)
        if enclosure is None:
            raise ValueError("query box does not intersect the partitioned domain")
        return enclosure


def _reference_partition_network(
    network, domain, target_error, degree=3, max_partitions=4096, lipschitz_constant=None
):
    if lipschitz_constant is None:
        lipschitz_constant = network_lipschitz(network)
    degrees = np.full(domain.dimension, int(degree), dtype=int)
    pending: deque = deque([domain])
    accepted: List[Box] = []
    refinements = 0
    while pending:
        box = pending.popleft()
        error = bernstein_error_bound(lipschitz_constant, box, degrees)
        if error <= target_error or (len(accepted) + len(pending) + 2) > max_partitions:
            accepted.append(box)
            continue
        first, second = box.split()
        pending.extend([first, second])
        refinements += 1
    models = [
        BernsteinApproximation(network, box, degrees=degrees, lipschitz_constant=lipschitz_constant)
        for box in accepted
    ]
    return _ReferencePartition(network, domain, accepted, models, lipschitz_constant, refinements)


def _reference_reachable_sets(system, approximation, initial_box, steps, work_budget=None):
    disturbance_box = system.disturbance.bound()
    epsilon = approximation.max_error
    boxes = [initial_box]
    current = initial_box
    work = 0
    status = "verified"
    for step in range(steps):
        if not system.safe_region.contains_box(current, tolerance=1e-9):
            status = "unsafe"
            break
        clipped_query = system.safe_region.intersection(current) or current
        control_bounds = approximation.control_bounds(clipped_query)
        work += approximation.total_coefficients()
        if work_budget is not None and work > work_budget:
            status = "resource-exhausted"
            break
        control = control_bounds.clip(system.control_bound.low, system.control_bound.high)
        next_interval = interval_dynamics(
            system, Interval.from_box(current), control, Interval.from_box(disturbance_box)
        )
        current = next_interval.to_box()
        boxes.append(current)
    else:
        step = steps - 1
        if not system.safe_region.contains_box(current, tolerance=1e-9):
            status = "unsafe"
    return dict(
        boxes=boxes,
        status=status,
        steps_completed=min(step + 1, steps),
        work=work,
        num_partitions=approximation.num_partitions,
        approximation_error=epsilon,
    )


def _reference_cell_index_ranges(domain, box, resolution):
    ranges = []
    for axis in range(domain.dimension):
        width = (domain.high[axis] - domain.low[axis]) / resolution
        if box.low[axis] < domain.low[axis] - 1e-9 or box.high[axis] > domain.high[axis] + 1e-9:
            return None
        first = int(np.floor((box.low[axis] - domain.low[axis]) / width))
        last = int(np.ceil((box.high[axis] - domain.low[axis]) / width)) - 1
        first = int(np.clip(first, 0, resolution - 1))
        last = int(np.clip(last, 0, resolution - 1))
        ranges.append((first, last))
    return ranges


def _reference_compute_invariant_set(system, approximation, grid_resolution, max_iterations=200):
    domain = system.safe_region
    epsilon = approximation.max_error
    disturbance_interval = Interval.from_box(system.disturbance.bound())
    cells = domain.subdivide(grid_resolution)
    num_cells = len(cells)
    alive = np.ones(num_cells, dtype=bool)
    shape = tuple([grid_resolution] * domain.dimension)
    work = 0
    images = []
    for cell in cells:
        control = approximation.control_bounds(cell).clip(
            system.control_bound.low, system.control_bound.high
        )
        work += 1
        image = interval_dynamics(system, Interval.from_box(cell), control, disturbance_interval)
        images.append(_reference_cell_index_ranges(domain, image.to_box(), grid_resolution))
    alive_grid = alive.reshape(shape)
    iterations = 0
    changed = True
    while changed and iterations < max_iterations:
        changed = False
        iterations += 1
        flat_alive = alive_grid.reshape(-1)
        for index in range(num_cells):
            if not flat_alive[index]:
                continue
            ranges = images[index]
            if ranges is None:
                flat_alive[index] = False
                changed = True
                continue
            slices = tuple(slice(first, last + 1) for first, last in ranges)
            if not bool(np.all(alive_grid[slices])):
                flat_alive[index] = False
                changed = True
        alive_grid = flat_alive.reshape(shape)
    mask = alive_grid.reshape(-1).copy()
    total = sum(cell.volume() for cell in cells)
    inside = sum(cell.volume() for cell, keep in zip(cells, mask) if keep)
    return dict(
        invariant_mask=mask,
        iterations=iterations,
        work=work,
        num_partitions=approximation.num_partitions,
        approximation_error=epsilon,
        volume_fraction=inside / total if total > 0 else 0.0,
    )


def _reference_verify_summary(
    system,
    network,
    name="controller",
    target_error=0.5,
    degree=3,
    max_partitions=2048,
    reach_initial_box=None,
    reach_steps=15,
    reach_work_budget=None,
    invariant_grid=None,
):
    """The timing-free keys of ``VerificationReport.summary()``, scalar flow."""

    lipschitz_constant = network_lipschitz(network)
    approximation = _reference_partition_network(
        network,
        system.safe_region,
        target_error=target_error,
        degree=degree,
        max_partitions=max_partitions,
        lipschitz_constant=lipschitz_constant,
    )
    verdicts = []
    summary = {
        "controller": name,
        "lipschitz": lipschitz_constant,
        "partitions": approximation.num_partitions,
        "epsilon": approximation.max_error,
    }
    if reach_initial_box is not None:
        reach = _reference_reachable_sets(
            system, approximation, reach_initial_box, reach_steps, work_budget=reach_work_budget
        )
        verdicts.append(reach["status"] == "verified")
        summary.update(
            reach_status=reach["status"], reach_work=reach["work"], reach_steps=reach["steps_completed"]
        )
    if invariant_grid is not None:
        invariant = _reference_compute_invariant_set(system, approximation, invariant_grid)
        verdicts.append(invariant["volume_fraction"] > 0.0)
        summary.update(
            invariant_fraction=invariant["volume_fraction"], invariant_work=invariant["work"]
        )
    summary["verified"] = bool(verdicts) and all(verdicts)
    return summary


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

SCENARIOS = list_scenarios()

#: Invariant grid per state dimension: fine in 2-D, coarse where the cell
#: count grows geometrically.
INVARIANT_GRID = {2: 10, 3: 4, 4: 3}


def assert_bit_identical(actual, expected, label):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype, f"{label}: dtype drifted"
    assert actual.shape == expected.shape, f"{label}: shape drifted"
    assert actual.tobytes() == expected.tobytes(), f"{label}: results are not bit-identical"


def seeded_controller(system, seed=0, scale=0.7):
    """A deterministic small MLP with moderate Lipschitz constant."""

    network = MLP(system.state_dim, system.control_dim, hidden_sizes=(16, 16), seed=seed)
    for layer in network.linear_layers():
        layer.weight.data *= scale
    return network


def reach_box(system):
    return Box(
        system.initial_set.center - 0.05 * system.initial_set.widths,
        system.initial_set.center + 0.05 * system.initial_set.widths,
    )


def assert_reach_identical(result, reference):
    assert result.status == reference["status"]
    assert result.steps_completed == reference["steps_completed"]
    assert result.work == reference["work"]
    assert result.num_partitions == reference["num_partitions"]
    assert result.approximation_error == reference["approximation_error"]
    assert len(result.boxes) == len(reference["boxes"])
    for step, (box, expected) in enumerate(zip(result.boxes, reference["boxes"])):
        assert_bit_identical(box.low, expected.low, f"reach step {step} low")
        assert_bit_identical(box.high, expected.high, f"reach step {step} high")


# ----------------------------------------------------------------------
# Every registered scenario against the oracle
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", SCENARIOS)
class TestScenarioOracle:
    def test_partition_matches_oracle(self, name):
        system = make_system(name)
        network = seeded_controller(system)
        live = partition_network(network, system.safe_region, target_error=0.4, degree=2)
        reference = _reference_partition_network(network, system.safe_region, target_error=0.4, degree=2)
        assert live.num_partitions == reference.num_partitions
        assert live.refinement_steps == reference.refinement_steps
        assert live.max_error == reference.max_error
        assert live.total_coefficients() == reference.total_coefficients()
        assert_bit_identical(live.lows, np.stack([box.low for box in reference.boxes]), "lows")
        assert_bit_identical(live.highs, np.stack([box.high for box in reference.boxes]), "highs")
        for index, model in enumerate(reference.models):
            assert_bit_identical(live.coefficients[index], model.coefficients, f"coefficients {index}")

    def test_control_bounds_match_oracle(self, name):
        system = make_system(name)
        network = seeded_controller(system)
        live = partition_network(network, system.safe_region, target_error=0.4, degree=2)
        reference = _reference_partition_network(network, system.safe_region, target_error=0.4, degree=2)
        rng = np.random.default_rng(7)
        region = system.safe_region
        lows = rng.uniform(region.low, region.center, size=(6, region.dimension))
        highs = np.minimum(lows + 0.3 * region.widths, region.high)
        for include_error in (True, False):
            lower, upper = live.control_bounds_batch(lows, highs, include_error=include_error)
            for index in range(lows.shape[0]):
                query = Box(lows[index], highs[index])
                expected = reference.control_bounds(query, include_error=include_error)
                single = live.control_bounds(query, include_error=include_error)
                assert_bit_identical(lower[index], expected.lower, f"query {index} lower")
                assert_bit_identical(upper[index], expected.upper, f"query {index} upper")
                assert_bit_identical(single.lower, expected.lower, f"query {index} single lower")
                assert_bit_identical(single.upper, expected.upper, f"query {index} single upper")

    def test_reach_tube_matches_oracle(self, name):
        system = make_system(name)
        network = seeded_controller(system)
        live = partition_network(network, system.safe_region, target_error=0.4, degree=2)
        reference = _reference_partition_network(network, system.safe_region, target_error=0.4, degree=2)
        result = reachable_sets(system, live, reach_box(system), steps=6)
        assert_reach_identical(result, _reference_reachable_sets(system, reference, reach_box(system), 6))

    def test_work_budget_exhaustion_matches_oracle(self, name):
        system = make_system(name)
        network = seeded_controller(system)
        live = partition_network(network, system.safe_region, target_error=0.2, degree=3, max_partitions=512)
        reference = _reference_partition_network(
            network, system.safe_region, target_error=0.2, degree=3, max_partitions=512
        )
        result = reachable_sets(system, live, reach_box(system), steps=10, work_budget=1)
        expected = _reference_reachable_sets(system, reference, reach_box(system), 10, work_budget=1)
        assert result.status == expected["status"] == "resource-exhausted"
        assert_reach_identical(result, expected)

    def test_invariant_mask_matches_oracle(self, name):
        system = make_system(name)
        network = seeded_controller(system)
        grid = INVARIANT_GRID[system.state_dim]
        live = compute_invariant_set(system, network, grid_resolution=grid, target_error=0.4, degree=2)
        reference = _reference_partition_network(network, system.safe_region, target_error=0.4, degree=2)
        expected = _reference_compute_invariant_set(system, reference, grid)
        assert_bit_identical(live.invariant_mask, expected["invariant_mask"], "invariant mask")
        assert live.iterations == expected["iterations"]
        assert live.work == expected["work"]
        assert live.num_partitions == expected["num_partitions"]
        assert live.approximation_error == expected["approximation_error"]
        assert live.volume_fraction() == expected["volume_fraction"]


def test_max_partitions_budget_matches_oracle():
    system = make_system("vanderpol")
    network = seeded_controller(system, scale=1.3)
    live = partition_network(network, system.safe_region, target_error=1e-3, degree=2, max_partitions=37)
    reference = _reference_partition_network(
        network, system.safe_region, target_error=1e-3, degree=2, max_partitions=37
    )
    assert live.num_partitions == reference.num_partitions <= 37
    assert live.refinement_steps == reference.refinement_steps
    assert_bit_identical(live.lows, np.stack([box.low for box in reference.boxes]), "lows")
    assert_bit_identical(live.highs, np.stack([box.high for box in reference.boxes]), "highs")


def test_verify_controller_report_matches_oracle():
    system = make_system("vanderpol")
    network = seeded_controller(system)
    parameters = dict(
        target_error=0.4,
        degree=2,
        reach_initial_box=Box([0.05, 0.05], [0.15, 0.15]),
        reach_steps=6,
        invariant_grid=8,
    )
    summary = verify_controller(system, network, **parameters).summary()
    expected = _reference_verify_summary(system, network, **parameters)
    for key, value in expected.items():
        assert summary[key] == value, key


# ----------------------------------------------------------------------
# The verification sweep: the 2-controller x 3-system sweep the retired
# scalar-vs-batched speed benchmark ran through both engines.
# ----------------------------------------------------------------------

#: Per-system analysis budgets: moderate partition counts, a short reach
#: horizon, and (on the cheap low-dimensional plants) an invariant grid.
SWEEP_CONFIG = {
    "vanderpol": dict(target_error=0.45, degree=3, reach_steps=10, invariant_grid=12),
    "3d": dict(target_error=0.45, degree=2, reach_steps=10, invariant_grid=6),
    "cartpole": dict(target_error=0.6, degree=2, reach_steps=8, invariant_grid=None),
}


def _distilled_student(system, seed=0, scale=1.0):
    """A small student regressed onto an LQR teacher (deterministic).

    ``scale > 1`` inflates the weights, raising the Lipschitz constant the
    way a non-robust distillation would -- the second controller of the
    sweep.
    """

    teacher = LQRController(system, control_cost=1.0)
    rng = np.random.default_rng(seed)
    states = system.safe_region.sample(rng, count=600)
    controls = teacher.batch_control(states)
    network = MLP(system.state_dim, system.control_dim, hidden_sizes=(12, 12), activation="tanh", seed=seed)
    optimizer = Adam(network.parameters(), lr=5e-3)
    for _ in range(150):
        optimizer.zero_grad()
        loss = functional.mse_loss(network(Tensor(states)), controls)
        loss.backward()
        optimizer.step()
    if scale != 1.0:
        for layer in network.linear_layers():
            layer.weight.data *= scale
    return network


@pytest.fixture(scope="module")
def sweep_jobs():
    jobs = []
    for name, config in SWEEP_CONFIG.items():
        system = make_system(name)
        for label, scale in (("robust", 1.0), ("direct", 1.35)):
            network = _distilled_student(system, seed=0, scale=scale)
            jobs.append(
                SweepJob.from_network(f"{label}@{name}", name, network, max_partitions=2048, **config)
            )
    return jobs


@pytest.fixture(scope="module")
def sweep_report(sweep_jobs):
    return VerificationSweep(sweep_jobs, processes=1).run()


def test_sweep_report_matches_oracle(sweep_jobs, sweep_report):
    for job, result in zip(sweep_jobs, sweep_report.results):
        assert result.status == "ok", result.error
        system = make_system(job.system)
        expected = _reference_verify_summary(
            system,
            job.build_network(),
            name=job.name,
            target_error=job.target_error,
            degree=job.degree,
            max_partitions=job.max_partitions,
            reach_initial_box=system.initial_set.scale(job.reach_box_scale),
            reach_steps=job.reach_steps,
            reach_work_budget=job.work_budget,
            invariant_grid=job.invariant_grid,
        )
        for key, value in expected.items():
            assert result.summary[key] == value, f"{job.name}: engine and oracle disagree on {key!r}"


def test_higher_lipschitz_verifies_slower(sweep_report):
    """The paper's mechanism: the inflated-weight controller needs at least
    as many partitions."""

    by_name = {result.name: result.summary for result in sweep_report.results}
    for name in SWEEP_CONFIG:
        assert by_name[f"direct@{name}"]["partitions"] >= by_name[f"robust@{name}"]["partitions"]
        assert by_name[f"direct@{name}"]["lipschitz"] > by_name[f"robust@{name}"]["lipschitz"]
