"""Batch-of-one equivalence and invariants of the verification kernels.

The load-bearing guarantees, mirroring ``tests/test_systems_batch.py`` for
the rollout engine:

* the batched kernels (grids, coefficients, error bounds, enclosures, IBP)
  reproduce the single-box results **bit for bit** -- every network forward
  pass runs in fixed-width row blocks, so a box's numbers do not depend on
  how many boxes were batched with it;
* results always belong to the network's current weights, even after an
  in-place weight write;
* the sweep harness returns the same verdicts inline and across a pool,
  and enforces its per-job budgets.

End-to-end equivalence with the historical one-box-at-a-time flow lives in
the oracle pack, ``tests/test_verification_oracle.py``.
"""

import numpy as np
import pytest

from repro.nn.lipschitz import network_lipschitz
from repro.nn.network import MLP
from repro.systems import make_system
from repro.systems.sets import Box
from repro.verification.bernstein import (
    BernsteinApproximation,
    CoefficientCache,
    bernstein_coefficients_batch,
    bernstein_enclosure_batch,
    bernstein_error_bound,
    bernstein_error_bound_batch,
    bernstein_evaluate_batch,
    bernstein_grid_batch,
)
from repro.verification.intervals import (
    Interval,
    network_output_bounds,
    network_output_bounds_batch,
    refined_network_output_bounds,
    refined_network_output_bounds_batch,
)
from repro.verification.partition import partition_network
from repro.verification.sweep import SweepJob, VerificationSweep, run_sweep_job
from repro.verification.system_models import interval_dynamics, interval_dynamics_batch

SYSTEM_NAMES = ["vanderpol", "3d", "cartpole"]


def seeded_controller(system, seed=0, scale=0.7):
    """A deterministic small MLP with moderate Lipschitz constant."""

    network = MLP(system.state_dim, system.control_dim, hidden_sizes=(16, 16), seed=seed)
    for layer in network.linear_layers():
        layer.weight.data *= scale
    return network


def random_boxes(domain, count, rng):
    lows = rng.uniform(domain.low, domain.center, size=(count, domain.dimension))
    highs = np.minimum(lows + 0.3 * domain.widths, domain.high)
    return lows, highs


class TestBatchedKernels:
    """Row p of every batched kernel == the single-box computation, bitwise."""

    def setup_method(self):
        self.network = MLP(2, 1, hidden_sizes=(16, 16), seed=0)
        rng = np.random.default_rng(3)
        self.lows, self.highs = random_boxes(Box([-2, -2], [2, 2]), 9, rng)
        self.degrees = [3, 3]

    def test_grid_rows_match_single_box(self):
        grids = bernstein_grid_batch(self.lows, self.highs, self.degrees)
        for index in range(self.lows.shape[0]):
            single = bernstein_grid_batch(
                self.lows[index : index + 1], self.highs[index : index + 1], self.degrees
            )[0]
            np.testing.assert_array_equal(grids[index], single)

    def test_coefficient_rows_match_scalar_fit(self):
        stacked = bernstein_coefficients_batch(self.network, self.lows, self.highs, self.degrees)
        for index in range(self.lows.shape[0]):
            scalar = BernsteinApproximation(
                self.network, Box(self.lows[index], self.highs[index]), self.degrees
            )
            np.testing.assert_array_equal(stacked[index], scalar.coefficients)

    def test_error_bound_rows_match_scalar(self):
        lipschitz = 2.5
        batch = bernstein_error_bound_batch(lipschitz, self.lows, self.highs, self.degrees)
        for index in range(self.lows.shape[0]):
            scalar = bernstein_error_bound(
                lipschitz, Box(self.lows[index], self.highs[index]), self.degrees
            )
            assert batch[index] == scalar

    def test_enclosure_rows_match_scalar(self):
        stacked = bernstein_coefficients_batch(self.network, self.lows, self.highs, self.degrees)
        errors = bernstein_error_bound_batch(1.5, self.lows, self.highs, self.degrees)
        lower, upper = bernstein_enclosure_batch(stacked, errors)
        for index in range(self.lows.shape[0]):
            scalar = BernsteinApproximation(
                self.network,
                Box(self.lows[index], self.highs[index]),
                self.degrees,
                lipschitz_constant=1.5,
            ).range_enclosure(include_error=True)
            np.testing.assert_array_equal(lower[index], scalar.lower)
            np.testing.assert_array_equal(upper[index], scalar.upper)

    def test_evaluate_batch_matches_scalar(self):
        stacked = bernstein_coefficients_batch(self.network, self.lows, self.highs, self.degrees)
        points = (self.lows + self.highs) / 2.0
        values = bernstein_evaluate_batch(stacked, self.lows, self.highs, self.degrees, points)
        for index in range(self.lows.shape[0]):
            scalar = BernsteinApproximation(
                self.network, Box(self.lows[index], self.highs[index]), self.degrees
            ).evaluate(points[index])
            np.testing.assert_allclose(values[index], scalar, rtol=0, atol=1e-12)

    def test_ibp_rows_match_single_box(self):
        lower, upper = network_output_bounds_batch(self.network, self.lows, self.highs)
        for index in range(self.lows.shape[0]):
            scalar = network_output_bounds(self.network, Box(self.lows[index], self.highs[index]))
            np.testing.assert_array_equal(lower[index], scalar.lower)
            np.testing.assert_array_equal(upper[index], scalar.upper)

    def test_refined_ibp_rows_match_single_box(self):
        lower, upper = refined_network_output_bounds_batch(
            self.network, self.lows, self.highs, splits_per_dim=4
        )
        for index in range(self.lows.shape[0]):
            scalar = refined_network_output_bounds(
                self.network, Box(self.lows[index], self.highs[index]), splits_per_dim=4
            )
            np.testing.assert_array_equal(lower[index], scalar.lower)
            np.testing.assert_array_equal(upper[index], scalar.upper)

    def test_coefficient_cache_hits_and_reuse(self):
        cache = CoefficientCache(self.network)
        first = cache.get_batch(self.lows, self.highs, self.degrees)
        assert cache.misses == self.lows.shape[0] and cache.hits == 0
        again = cache.get_batch(self.lows, self.highs, self.degrees)
        assert cache.hits == self.lows.shape[0]
        np.testing.assert_array_equal(first, again)
        # A partial overlap fits only the new boxes.
        extra_lows = np.concatenate([self.lows[:3], self.lows[:3] + 0.01], axis=0)
        extra_highs = np.concatenate([self.highs[:3], self.highs[:3] + 0.01], axis=0)
        cache.get_batch(extra_lows, extra_highs, self.degrees)
        assert cache.misses == self.lows.shape[0] + 3

    def test_cache_eviction_bounds_memory(self):
        cache = CoefficientCache(self.network, max_entries=4)
        cache.get_batch(self.lows, self.highs, self.degrees)
        assert len(cache) == 4

    def test_cache_invalidated_by_weight_update(self):
        cache = CoefficientCache(self.network)
        before = cache.get_batch(self.lows, self.highs, self.degrees)
        for layer in self.network.linear_layers():
            layer.weight.data *= 1.5
        after = cache.get_batch(self.lows, self.highs, self.degrees)
        # The weight digest in the key must turn every lookup into a miss...
        assert cache.hits == 0 and cache.misses == 2 * self.lows.shape[0]
        # ...and the returned coefficients must belong to the new weights.
        expected = bernstein_coefficients_batch(self.network, self.lows, self.highs, self.degrees)
        np.testing.assert_array_equal(after, expected)
        assert not np.array_equal(before, after)

    def test_shared_cache_for_other_network_rejected(self):
        other = MLP(2, 1, hidden_sizes=(8,), seed=5)
        cache = CoefficientCache(other)
        with pytest.raises(ValueError):
            partition_network(
                self.network, Box([-1, -1], [1, 1]), target_error=1.0, degree=2, cache=cache
            )


class TestIntervalDynamicsBatch:
    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_rows_match_scalar_dynamics(self, name):
        system = make_system(name)
        rng = np.random.default_rng(0)
        lows = rng.uniform(system.safe_region.low, system.safe_region.center, size=(12, system.state_dim))
        highs = lows + 0.1 * system.safe_region.widths
        control_lows = np.tile(system.control_bound.low * 0.5, (12, 1))
        control_highs = np.tile(system.control_bound.high * 0.5, (12, 1))
        disturbance = Interval.from_box(system.disturbance.bound())
        batched = interval_dynamics_batch(
            system, Interval(lows, highs), Interval(control_lows, control_highs), disturbance
        )
        for row in range(12):
            scalar = interval_dynamics(
                system,
                Interval(lows[row], highs[row]),
                Interval(control_lows[row], control_highs[row]),
                disturbance,
            )
            np.testing.assert_array_equal(batched.lower[row], scalar.lower)
            np.testing.assert_array_equal(batched.upper[row], scalar.upper)


class TestInPlaceWeightWrites:
    """No verification result may belong to weights other than the current ones.

    The optimizers rebind ``parameter.data``, but nothing stops a caller
    from writing the weights in place; every kernel must then agree with a
    freshly built network carrying the same weights.
    """

    def _queries(self, network, lows, highs):
        approximation = partition_network(
            network, Box([-2, -2], [2, 2]), target_error=0.5, degree=2, max_partitions=64
        )
        return {
            "ibp": network_output_bounds_batch(network, lows, highs),
            "refined_ibp": refined_network_output_bounds_batch(network, lows, highs, splits_per_dim=2),
            "coefficients": bernstein_coefficients_batch(network, lows, highs, [2, 2]),
            "lipschitz": network_lipschitz(network),
            "control_bounds": approximation.control_bounds_batch(lows, highs),
        }

    def test_results_follow_an_in_place_weight_write(self):
        network = MLP(2, 1, hidden_sizes=(16, 16), seed=0)
        lows, highs = random_boxes(Box([-2, -2], [2, 2]), 5, np.random.default_rng(4))
        before = self._queries(network, lows, highs)
        for parameter in network.parameters():
            parameter.data *= 10
        fresh = MLP(2, 1, hidden_sizes=(16, 16))
        fresh.load_state_dict(network.state_dict())
        after = self._queries(network, lows, highs)
        expected = self._queries(fresh, lows, highs)
        for name in expected:
            np.testing.assert_array_equal(after[name], expected[name], err_msg=name)
            assert not np.array_equal(after[name], before[name]), name


DETERMINISTIC_SUMMARY_KEYS = (
    "controller", "lipschitz", "partitions", "epsilon", "verified",
    "reach_status", "reach_work", "reach_steps",
)


class TestVerificationSweep:
    def _jobs(self):
        jobs = []
        for name in SYSTEM_NAMES:
            system = make_system(name)
            network = seeded_controller(system)
            jobs.append(
                SweepJob.from_network(
                    f"seeded@{name}", name, network, target_error=0.5, degree=2, reach_steps=4
                )
            )
        return jobs

    def test_jobs_roundtrip_through_pickling_boundary(self):
        job = self._jobs()[0]
        rebuilt = job.build_network()
        original = seeded_controller(make_system("vanderpol"))
        points = np.random.default_rng(0).uniform(-1, 1, size=(16, 2))
        np.testing.assert_array_equal(rebuilt.predict(points), original.predict(points))

    def test_inline_and_pool_agree(self):
        jobs = self._jobs()
        inline = VerificationSweep(jobs, processes=1).run()
        pooled = VerificationSweep(jobs, processes=2).run()
        assert [result.name for result in inline.results] == [result.name for result in pooled.results]
        for inline_result, pooled_result in zip(inline.results, pooled.results):
            assert inline_result.status == pooled_result.status == "ok"
            for key in DETERMINISTIC_SUMMARY_KEYS:
                assert inline_result.summary[key] == pooled_result.summary[key], key

    def test_failed_job_is_contained(self):
        wrong_dims = MLP(4, 1, hidden_sizes=(8,), seed=1)
        jobs = [SweepJob.from_network("bad@vanderpol", "vanderpol", wrong_dims, reach_steps=2)]
        report = VerificationSweep(jobs, processes=1).run()
        assert report.results[0].status == "error"
        assert report.num_failed == 1
        assert "Error" in report.results[0].error or "error" in report.results[0].error

    def test_failed_job_error_includes_the_job_spec(self):
        wrong_dims = MLP(4, 1, hidden_sizes=(8,), seed=1)
        jobs = [
            SweepJob.from_network(
                "bad@vanderpol", "vanderpol", wrong_dims, reach_steps=2, target_error=0.7
            )
        ]
        error = VerificationSweep(jobs, processes=1).run().results[0].error
        # The originating spec travels with the error so a sweep of hundreds
        # of jobs is diagnosable from the report alone.
        assert "job bad@vanderpol" in error
        assert "system=vanderpol" in error
        assert "target_error=0.7" in error
        assert "reach_steps=2" in error

    def test_time_budget_marks_resource_exhausted(self):
        system = make_system("vanderpol")
        job = SweepJob.from_network(
            "budget", "vanderpol", seeded_controller(system),
            target_error=0.5, degree=2, reach_steps=4, time_budget_seconds=1e-9,
        )
        result = run_sweep_job(job)
        assert result.status == "ok"
        assert result.summary["reach_status"] == "resource-exhausted"

    def test_work_budget_passes_through(self):
        system = make_system("vanderpol")
        job = SweepJob.from_network(
            "wbudget", "vanderpol", seeded_controller(system),
            target_error=0.3, degree=3, reach_steps=8, work_budget=1,
        )
        result = run_sweep_job(job)
        assert result.summary["reach_status"] == "resource-exhausted"

    def test_report_table_and_csv(self, tmp_path):
        report = VerificationSweep(self._jobs()[:1], processes=1).run()
        table = report.table()
        assert "seeded@vanderpol" in table and "wall clock" in table
        path = report.to_csv(tmp_path / "sweep.csv")
        content = path.read_text().splitlines()
        assert content[0].startswith("job,system,status")
        assert len(content) == 2
