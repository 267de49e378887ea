"""Tests for the partition-refined Bernstein surrogate."""

import numpy as np
import pytest

from repro.nn.network import MLP
from repro.systems.sets import Box
from repro.verification.partition import partition_network


@pytest.fixture
def small_network():
    return MLP(2, 1, hidden_sizes=(8, 8), activation="tanh", seed=0)


@pytest.fixture
def domain():
    return Box([-2, -2], [2, 2])


class TestPartitioning:
    def test_partitions_cover_domain(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=0.5, degree=3)
        total_volume = sum(box.volume() for box in approx.boxes)
        assert total_volume == pytest.approx(domain.volume(), rel=1e-9)
        for box in approx.boxes:
            assert domain.contains_box(box, tolerance=1e-9)

    def test_every_partition_meets_error_target(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=0.5, degree=3, max_partitions=4096)
        assert approx.max_error <= 0.5 + 1e-9

    def test_tighter_target_needs_more_partitions(self, small_network, domain):
        loose = partition_network(small_network, domain, target_error=2.0, degree=3)
        tight = partition_network(small_network, domain, target_error=0.25, degree=3)
        assert tight.num_partitions > loose.num_partitions

    def test_larger_lipschitz_needs_more_partitions(self, domain):
        """The mechanism behind the paper's verification-time claim."""

        small = MLP(2, 1, hidden_sizes=(8, 8), seed=0)
        large = MLP(2, 1, hidden_sizes=(8, 8), seed=0)
        for layer in large.linear_layers():
            layer.weight.data *= 2.0
        small_partitions = partition_network(small, domain, target_error=0.5, degree=3).num_partitions
        large_partitions = partition_network(large, domain, target_error=0.5, degree=3).num_partitions
        assert large_partitions > small_partitions

    def test_max_partitions_respected(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=1e-4, degree=2, max_partitions=32)
        assert approx.num_partitions <= 32

    def test_invalid_arguments(self, small_network, domain):
        with pytest.raises(ValueError):
            partition_network(small_network, domain, target_error=0.0)
        with pytest.raises(ValueError):
            partition_network(small_network, domain, target_error=0.5, max_partitions=0)

    def test_total_coefficients_positive(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=1.0, degree=2)
        assert approx.total_coefficients() >= approx.num_partitions * 9  # (2+1)^2 per partition


class TestPiecewiseEvaluation:
    def test_locate_and_evaluate(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=0.5, degree=3)
        rng = np.random.default_rng(0)
        for point in domain.sample(rng, count=40):
            index = approx.locate(point)
            assert approx.boxes[index].contains(point, tolerance=1e-9)
            surrogate = approx.evaluate(point)[0]
            actual = small_network.predict(point)[0]
            assert abs(surrogate - actual) <= approx.max_error + 1e-6

    def test_locate_outside_domain_raises(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=1.0, degree=2)
        with pytest.raises(ValueError):
            approx.locate([10.0, 10.0])

    def test_control_bounds_enclose_network_outputs(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=0.5, degree=3)
        query = Box([-0.4, -0.3], [0.6, 0.9])
        bounds = approx.control_bounds(query)
        outputs = small_network.predict(query.sample(np.random.default_rng(1), count=300))
        assert np.all(outputs >= bounds.lower - 1e-9)
        assert np.all(outputs <= bounds.upper + 1e-9)

    def test_control_bounds_outside_domain_raises(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=1.0, degree=2)
        with pytest.raises(ValueError):
            approx.control_bounds(Box([10, 10], [11, 11]))

    def test_smaller_query_box_gives_tighter_bounds(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=0.5, degree=3)
        wide = approx.control_bounds(Box([-1, -1], [1, 1]), include_error=False)
        narrow = approx.control_bounds(Box([-0.1, -0.1], [0.1, 0.1]), include_error=False)
        assert np.all(narrow.width <= wide.width + 1e-9)


class TestWeightSnapshot:
    """The approximation describes the weights it was partitioned from.

    Its Lipschitz constant, error bound and refined-IBP memo are taken at
    partition time, so Bernstein refits and fresh IBP must read those same
    weights even when the caller writes the network in place afterwards.
    """

    def _queries(self):
        centres = np.random.default_rng(0).uniform(-1.7, 1.7, size=(100, 2))
        return centres - 0.3, centres + 0.3

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_enclosures_survive_an_in_place_weight_write(self, seed, domain):
        network = MLP(2, 1, hidden_sizes=(16, 16), seed=seed)
        approx = partition_network(network, domain, target_error=0.5, degree=2, max_partitions=64)
        lows, highs = self._queries()
        before = approx.control_bounds_batch(lows[:50], highs[:50])
        for parameter in network.parameters():
            parameter.data *= 10
        after = approx.control_bounds_batch(lows, highs)  # fresh overlaps, refits and IBP
        again = approx.control_bounds_batch(lows[:50], highs[:50])  # memo and cache hits
        for bound in range(2):
            assert after[bound][:50].tobytes() == before[bound].tobytes()
            assert again[bound].tobytes() == before[bound].tobytes()
        reference = partition_network(
            MLP(2, 1, hidden_sizes=(16, 16), seed=seed),
            domain,
            target_error=0.5,
            degree=2,
            max_partitions=64,
        ).control_bounds_batch(lows, highs)
        for bound in range(2):
            assert after[bound].tobytes() == reference[bound].tobytes()

    def test_snapshot_is_read_only(self, small_network, domain):
        approx = partition_network(small_network, domain, target_error=0.5, degree=2)
        assert approx.network is not small_network
        for parameter in approx.network.parameters():
            with pytest.raises(ValueError):
                parameter.data *= 10
        small_network.linear_layers()[0].weight.data *= 10  # the caller's network stays writable
