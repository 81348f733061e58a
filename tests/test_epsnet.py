import math
import random

import pytest

from covert_setcover.epsnet import (
    WeightedFamily,
    find_uncovered,
    iteration_cap,
    net_size,
    reweight_on_miss,
    run_weighted_epsilon_net,
    sample_weighted_net,
)
from covert_setcover.errors import UncoverableInstanceError
from covert_setcover.generators import gen_set_system
from covert_setcover.oracle import CovertOracle
from covert_setcover.setsystem import build_set_system, verify_cover


class TestWeights:
    def test_doubling(self):
        family = WeightedFamily.unit(3)
        family.double([1, 3])
        assert family.weights == [2, 1, 2]
        assert sum(family.weights) == 5

    def test_double_twice_is_times_four(self):
        family = WeightedFamily.unit(3)
        family.double([2])
        family.double([2])
        assert family.weights[1] == 4

    def test_reweight_on_miss(self):
        system = build_set_system([[1, 2], [3], [1]], 3)
        oracle = CovertOracle(system)
        family = WeightedFamily.unit(3)
        doubled = reweight_on_miss(family, 1, oracle)
        assert doubled == (1, 3)
        assert family.weights == [2, 1, 2]
        assert oracle.ledger.hitting_queries == 1

    def test_reweight_on_orphan_element(self):
        system = build_set_system([[2]], 2)
        oracle = CovertOracle(system)
        with pytest.raises(UncoverableInstanceError) as err:
            reweight_on_miss(WeightedFamily.unit(1), 1, oracle)
        assert err.value.element == 1

    def test_total_weight_strictly_increases_per_miss(self):
        system = build_set_system([[1, 2], [2, 3], [3]], 3)
        oracle = CovertOracle(system)
        family = WeightedFamily.unit(3)
        rng = random.Random(0)
        last = sum(family.weights)
        for _ in range(20):
            x = rng.randint(1, 3)
            before = list(family.weights)
            reweight_on_miss(family, x, oracle)
            assert all(b <= a for b, a in zip(before, family.weights))
            assert sum(family.weights) > last
            last = sum(family.weights)


class TestNetSampling:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_weighted_net(WeightedFamily.unit(2), 0, random.Random(0))

    def test_large_sample_collects_both_sets(self):
        # Coupon collector: 50 draws over two unit weights miss a set with
        # probability 2^-49.
        for seed in range(5):
            picked = sample_weighted_net(WeightedFamily.unit(2), 50, random.Random(seed))
            assert picked == (1, 2)

    def test_heavy_weight_dominates(self):
        family = WeightedFamily(weights=[2**20, 1])
        rng = random.Random(99)
        hits = sum(sample_weighted_net(family, 1, rng) == (1,) for _ in range(10_000))
        assert hits >= 9990

    def test_distinct_sorted_output(self):
        family = WeightedFamily.unit(4)
        picked = sample_weighted_net(family, 100, random.Random(1))
        assert picked == tuple(sorted(set(picked)))


class TestFindUncovered:
    CONTENTS = {1: (1, 2), 2: (3,)}

    def test_none_when_covering(self):
        assert find_uncovered([1, 2], self.CONTENTS, 3) is None

    def test_smallest_missing(self):
        assert find_uncovered([1], self.CONTENTS, 3) == 3

    def test_empty_candidate(self):
        assert find_uncovered([], {}, 3) == 1


class TestRun:
    @pytest.mark.parametrize("name", ["alpha_net", "size_const", "cap_const"])
    @pytest.mark.parametrize("value", [0.0, -2.0, math.nan, math.inf])
    def test_constants_must_be_finite_and_positive(self, name, value):
        oracle = CovertOracle(build_set_system([[1, 2, 3]], 3))
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            run_weighted_epsilon_net(oracle, **{name: value})
        assert oracle.ledger.total == 0

    def test_single_universe_set(self):
        system = build_set_system([[1, 2, 3]], 3)
        result = run_weighted_epsilon_net(CovertOracle(system), rng_seed=0)
        assert result.cover.set_indices == (1,)
        assert not result.failed
        assert result.rounds[0].k == 1

    def test_seed_sweep_always_valid(self):
        for seed in range(50):
            system, _ = gen_set_system("planted-cover", n=16, m=8, seed=seed, k=3)
            result = run_weighted_epsilon_net(CovertOracle(system), rng_seed=seed)
            assert not result.failed
            assert verify_cover(system, result.cover)

    def test_iterations_respect_cap(self):
        for seed in range(30):
            system, _ = gen_set_system("planted-cover", n=16, m=8, seed=seed, k=2)
            result = run_weighted_epsilon_net(CovertOracle(system), rng_seed=seed)
            for trace in result.rounds:
                assert trace.iterations <= trace.iteration_cap
                assert trace.iteration_cap == iteration_cap(trace.k, 8, 4.0)

    def test_uncoverable_instance_fails_with_witness(self):
        system = build_set_system([[2, 3], [3]], 3)
        result = run_weighted_epsilon_net(CovertOracle(system), rng_seed=4)
        assert result.failed
        assert result.uncovered_element == 1

    def test_charges_candidate_contents_every_iteration(self):
        # Verification is a fresh set of queries per iteration: set-query
        # totals must exceed the number of distinct sets whenever more than
        # one iteration ran.
        system, _ = gen_set_system("planted-cover", n=64, m=16, seed=1, k=8)
        result = run_weighted_epsilon_net(CovertOracle(system), rng_seed=1)
        iterations = sum(t.iterations for t in result.rounds)
        if iterations > 1:
            assert result.ledger.set_queries > system.n_sets
        misses = sum(
            t.iterations - 1 if t.succeeded else t.iterations for t in result.rounds
        )
        assert result.ledger.hitting_queries == misses

    def test_deterministic(self):
        system, _ = gen_set_system("planted-cover", n=32, m=12, seed=8, k=4)
        a = run_weighted_epsilon_net(CovertOracle(system), rng_seed=2)
        b = run_weighted_epsilon_net(CovertOracle(system), rng_seed=2)
        assert a.cover == b.cover
        assert a.rounds == b.rounds
        assert a.ledger.to_json_dict() == b.ledger.to_json_dict()


class TestConstants:
    def test_net_size_floor(self):
        assert net_size(1, 1, 2.0, 4.0) == 1  # ln(1) = 0 still yields one draw
        assert net_size(2, 8, 2.0, 4.0) == 34

    def test_iteration_cap_formula(self):
        assert iteration_cap(1, 8, 4.0) == 14  # ceil(4 * log2(10))
