import math
import random
from bisect import bisect_right
from collections.abc import Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covert_setcover.epsnet import (
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

from oracles import naive_find_uncovered


def rows_missing(n, missing, n_rows, rng):
    """``n_rows`` increasing rows whose union is 1..n less ``missing``.

    Each other element lands in between one and ``n_rows`` of the rows.
    """
    rows = [[] for _ in range(n_rows)]
    for e in range(1, n + 1):
        if e not in missing:
            for r in rng.sample(range(n_rows), rng.randint(1, n_rows)):
                rows[r].append(e)
    return {s: tuple(row) for s, row in enumerate(rows, start=1)}


@st.composite
def coverage_cases(draw):
    """(candidate, contents, n): increasing rows over 1..n, often missing a window edge.

    The candidate may repeat sets, leave some out or be empty.
    """
    n = draw(st.sampled_from([1, 63, 64, 65, 256, 257, 1100]) | st.integers(1, 1100))
    # Both sides of find_uncovered's window edges 64 and 256, and the ends of 1..n.
    edges = [e for e in (1, 64, 65, 256, 257, n) if e <= n]
    missing = draw(st.sets(st.sampled_from(edges) | st.integers(1, n), max_size=3))
    n_rows = draw(st.integers(1, 5))
    contents = rows_missing(n, missing, n_rows, random.Random(draw(st.integers(0, 2**32))))
    candidate = draw(st.lists(st.sampled_from(sorted(contents)), max_size=8))
    if draw(st.booleans()):
        candidate += sorted(contents)
    return candidate, contents, n


class ReadRecorder(Sequence):
    """An increasing row that records every index read, by item or by slice."""

    def __init__(self, items):
        self.items = tuple(items)
        self.read = set()

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.read.update(range(len(self.items))[i])
        else:
            self.read.add(range(len(self.items))[i])
        return self.items[i]


class TestWeights:
    def test_doubling(self):
        # Element 3 is in sets 2 and 3: their weights double, set 1's is untouched.
        oracle = CovertOracle(build_set_system([[1], [2, 3], [3]], 3))
        weights = [1, 4, 2]
        reweight_on_miss(weights, 3, oracle)
        assert weights == [1, 8, 4]
        assert sum(weights) == 13

    def test_double_twice_is_times_four(self):
        oracle = CovertOracle(build_set_system([[1], [2], [3]], 3))
        weights = [1] * 3
        reweight_on_miss(weights, 2, oracle)
        reweight_on_miss(weights, 2, oracle)
        assert weights == [1, 4, 1]

    def test_reweight_on_miss(self):
        system = build_set_system([[1, 2], [3], [1]], 3)
        oracle = CovertOracle(system)
        weights = [1] * 3
        doubled = reweight_on_miss(weights, 1, oracle)
        assert doubled == (1, 3)
        assert weights == [2, 1, 2]
        assert oracle.ledger.hitting_queries == 1

    def test_reweight_on_orphan_element(self):
        system = build_set_system([[2]], 2)
        oracle = CovertOracle(system)
        with pytest.raises(UncoverableInstanceError) as err:
            reweight_on_miss([1], 1, oracle)
        assert err.value.element == 1

    def test_total_weight_strictly_increases_per_miss(self):
        system = build_set_system([[1, 2], [2, 3], [3]], 3)
        oracle = CovertOracle(system)
        weights = [1] * 3
        rng = random.Random(0)
        last = sum(weights)
        for _ in range(20):
            x = rng.randint(1, 3)
            before = list(weights)
            reweight_on_miss(weights, x, oracle)
            assert all(b <= a for b, a in zip(before, weights))
            assert sum(weights) > last
            last = sum(weights)


class TestNetSampling:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_weighted_net([1, 1], 0, random.Random(0))

    def test_large_sample_collects_both_sets(self):
        # Coupon collector: 50 draws over two unit weights miss a set with
        # probability 2^-49.
        for seed in range(5):
            picked = sample_weighted_net([1, 1], 50, random.Random(seed))
            assert picked == (1, 2)

    def test_heavy_weight_dominates(self):
        rng = random.Random(99)
        hits = sum(sample_weighted_net([2**20, 1], 1, rng) == (1,) for _ in range(10_000))
        assert hits >= 9990

    def test_distinct_sorted_output(self):
        picked = sample_weighted_net([1] * 4, 100, random.Random(1))
        assert picked == tuple(sorted(set(picked)))


def rows_of(candidate, contents):
    """The candidate's rows in candidate order, as the epsnet loop hands them over."""
    return [contents[s] for s in candidate]


class TestFindUncovered:
    def test_none_when_covering(self):
        assert find_uncovered([(1, 2), (3,)], 3) is None

    def test_smallest_missing(self):
        assert find_uncovered([(1, 2)], 3) == 3

    def test_empty_candidate(self):
        assert find_uncovered([], 3) == 1

    @pytest.mark.parametrize(
        "n, gap",
        [(1, 1), (1, None), (40, 1), (40, 40), (63, None), (64, 64), (64, None), (65, 64),
         (65, 65), (65, None), (300, 256), (300, 257), (257, 257), (1100, 1025),
         (1100, 1100), (4096, 4096), (4096, None)],
    )
    def test_gap_at_window_edges(self, n, gap):
        contents = rows_missing(n, {gap}, 3, random.Random(n))
        candidate = [2, 1, 3, 1]
        assert find_uncovered(rows_of(candidate, contents), n) == gap
        assert naive_find_uncovered(candidate, contents, n) == gap

    @settings(max_examples=150)
    @given(case=coverage_cases())
    @example(case=([], {}, 100))
    def test_matches_union_and_scan(self, case):
        candidate, contents, n = case
        assert find_uncovered(rows_of(candidate, contents), n) == naive_find_uncovered(
            candidate, contents, n
        )

    @pytest.mark.parametrize("gap, window_end, passes", [(10, 64, 1), (64, 64, 1),
                                                          (65, 256, 2), (256, 256, 2)])
    def test_reads_stop_at_the_gap_window(self, gap, window_end, passes):
        # Past the window that holds the gap, a row may be read only by the
        # binary search's probes, one search per window passed.
        rows = rows_missing(4096, {gap}, 5, random.Random(gap))
        recorders = [ReadRecorder(row) for row in rows.values()]
        assert find_uncovered(recorders, 4096) == gap
        for row in recorders:
            beyond = {i for i in row.read if i >= bisect_right(row.items, window_end)}
            assert len(beyond) <= passes * len(row).bit_length()


class TestRun:
    @pytest.mark.parametrize("name", ["alpha_net"])
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
