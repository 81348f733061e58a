import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covert_setcover.errors import UncoverableInstanceError
from covert_setcover.oracle import CovertOracle
from covert_setcover.pseudo_greedy import (
    base_case_explicit,
    draw_round_sample,
    run_pseudo_greedy,
    sample_probability,
    sequential_filter,
    shortlist_sets,
)
from covert_setcover.generators import gen_set_system
from covert_setcover.setsystem import build_set_system, greedy_cover, harmonic, verify_cover

from oracles import exhaustive_min_cover, full_info_cover_trace, naive_greedy
from strategies import coverable_families, families, random_system


class TestSampling:
    def test_clip_to_one_takes_everything(self):
        rng = random.Random(0)
        # s_i <= 4 * alpha * log2(N) forces p = 1
        sample = draw_round_sample(range(1, 21), 20.0, 8.0, 2**10, rng)
        assert sample == list(range(1, 21))

    def test_expected_size_within_three_sigma(self):
        # n_i = s_i = 1024, alpha = 8, N = 2^20: p = 640/1024, mean 640.
        p = sample_probability(1024.0, 8.0, 2**20)
        assert p == pytest.approx(0.625)
        rng = random.Random(123)
        trials = 10_000
        total = 0
        for _ in range(trials):
            total += sum(rng.random() < p for _ in range(1024))
        mean = total / trials
        sigma = math.sqrt(1024 * p * (1 - p) / trials)
        assert abs(mean - 640.0) <= 3 * sigma

    def test_deterministic_per_seed(self):
        a = draw_round_sample(range(1, 101), 100.0, 1.0, 2**10, random.Random(42))
        b = draw_round_sample(range(1, 101), 100.0, 1.0, 2**10, random.Random(42))
        assert a == b


class TestShortlist:
    def test_exact_counts_with_full_sample(self):
        # alpha * log2(N) = 2 with alpha = .5, N = 16: sets need 2 sampled hits.
        system = build_set_system([[1, 2, 3], [3], [4, 5]], 5)
        oracle = CovertOracle(system)
        shortlist, hits = shortlist_sets([1, 2, 3, 4, 5], oracle.hitting_query, 0.5, 16)
        assert shortlist == [1, 3]
        assert hits[1] == {1, 2, 3}
        assert oracle.ledger.hitting_queries == 5

    def test_empty_when_no_set_reaches_threshold(self):
        system = build_set_system([[1], [2]], 2)
        oracle = CovertOracle(system)
        shortlist, _ = shortlist_sets([1, 2], oracle.hitting_query, 8.0, 2**10)
        assert shortlist == []

    def test_large_set_caught_under_bernoulli_sampling(self):
        # A set holding s_i/2 of the population should essentially always
        # collect alpha*log2(N) samples (checked at scale in acceptance).
        rng = random.Random(5)
        alpha, n_total, s_i = 8.0, 2**20, 2**10
        threshold = alpha * math.log2(n_total)
        caught = 0
        trials = 300
        p = sample_probability(float(s_i), alpha, n_total)
        for _ in range(trials):
            hits = sum(1 for _ in range(s_i // 2) if rng.random() < p)
            caught += hits >= threshold
        assert caught == trials

    @settings(max_examples=100)
    @given(family=families(max_n=30, max_m=10), alpha=st.sampled_from([0.1, 0.25, 0.5, 1.0]),
           data=st.data())
    def test_matches_naive_tally(self, family, alpha, data):
        n, sets = family
        sample = data.draw(st.lists(st.integers(1, n), unique=True))
        n_total = n + len(sets)
        oracle = CovertOracle(build_set_system(sets, n))
        probed = []

        def probe(e):
            probed.append(e)
            return oracle.hitting_query(e)

        shortlist, hits = shortlist_sets(sample, probe, alpha, n_total)
        naive: dict[int, set] = {}
        for e in sample:
            for j, members in enumerate(sets, start=1):
                if e in members:
                    naive.setdefault(j, set()).add(e)
        threshold = alpha * math.log2(n_total)
        assert shortlist == sorted(j for j, h in naive.items() if len(h) >= threshold)
        assert {s: hits[s] for s in shortlist} == {s: naive[s] for s in shortlist}
        assert probed == sample
        assert oracle.ledger.hitting_queries == len(sample)


class TestSequentialFilter:
    def test_disjoint_sets_both_accepted(self):
        system = build_set_system([[1, 2], [3, 4]], 4)
        oracle = CovertOracle(system)
        _, hits = shortlist_sets([1, 2, 3, 4], oracle.hitting_query, 0.5, 16)
        accepted, covered = sequential_filter([1, 2], hits, oracle.set_query, 0.5, 16)
        assert accepted == [1, 2]
        assert covered == {1, 2, 3, 4}
        assert oracle.ledger.set_queries == 2

    def test_contained_set_discarded(self):
        system = build_set_system([[1, 2, 3], [2, 3]], 3)
        oracle = CovertOracle(system)
        _, hits = shortlist_sets([1, 2, 3], oracle.hitting_query, 0.5, 16)
        accepted, _ = sequential_filter([1, 2], hits, oracle.set_query, 0.5, 16)
        assert accepted == [1]

    def test_exact_residual_counting_with_full_sample(self):
        # With everything sampled, acceptance means >= threshold uncovered
        # at the set's turn.
        system = build_set_system([[1, 2, 3], [3, 4], [5, 6]], 6)
        oracle = CovertOracle(system)
        _, hits = shortlist_sets([1, 2, 3, 4, 5, 6], oracle.hitting_query, 1.0, 4)
        accepted, _ = sequential_filter([1, 2, 3], hits, oracle.set_query, 1.0, 4)
        # threshold 2: set 2 keeps only {4} after set 1 claims {3}.
        assert accepted == [1, 3]


class TestBaseCase:
    def test_single_covering_set(self):
        system = build_set_system([[1, 2, 3, 4]], 4)
        oracle = CovertOracle(system)
        assert base_case_explicit(oracle.hitting_query, {1, 2, 3, 4}) == [1]
        assert oracle.ledger.hitting_queries == 4

    def test_equals_explicit_greedy_on_full_instance(self):
        rng = random.Random(19)
        for _ in range(20):
            system, _ = random_system(rng, max_n=12, max_m=8)
            oracle = CovertOracle(system)
            picks = base_case_explicit(
                oracle.hitting_query, set(range(1, system.universe_size + 1))
            )
            assert tuple(picks) == greedy_cover(system).set_indices

    @settings(max_examples=100)
    @given(family=families(max_n=16, max_m=8), data=st.data())
    def test_matches_full_rebuild_on_partial_residue(self, family, data):
        n, sets = family
        residue = data.draw(st.sets(st.integers(1, n), min_size=1))
        # A set outside the residue at a random position: the residue touches a strict subset.
        spare = data.draw(st.integers(0, len(sets)))
        sets = sets[:spare] + [set(range(1, n + 1)) - residue] + sets[spare:]
        oracle = CovertOracle(build_set_system(sets, n))
        # The full rebuild: every set cut to the residue, elements renumbered in order.
        order = sorted(residue)
        relabel = {e: i for i, e in enumerate(order, start=1)}
        restricted = [[relabel[e] for e in members if e in residue] for members in sets]
        picks, witness = naive_greedy(restricted, len(order), 1.0)
        if witness is None:
            assert base_case_explicit(oracle.hitting_query, residue) == picks
        else:
            with pytest.raises(UncoverableInstanceError) as err:
                base_case_explicit(oracle.hitting_query, residue)
            assert err.value.element == order[witness - 1]
        assert oracle.ledger.hitting_queries == len(residue)

    def test_one_query_per_element_even_on_failure(self):
        system = build_set_system([[2], [4]], 4)
        oracle = CovertOracle(system)
        with pytest.raises(UncoverableInstanceError) as err:
            base_case_explicit(oracle.hitting_query, {1, 2, 3, 4})
        assert err.value.element == 1
        assert oracle.ledger.hitting_queries == 4


class TestRun:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        oracle = CovertOracle(build_set_system([[1, 2]], 2))
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            run_pseudo_greedy(oracle, alpha=alpha)
        assert oracle.ledger.total == 0

    def test_single_set_instance_base_cases_immediately(self):
        system = build_set_system([list(range(1, 9))], 8)
        result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=3)
        assert result.cover.set_indices == (1,)
        assert result.base_case_entered
        assert len(result.rounds) == 1 and result.rounds[0].base_case

    def test_small_instance_equals_explicit_greedy(self):
        # n' <= alpha*log2(N) puts the whole instance in the base case.
        rng = random.Random(29)
        for _ in range(10):
            system, _ = random_system(rng, max_n=16, max_m=8)
            result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=1)
            assert result.cover.set_indices == greedy_cover(system).set_indices

    def test_seed_sweep_valid_and_bounded(self):
        count_ok = 0
        runs = 100
        for seed in range(runs):
            system, _ = gen_set_system("planted-cover", n=16, m=6, seed=seed, k=3)
            result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=seed)
            assert verify_cover(system, result.cover)
            sets = [sorted(s) for s in system.sets]
            opt = len(exhaustive_min_cover(sets, 16))
            if Fraction(len(result.cover)) <= 8 * harmonic(16) * opt:
                count_ok += 1
        assert count_ok >= 95

    def test_ledger_reconstructs_from_trace(self):
        for seed in range(15):
            system, _ = gen_set_system("planted-cover", n=256, m=32, seed=seed, k=4)
            result = run_pseudo_greedy(CovertOracle(system), alpha=4.0, rng_seed=seed)
            hitting = sum(
                r.n_i if r.base_case else len(r.sample) for r in result.rounds
            )
            set_queries = sum(
                0 if r.base_case else len(r.chosen) for r in result.rounds
            )
            assert result.ledger.hitting_queries == hitting
            assert result.ledger.set_queries == set_queries
            assert result.ledger.layered_queries == 0
            deltas = [r.ledger_delta for r in result.rounds]
            assert sum(d["hitting"] for d in deltas) == hitting
            assert sum(d["set"] for d in deltas) == set_queries

    @settings(max_examples=60)
    @given(family=coverable_families(), alpha=st.sampled_from([0.25, 0.5, 1.0, 8.0]),
           rng_seed=st.integers(0, 99))
    def test_valid_cover_and_ledger_from_trace_property(self, family, alpha, rng_seed):
        n, sets = family
        assert exhaustive_min_cover(sets, n) is not None
        result = run_pseudo_greedy(CovertOracle(build_set_system(sets, n)), alpha=alpha,
                                   rng_seed=rng_seed)
        chosen = result.cover.set_indices
        assert not result.failed and len(set(chosen)) == len(chosen)
        assert set().union(*(sets[s - 1] for s in chosen)) == set(range(1, n + 1))
        for r in result.rounds:
            if r.base_case:
                assert r.ledger_delta == {"hitting": r.n_i, "set": 0, "layered": 0}
            else:
                assert r.ledger_delta == {"hitting": len(r.sample), "set": len(r.chosen),
                                          "layered": 0}
        sampled = [r for r in result.rounds if not r.base_case]
        base_n_i = sum(r.n_i for r in result.rounds if r.base_case)
        assert result.ledger.hitting_queries == sum(len(r.sample) for r in sampled) + base_n_i
        assert result.ledger.set_queries == sum(len(r.chosen) for r in sampled)
        assert result.ledger.layered_queries == 0

    def test_full_information_rounds_match_reference(self):
        for seed in range(5):
            system, _ = gen_set_system("planted-cover", n=128, m=32, seed=seed, k=2)
            sets = [sorted(s) for s in system.sets]
            ref_rounds, ref_cover = full_info_cover_trace(sets, 128, alpha=8.0)
            result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=seed)
            assert [tuple(r.chosen) for r in result.rounds] == [
                r["chosen"] for r in ref_rounds
            ]
            assert list(result.cover.set_indices) == ref_cover

    def test_uncoverable_flags_failure_with_witness(self):
        system = build_set_system([[2, 3], [3, 4]], 5)
        result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=0)
        assert result.failed
        assert result.uncovered_element == 1
        assert not verify_cover(system, result.cover)

    def test_deterministic_trace(self):
        system, _ = gen_set_system("planted-cover", n=200, m=24, seed=3, k=4)
        a = run_pseudo_greedy(CovertOracle(system), alpha=6.0, rng_seed=11)
        b = run_pseudo_greedy(CovertOracle(system), alpha=6.0, rng_seed=11)
        assert a.cover == b.cover
        assert a.rounds == b.rounds
        assert a.ledger.to_json_dict() == b.ledger.to_json_dict()

    def test_alpha_must_be_positive(self):
        system = build_set_system([[1]], 1)
        with pytest.raises(ValueError):
            run_pseudo_greedy(CovertOracle(system), alpha=0.0)

    def test_round_count_bounded_by_log(self):
        # The scale halves per round, so the base case arrives within
        # ceil(log2 n') + 1 rounds.
        for seed in range(10):
            n = 2 ** (5 + seed % 5)
            system, _ = gen_set_system("planted-cover", n=n, m=24, seed=seed, k=4)
            result = run_pseudo_greedy(CovertOracle(system), alpha=4.0, rng_seed=seed)
            assert len(result.rounds) <= math.ceil(math.log2(n)) + 1

    def test_trace_json_shape(self):
        system, _ = gen_set_system("planted-cover", n=128, m=16, seed=0, k=2)
        result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=0)
        doc = result.to_json_dict()
        assert doc["cover_size"] == len(result.cover)
        for entry in doc["rounds"]:
            assert set(entry) == {
                "i", "n_i", "s_i", "sample_size", "shortlist",
                "chosen", "ledger_delta", "base_case",
            }
