import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covert_setcover.discovery import LayeredGraphOracle, run_network_discovery
from covert_setcover.epsnet import run_weighted_epsilon_net
from covert_setcover.errors import UncoverableInstanceError
from covert_setcover.graphs import Graph
from covert_setcover.oracle import CovertOracle
from covert_setcover import pseudo_greedy
from covert_setcover.pseudo_greedy import (
    base_case_explicit,
    draw_round_sample,
    run_pseudo_greedy,
    sequential_filter,
    shortlist_sets,
)
from covert_setcover.generators import gen_set_system
from covert_setcover.setsystem import build_set_system, greedy_cover, verify_cover

from oracles import (
    exhaustive_min_cover,
    full_info_cover_trace,
    harmonic,
    naive_base_case,
    naive_greedy,
    naive_round_sample,
)
from strategies import coverable_families, families, random_system


class ConstantDraws:
    """A stand-in generator whose every draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class TestSampling:
    def test_clip_to_one_takes_everything(self):
        rng = random.Random(0)
        # s_i <= 4 * threshold forces p = 1 (alpha = 8, N = 2^10: threshold 80)
        sample = draw_round_sample(range(1, 21), 20.0, 80.0, rng)
        assert sample == list(range(1, 21))

    def test_expected_size_within_three_sigma(self):
        # n_i = s_i = 1024, alpha = 8, N = 2^20: threshold 160, p = 640/1024, mean 640.
        p = 0.625
        rng = random.Random(123)
        trials = 2_000
        total = sum(len(draw_round_sample(range(1, 1025), 1024.0, 160.0, rng))
                    for _ in range(trials))
        mean = total / trials
        sigma = math.sqrt(1024 * p * (1 - p) / trials)
        assert abs(mean - 640.0) <= 3 * sigma

    def test_deterministic_per_seed(self):
        a = draw_round_sample(range(1, 101), 100.0, 10.0, random.Random(42))
        b = draw_round_sample(range(1, 101), 100.0, 10.0, random.Random(42))
        assert a == b

    @settings(max_examples=200)
    @given(alpha=st.floats(1e-6, 1e6), n_total=st.integers(2, 2**62),
           n_0=st.integers(1, 2**40), i=st.integers(0, 40), seed=st.integers(0, 2**32),
           population=st.sets(st.integers(1, 10_000), max_size=40))
    def test_matches_paper_rate(self, alpha, n_total, n_0, i, seed, population):
        # The engine passes threshold = alpha*log2(N); the reference draws at the
        # paper's min(1, 4*alpha*log2(N)/s_i). Multiplying by 4.0 is exact, so
        # 4*(alpha*L) == (4*alpha)*L for every normal alpha*L.
        s_i = n_0 / 2**i  # the engine's scale before the min with n_i
        threshold = alpha * math.log2(n_total)
        assert draw_round_sample(population, s_i, threshold, random.Random(seed)) == (
            naive_round_sample(population, s_i, alpha, n_total, random.Random(seed))
        )
        # p is bit-identical: a draw equal to the paper's p is rejected by both,
        # and the next float below it is kept by both.
        p = min(1.0, 4.0 * alpha * math.log2(n_total) / s_i)
        for draw, expected in ((p, []), (math.nextafter(p, 0.0), sorted(population))):
            assert draw_round_sample(population, s_i, threshold, ConstantDraws(draw)) == (
                naive_round_sample(population, s_i, alpha, n_total, ConstantDraws(draw))
            ) == expected


class TestShortlist:
    def test_exact_counts_with_full_sample(self):
        # alpha * log2(N) = 2 with alpha = .5, N = 16: sets need 2 sampled hits.
        system = build_set_system([[1, 2, 3], [3], [4, 5]], 5)
        oracle = CovertOracle(system)
        shortlist, hits = shortlist_sets([1, 2, 3, 4, 5], oracle.hitting_query, 2.0)
        assert shortlist == [1, 3]
        assert hits[1] == {1, 2, 3}
        assert oracle.ledger.hitting_queries == 5

    def test_empty_when_no_set_reaches_threshold(self):
        system = build_set_system([[1], [2]], 2)
        oracle = CovertOracle(system)
        shortlist, _ = shortlist_sets([1, 2], oracle.hitting_query, 80.0)
        assert shortlist == []

    def test_large_set_caught_under_bernoulli_sampling(self):
        # A set holding s_i/2 of the population should essentially always
        # collect alpha*log2(N) samples (checked at scale in acceptance).
        rng = random.Random(5)
        alpha, n_total, s_i = 8.0, 2**20, 2**10
        threshold = alpha * math.log2(n_total)
        caught = 0
        trials = 300
        p = min(1.0, 4.0 * threshold / s_i)
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

        threshold = alpha * math.log2(n_total)
        shortlist, hits = shortlist_sets(sample, probe, threshold)
        naive: dict[int, set] = {}
        for e in sample:
            for j, members in enumerate(sets, start=1):
                if e in members:
                    naive.setdefault(j, set()).add(e)
        assert shortlist == sorted(j for j, h in naive.items() if len(h) >= threshold)
        assert {s: hits[s] for s in shortlist} == {s: naive[s] for s in shortlist}
        assert probed == sample
        assert oracle.ledger.hitting_queries == len(sample)


class TestRepeatedRound:
    # Planted n = m = 512, k = 16: round 0 samples 323 elements and shortlists nothing,
    # then p clips to 1 and rounds 1 and 2 both sample all 512 and shortlist nothing.
    def _run(self, monkeypatch):
        tallied = []
        shortlist = pseudo_greedy.shortlist_sets

        def counted(sample, probe, threshold):
            tallied.append(len(sample))
            return shortlist(sample, probe, threshold)

        monkeypatch.setattr(pseudo_greedy, "shortlist_sets", counted)
        system, _ = gen_set_system("planted-cover", n=512, m=512, seed=1, k=16)
        log = io.StringIO()
        result = run_pseudo_greedy(CovertOracle(system, log_stream=log), alpha=8.0, rng_seed=1)
        return result, tallied, [json.loads(line) for line in log.getvalue().splitlines()]

    def test_a_repeated_round_skips_the_tally(self, monkeypatch):
        result, tallied, _ = self._run(monkeypatch)
        assert [len(r.sample) for r in result.rounds[:3]] == [323, 512, 512]
        assert result.rounds[1].sample == result.rounds[2].sample
        assert tallied == [323, 512]
        assert all(r.shortlist == () for r in result.rounds)

    def test_a_repeated_round_charges_and_logs_its_probes(self, monkeypatch):
        result, _, log = self._run(monkeypatch)
        assert result.ledger.phase_counts["round-2"] == {"hitting": 512, "set": 0, "layered": 0}

        def queries(phase):
            return [{k: v for k, v in q.items() if k != "phase"} for q in log
                    if q["phase"] == phase]

        assert len(queries("round-1")) == 512
        assert queries("round-2") == queries("round-1")


class TestSequentialFilter:
    def test_disjoint_sets_both_accepted(self):
        system = build_set_system([[1, 2], [3, 4]], 4)
        oracle = CovertOracle(system)
        _, hits = shortlist_sets([1, 2, 3, 4], oracle.hitting_query, 2.0)
        accepted, covered = sequential_filter([1, 2], hits, oracle.set_query, 2.0)
        assert accepted == [1, 2]
        assert covered == {1, 2, 3, 4}
        assert oracle.ledger.set_queries == 2

    def test_contained_set_discarded(self):
        system = build_set_system([[1, 2, 3], [2, 3]], 3)
        oracle = CovertOracle(system)
        _, hits = shortlist_sets([1, 2, 3], oracle.hitting_query, 2.0)
        accepted, _ = sequential_filter([1, 2], hits, oracle.set_query, 2.0)
        assert accepted == [1]

    def test_exact_residual_counting_with_full_sample(self):
        # With everything sampled, acceptance means >= threshold uncovered
        # at the set's turn.
        system = build_set_system([[1, 2, 3], [3, 4], [5, 6]], 6)
        oracle = CovertOracle(system)
        _, hits = shortlist_sets([1, 2, 3, 4, 5, 6], oracle.hitting_query, 2.0)
        accepted, _ = sequential_filter([1, 2, 3], hits, oracle.set_query, 2.0)
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

    @settings(max_examples=150)
    @given(family=families(max_n=16, max_m=10), frozen=st.booleans(), data=st.data())
    def test_matches_naive_base_case(self, family, frozen, data):
        # Tuple answers are the oracle's stored rows; frozenset answers are how
        # network discovery's probe returns a hitting set.
        n, sets = family
        residue = data.draw(st.sets(st.integers(1, n), min_size=1))
        oracle = CovertOracle(build_set_system(sets, n))
        probed = []

        def probe(e):
            probed.append(e)
            answer = oracle.hitting_query(e)
            return frozenset(answer) if frozen else answer

        outcomes = []
        for run in (base_case_explicit, naive_base_case):
            probed.clear()
            try:
                outcomes.append(("picks", run(probe, residue)))
            except UncoverableInstanceError as exc:
                outcomes.append(("orphan", exc.element))
            assert probed == sorted(residue)
        assert outcomes[0] == outcomes[1]

    def test_smallest_orphan_raised_after_every_probe(self):
        # Elements 1, 2 and 4 are in no set; 1 is probed first.
        oracle = CovertOracle(build_set_system([[3], [5, 6]], 6))
        calls = []

        def probe(e):
            calls.append(e)
            return oracle.hitting_query(e)

        for run in (base_case_explicit, naive_base_case):
            calls.clear()
            with pytest.raises(UncoverableInstanceError) as err:
                run(probe, {6, 5, 4, 3, 2, 1})
            assert err.value.element == 1
            assert calls == [1, 2, 3, 4, 5, 6]

    def test_picks_are_real_set_indices_past_the_last_touched_set(self):
        # Sets 1 and 2 miss the residue {3, 4}; set 4 is never touched.
        oracle = CovertOracle(build_set_system([[1], [2], [3, 4], [1, 2]], 4))
        assert base_case_explicit(oracle.hitting_query, {3, 4}) == [3]


class TestRun:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
    def test_alpha_must_be_finite_and_positive(self, alpha):
        oracle = CovertOracle(build_set_system([[1, 2]], 2))
        with pytest.raises(ValueError, match="alpha must be finite and positive"):
            run_pseudo_greedy(oracle, alpha=alpha)
        assert oracle.ledger.total == 0

    @pytest.mark.parametrize(
        "entry, kwargs, message",
        [
            ("pseudo-greedy", {"alpha": "8"}, "alpha must be finite and positive"),
            ("discovery", {"alpha": "8"}, "alpha must be finite and positive"),
            ("epsnet", {"alpha_net": "2"}, "alpha_net must be finite and positive"),
            ("pseudo-greedy", {"alpha": True}, "alpha must be finite and positive"),
            ("pseudo-greedy", {"rng_seed": [1]}, "rng_seed must be an integer"),
            ("discovery", {"rng_seed": [1]}, "rng_seed must be an integer"),
            ("epsnet", {"rng_seed": [1]}, "rng_seed must be an integer"),
            ("pseudo-greedy", {"rng_seed": True}, "rng_seed must be an integer"),
            ("epsnet", {"rng_seed": "1"}, "rng_seed must be an integer"),
            ("discovery", {"rng_seed": None}, "rng_seed must be an integer"),
            ("pseudo-greedy", {"rng_seed": 1.0}, "rng_seed must be an integer"),
            ("pseudo-greedy", {"oracle": None}, "oracle must be a CovertOracle, got NoneType"),
            ("epsnet", {"oracle": "x"}, "oracle must be a CovertOracle, got str"),
            ("discovery", {"oracle": 3}, "oracle must be a LayeredGraphOracle, got int"),
            ("discovery", {"oracle": CovertOracle(build_set_system([[1, 2]], 2))},
             "oracle must be a LayeredGraphOracle, got CovertOracle"),
            ("pseudo-greedy",
             {"oracle": LayeredGraphOracle(Graph.from_edges(3, [(1, 2), (2, 3)]))},
             "oracle must be a CovertOracle, got LayeredGraphOracle"),
        ],
        ids=["pg-alpha-str", "discovery-alpha-str", "epsnet-alpha-net-str", "pg-alpha-bool",
             "pg-seed-list", "discovery-seed-list", "epsnet-seed-list", "pg-seed-bool",
             "epsnet-seed-str", "discovery-seed-none", "pg-seed-float", "pg-oracle-none",
             "epsnet-oracle-str", "discovery-oracle-int", "discovery-covert-oracle",
             "pg-layered-oracle"],
    )
    def test_entry_points_reject_a_wrong_type(self, entry, kwargs, message):
        # A str seed or None would run (random.Random takes both); a list or a str alpha
        # would end in a bare TypeError, and a non-oracle in an AttributeError. Each is a
        # ValueError naming the parameter, raised before any query.
        if entry == "discovery":
            oracle = LayeredGraphOracle(Graph.from_edges(3, [(1, 2), (2, 3)]))
            run = run_network_discovery
        else:
            oracle = CovertOracle(build_set_system([[1, 2], [3]], 3))
            run = run_pseudo_greedy if entry == "pseudo-greedy" else run_weighted_epsilon_net
        kwargs = {"oracle": oracle, **kwargs}
        with pytest.raises(ValueError, match=message):
            run(**kwargs)
        assert oracle.ledger.total == 0

    @pytest.mark.parametrize("entry", ["pseudo-greedy", "epsnet", "discovery"])
    def test_entry_points_take_an_oracle_subclass(self, entry):
        # The check is isinstance, so a subclass that wraps the queries (a tracing
        # oracle, say) runs as its base does.
        def counting(base):
            class Counting(base):
                calls = 0

                def _charge(self, *args):
                    self.calls += 1
                    super()._charge(*args)

            return Counting

        if entry == "discovery":
            oracle = counting(LayeredGraphOracle)(Graph.from_edges(3, [(1, 2), (2, 3)]))
            result = run_network_discovery(oracle, rng_seed=1)
        else:
            oracle = counting(CovertOracle)(build_set_system([[1, 2], [3]], 3))
            run = run_pseudo_greedy if entry == "pseudo-greedy" else run_weighted_epsilon_net
            result = run(oracle, rng_seed=1)
        assert oracle.calls == result.ledger.total > 0

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
