import io
import json
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covert_setcover.discovery import LayeredGraphOracle, hitting_set_H, run_network_discovery
from covert_setcover.epsnet import run_weighted_epsilon_net
from covert_setcover.errors import UncoverableInstanceError
from covert_setcover.graphs import Graph, all_pairs
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
from covert_setcover.setsystem import Cover, build_set_system, greedy_cover, verify_cover

from oracles import (
    eager_round_filter,
    exhaustive_min_cover,
    full_info_cover_trace,
    harmonic,
    naive_base_case,
    naive_greedy,
    naive_round_sample,
    rebuilt_base_case,
)
from strategies import Draws, connected_graphs, coverable_families, families, random_system


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
        shortlist, (sample, answers, counts) = shortlist_sets(
            [1, 2, 3, 4, 5], oracle.hitting_query, 2.0)
        assert shortlist == [1, 3]
        assert sample == [1, 2, 3, 4, 5]
        assert answers == [(1,), (1,), (1, 2), (3,), (3,)]
        assert counts == {1: 3, 2: 1, 3: 2}
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

    # Whole thresholds can equal a count or the sample size, and inf is the base case's cut:
    # the int bar and the skip past len(sample) keep the sets the real threshold keeps.
    @settings(max_examples=150)
    @given(family=families(max_n=30, max_m=10),
           threshold=st.integers(0, 13).map(float) | st.floats(-1.0, 13.0) | st.just(math.inf),
           data=st.data())
    @example(family=(2, [{1, 2}, {2}]), threshold=2.0, data=Draws([1, 2]))
    @example(family=(2, [{1, 2}, {2}]), threshold=1.5, data=Draws([1, 2]))
    def test_matches_naive_tally(self, family, threshold, data):
        n, sets = family
        sample = data.draw(st.lists(st.integers(1, n), unique=True))
        oracle = CovertOracle(build_set_system(sets, n))
        probed = []

        def probe(e):
            probed.append(e)
            return oracle.hitting_query(e)

        shortlist, (tallied, answers, counts) = shortlist_sets(sample, probe, threshold)
        naive: dict[int, set] = {}
        for e in sample:
            for j, members in enumerate(sets, start=1):
                if e in members:
                    naive.setdefault(j, set()).add(e)
        assert shortlist == sorted(j for j, h in naive.items() if len(h) >= threshold)
        assert counts == {s: len(naive[s]) for s in naive}
        assert list(tallied) == sample
        assert answers == [tuple(j for j, members in enumerate(sets, start=1) if e in members)
                           for e in sample]
        assert probed == sample
        assert oracle.ledger.hitting_queries == len(sample)

    def test_no_scan_past_the_sample_size(self):
        # Set 1 is in every answer, so its count is len(sample), the most any set can have.
        system = build_set_system([[1, 2, 3], [2], [3]], 3)
        answers = [(1,), (1, 2), (1, 3)]
        counts = Counter({1: 3, 2: 1, 3: 1})
        for threshold in (3.5, 4.0, math.inf):
            oracle = CovertOracle(system)
            shortlist, tally = shortlist_sets([1, 2, 3], oracle.hitting_query, threshold)
            assert (shortlist, tally) == ([], ([1, 2, 3], answers, counts))
            assert oracle.ledger.hitting_queries == 3
        shortlist, _ = shortlist_sets([1, 2, 3], CovertOracle(system).hitting_query, 3.0)
        assert shortlist == [1]


class TestEarlyFinish:
    # Planted n = m = 512, k = 16: round 0 samples 323 elements and shortlists nothing,
    # then p clips to 1 and round 1 samples all 512 and shortlists nothing, so no later
    # round could shortlist a set and round 1 is the base case.
    def _run(self):
        system, _ = gen_set_system("planted-cover", n=512, m=512, seed=1, k=16)
        log = io.StringIO()
        result = run_pseudo_greedy(CovertOracle(system, log_stream=log), alpha=8.0, rng_seed=1)
        return system, result, [json.loads(line) for line in log.getvalue().splitlines()]

    def test_the_run_ends_at_the_empty_full_sample_round(self):
        system, result, _ = self._run()
        first, last = result.rounds
        # A partial sample that shortlists nothing does not end the run.
        assert (len(first.sample), first.shortlist, first.base_case) == (323, (), False)
        assert (last.i, last.n_i, last.s_i, last.base_case) == (1, 512, 256.0, True)
        assert (last.sample, last.shortlist) == ((), ())
        assert last.chosen == result.cover.set_indices
        assert verify_cover(system, result.cover)
        assert list(result.ledger.phase_counts) == ["round-0", "round-1"]

    def test_the_final_phase_probes_each_residue_element_once(self):
        _, result, log = self._run()
        final = [q for q in log if q["phase"] == "round-1"]
        assert [q["kind"] for q in final] == ["hitting"] * 512
        assert [q["arg"] for q in final] == list(range(1, 513))
        assert log[-1] is final[-1]

    def test_the_ledger_reconstructs_from_the_trace(self):
        _, result, _ = self._run()
        hitting = sum(r.n_i if r.base_case else len(r.sample) for r in result.rounds)
        set_q = sum(0 if r.base_case else len(r.chosen) for r in result.rounds)
        ledger = result.ledger
        assert (ledger.hitting_queries, ledger.set_queries) == (hitting, set_q) == (835, 0)
        assert ledger.total == hitting + set_q

    def test_an_element_in_no_set_is_the_witness(self):
        # N = 66 puts the threshold at 8*log2(66) ~ 48.4 < 64 = s_0, and p clips to 1;
        # neither set holds 48 elements, so round 0 is the base case and element 64,
        # in no set, is found from its answers.
        system = build_set_system([range(1, 41), range(41, 64)], 64)
        result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=0)
        assert (result.failed, result.uncovered_element, result.cover.set_indices) == (True, 64, ())
        assert [(r.i, r.base_case) for r in result.rounds] == [(0, True)]
        assert result.ledger.phase_counts == {"round-0": {"hitting": 64, "set": 0, "layered": 0}}

    def test_a_residue_shrunk_by_a_probe_does_not_end_the_run(self):
        # Eight singleton sets, N = 4 and alpha 1: the threshold is 2, so round 0 samples
        # all 8 elements at p = 1 and shortlists nothing. Its first probe also drops
        # element 8 from the live residue, as discovery's side certificates do, so the
        # round is not a full sample of what is left; round 1 samples the 7 left and ends.
        oracle = CovertOracle(build_set_system([[e] for e in range(1, 9)], 8))
        uncovered = set(range(1, 9))

        def probe(e):
            uncovered.discard(8)
            return oracle.hitting_query(e)

        chosen, rounds, witness = pseudo_greedy.sampled_greedy(
            oracle, uncovered, probe, oracle.set_query, n_total=4, alpha=1.0, rng_seed=0,
        )
        assert [(r.i, r.n_i, len(r.sample), r.shortlist, r.base_case) for r in rounds] == [
            (0, 8, 8, (), False), (1, 7, 0, (), True)]
        assert (chosen, witness) == (list(range(1, 8)), None)
        assert oracle.ledger.phase_counts == {
            "round-0": {"hitting": 8, "set": 0, "layered": 0},
            "round-1": {"hitting": 7, "set": 0, "layered": 0}}


class TestSequentialFilter:
    @staticmethod
    def _filter(oracle, sample, shortlist):
        """The filter at threshold 2 on the sample's tally; the ledger must not move."""
        _, hits = shortlist_sets(sample, oracle.hitting_query, 2.0)
        before = oracle.ledger_snapshot()
        out = sequential_filter(shortlist, hits, 2.0)
        assert oracle.ledger_snapshot() == before
        return out

    def test_disjoint_sets_both_accepted(self):
        oracle = CovertOracle(build_set_system([[1, 2], [3, 4]], 4))
        accepted, claimed = self._filter(oracle, [1, 2, 3, 4], [1, 2])
        assert accepted == [1, 2]
        assert claimed == {1, 2, 3, 4}
        assert oracle.ledger.set_queries == 0

    def test_contained_set_discarded(self):
        # Elements 4 and 5 keep the walk going past set 2, which is then discarded on its
        # count alone: everything it holds is claimed by set 1.
        oracle = CovertOracle(build_set_system([[1, 2, 3], [2, 3], [4, 5]], 5))
        accepted, _ = self._filter(oracle, [1, 2, 3, 4, 5], [1, 2, 3])
        assert accepted == [1, 3]

    def test_exact_residual_counting_with_full_sample(self):
        # With everything sampled, acceptance means >= threshold uncovered
        # at the set's turn.
        oracle = CovertOracle(build_set_system([[1, 2, 3], [3, 4], [5, 6]], 6))
        accepted, claimed = self._filter(oracle, [1, 2, 3, 4, 5, 6], [1, 2, 3])
        # threshold 2: set 2 keeps only {4} after set 1 claims {3}.
        assert accepted == [1, 3]
        assert claimed == {1, 2, 3, 5, 6}

    def test_accept_returning_none(self):
        # The engine, not the filter, accepts: once per filter pick, in the round's chosen
        # order, after all of the round's probes and in its phase, and never a base-case
        # pick; it reads nothing accept returns. Uniform n = m = 64 at alpha 1 runs three
        # sampled rounds (round 1 keeps 2 of 10 shortlisted sets), then a base case of 8 picks.
        system, _ = gen_set_system("uniform-random", n=64, m=64, seed=1, density=0.1)
        events = []  # ("phase", label), ("probe", e) and ("accept", s), in call order

        class Recording(CovertOracle):
            def mark_phase(self, label):
                events.append(("phase", label))
                super().mark_phase(label)

            def hitting_query(self, e):
                events.append(("probe", e))
                return super().hitting_query(e)

        oracle = Recording(system)
        uncovered = set(range(1, 65))

        def accept(s):
            events.append(("accept", s))
            uncovered.difference_update(oracle.set_query(s))

        chosen, rounds, witness = pseudo_greedy.sampled_greedy(
            oracle, uncovered, oracle.hitting_query, accept,
            n_total=128, alpha=1.0, rng_seed=0,
        )
        assert [(len(r.chosen), len(r.shortlist), r.base_case) for r in rounds] == [
            (1, 1, False), (2, 10, False), (3, 3, False), (8, 0, True)]
        assert witness is None and verify_cover(system, Cover(tuple(chosen)))
        phases = [i for i, event in enumerate(events) if event[0] == "phase"]
        for r, start, end in zip(rounds, phases, phases[1:] + [len(events)]):
            probed = sorted(e for kind, e in events[start + 1:end] if kind == "probe")
            assert len(probed) == (r.n_i if r.base_case else len(r.sample))
            picks = () if r.base_case else r.chosen
            assert events[start + 1:end] == (
                [("probe", e) for e in r.sample or probed] + [("accept", s) for s in picks])
            assert r.ledger_delta == {"hitting": len(probed), "set": len(picks), "layered": 0}
        assert len(phases) == len(rounds)


class TestFilterMatchesEagerReference:
    """Tally plus filter against the eager per-set hit sets, on both kinds of answers."""

    # A whole threshold can equal a sample size, the boundary of the filter's stop test.
    thresholds = st.integers(1, 8).map(float) | st.floats(0.25, 8.0)

    @staticmethod
    def _check(oracle, sample, answer, threshold):
        probed = []

        def probe(e):
            probed.append(e)
            return answer(e)

        shortlist, tally = shortlist_sets(sample, probe, threshold)
        before = oracle.ledger_snapshot()
        accepted, claimed = sequential_filter(shortlist, tally, threshold)
        assert oracle.ledger_snapshot() == before
        assert (shortlist, accepted, claimed) == eager_round_filter(sample, answer, threshold)
        assert probed == sample

    @settings(max_examples=200)
    @given(family=families(max_n=30, max_m=10), threshold=thresholds, data=st.data())
    # Set 2 holds only claimed samples, and one sample is left after set 1's claim.
    @example(family=(2, [{1}, {1}, {1, 2}]), threshold=1.0, data=Draws([1, 2]))
    def test_covert_oracle_answers(self, family, threshold, data):
        n, sets = family
        sample = data.draw(st.lists(st.integers(1, n), unique=True))
        oracle = CovertOracle(build_set_system(sets, n))
        self._check(oracle, sample, oracle.hitting_query, threshold)

    @settings(max_examples=200)
    @given(graph=connected_graphs(), threshold=thresholds, data=st.data())
    # The star at 1: H(1, 2) is every vertex, H(2, 3) = (2, 3) and H(3, 4) = (3, 4).
    @example(graph=Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)]), threshold=1.0,
             data=Draws([(1, 2), (2, 3), (3, 4)]))
    def test_discovery_hitting_sets(self, graph, threshold, data):
        sample = data.draw(st.lists(st.sampled_from(all_pairs(graph.n)), unique=True))
        oracle = LayeredGraphOracle(graph)
        self._check(oracle, sample, lambda pair: hitting_set_H(*pair, oracle.layered_query),
                    threshold)


def round_tally(probe, residue):
    """The tally a round hands the base case: the sorted residue, its answers, their Counter."""
    order = sorted(residue)
    answers = [probe(e) for e in order]
    return order, answers, Counter(chain.from_iterable(answers))


class TestBaseCase:
    def test_single_covering_set(self):
        system = build_set_system([[1, 2, 3, 4]], 4)
        oracle = CovertOracle(system)
        assert base_case_explicit(*round_tally(oracle.hitting_query, {1, 2, 3, 4})) == [1]

    def test_equals_explicit_greedy_on_full_instance(self):
        rng = random.Random(19)
        for _ in range(20):
            system, _ = random_system(rng, max_n=12, max_m=8)
            oracle = CovertOracle(system)
            picks = base_case_explicit(
                *round_tally(oracle.hitting_query, range(1, system.universe_size + 1))
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
        tally = round_tally(oracle.hitting_query, residue)
        # The full rebuild: every set cut to the residue, elements renumbered in order.
        order = sorted(residue)
        relabel = {e: i for i, e in enumerate(order, start=1)}
        restricted = [[relabel[e] for e in members if e in residue] for members in sets]
        picks, witness = naive_greedy(restricted, len(order), 1.0)
        if witness is None:
            assert base_case_explicit(*tally) == picks
        else:
            with pytest.raises(UncoverableInstanceError) as err:
                base_case_explicit(*tally)
            assert err.value.element == order[witness - 1]
        assert oracle.ledger.hitting_queries == len(residue)  # the base case probes nothing

    def test_one_query_per_element_even_on_failure(self):
        # N = 8 puts the threshold at 24 > 6 = s_0, so round 0 is the scale entry. Elements
        # 1, 2 and 4 are in no set; the engine probes all six in order before 1 is named.
        log = io.StringIO()
        result = run_pseudo_greedy(
            CovertOracle(build_set_system([[3], [5, 6]], 6), log_stream=log), rng_seed=0
        )
        queries = [json.loads(line) for line in log.getvalue().splitlines()]
        assert (result.failed, result.uncovered_element, result.cover.set_indices) == (True, 1, ())
        assert [(q["kind"], q["phase"], q["arg"]) for q in queries] == [
            ("hitting", "base-case", e) for e in range(1, 7)
        ]
        (only,) = result.rounds
        assert (only.base_case, only.n_i, only.ledger_delta["hitting"]) == (True, 6, 6)

    @settings(max_examples=150)
    @given(family=families(max_n=16, max_m=10), frozen=st.booleans(), data=st.data())
    def test_matches_naive_base_case(self, family, frozen, data):
        # Tuple answers are the oracle's stored rows; a frozenset answer breaks the probe
        # contract (a strictly increasing tuple) and must still give the naive outcome.
        n, sets = family
        residue = data.draw(st.sets(st.integers(1, n), min_size=1))
        oracle = CovertOracle(build_set_system(sets, n))
        probed = []

        def probe(e):
            probed.append(e)
            answer = oracle.hitting_query(e)
            return frozenset(answer) if frozen else answer

        outcomes = []
        for run in (lambda: base_case_explicit(*round_tally(probe, residue)),
                    lambda: naive_base_case(probe, residue)):
            probed.clear()
            try:
                outcomes.append(("picks", run()))
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

        for run in (lambda: base_case_explicit(*round_tally(probe, {6, 5, 4, 3, 2, 1})),
                    lambda: naive_base_case(probe, {6, 5, 4, 3, 2, 1})):
            calls.clear()
            with pytest.raises(UncoverableInstanceError) as err:
                run()
            assert err.value.element == 1
            assert calls == [1, 2, 3, 4, 5, 6]
        # The base case names the first element of its order whose answer is empty.
        with pytest.raises(UncoverableInstanceError) as err:
            base_case_explicit([3, 4, 2], [(1,), (), ()], Counter({1: 1}))
        assert err.value.element == 4

    def test_picks_are_real_set_indices_past_the_last_touched_set(self):
        # Sets 1 and 2 miss the residue {3, 4}; set 4 is never touched.
        oracle = CovertOracle(build_set_system([[1], [2], [3, 4], [1, 2]], 4))
        assert base_case_explicit(*round_tally(oracle.hitting_query, {3, 4})) == [3]


# Answers that break the probe contract (a strictly increasing tuple) but hold the same
# ints: the base case checks no answer, and its picks must not depend on the order,
# repeats or container of an answer's entries.
CORRUPTIONS = {
    "reversed": lambda a: a[::-1],
    "duplicate": lambda a: a + a[:1],
    "list": list,
    "frozenset": frozenset,
}


def _outcome(run, *args):
    """A run's picks, or the type and message of what it raised."""
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestLazyBaseCase:
    # Up to 40 sets over up to 14 elements give runs that stay lazy to the end and runs
    # that go stale after 0, 1 or more picks; in about half the examples one answer is
    # corrupted before the lazy picks read it.
    @settings(max_examples=300)
    @given(
        family=families(max_n=14, max_m=40),
        corruption=st.none() | st.sampled_from(sorted(CORRUPTIONS)),
        data=st.data(),
    )
    # Set 3 is picked at 4; then set 1's tally still reads 3, but it holds nothing uncovered.
    @example(family=(5, [{1, 2, 3}, {1, 2, 5}, {1, 2, 3, 4}]), corruption=None,
             data=Draws({1, 2, 3, 4, 5}))
    def test_matches_the_whole_rebuild(self, family, corruption, data):
        n, sets = family
        residue = data.draw(st.sets(st.integers(1, n), min_size=1))
        oracle = CovertOracle(build_set_system(sets, n))
        answers = {e: oracle.hitting_query(e) for e in residue}
        if corruption:
            e = data.draw(st.sampled_from(sorted(residue)))
            answers[e] = CORRUPTIONS[corruption](answers[e])
        rebuilt = _outcome(rebuilt_base_case, answers.__getitem__, residue)
        assert _outcome(base_case_explicit, *round_tally(answers.__getitem__, residue)) == rebuilt

    def test_a_residue_that_never_goes_stale_builds_nothing(self, monkeypatch):
        # Disjoint sets of sizes 1, 3 and 2: each pick is the largest set, and every
        # element it holds is uncovered, so no system and no inverse index is built. The
        # base case trusts the probe contract: it tests holdings with `in` and never
        # iterates an answer, so sealed answers give the same picks.
        class Sealed(tuple):
            def __iter__(self):
                raise AssertionError("an answer's entries were iterated")

        oracle = CovertOracle(build_set_system([[6], [1, 2, 3], [4, 5]], 6))

        def refuse(*args, **kwargs):
            raise AssertionError("the residue was rebuilt")

        monkeypatch.setattr(pseudo_greedy, "build_set_system", refuse)
        monkeypatch.setattr(pseudo_greedy, "greedy_cover", refuse)
        order, answers, counts = round_tally(oracle.hitting_query, range(1, 7))
        assert base_case_explicit(order, list(map(Sealed, answers)), counts) == [2, 3, 1]

    def test_a_stale_tally_rebuilds_only_the_uncovered_answers(self, monkeypatch):
        # Set 1 is picked on its exact tally 4; set 2's tally 3 then holds one uncovered
        # answer, so only the answers of elements 5 and 6 are rebuilt, and set 3 finishes.
        table = {1: (1, 2), 2: (1, 2), 3: (1,), 4: (1,), 5: (2, 3), 6: (3,)}
        built = []

        def spy(rows, universe_size):
            built.append((list(rows), universe_size))
            return build_set_system(rows, universe_size)

        monkeypatch.setattr(pseudo_greedy, "build_set_system", spy)
        picks = base_case_explicit(*round_tally(table.__getitem__, table))
        assert built == [([(2, 3), (3,)], 3)]
        assert picks == rebuilt_base_case(table.__getitem__, set(table)) == [1, 3]


class TestBaseCaseEntries:
    """Both ways into the base case, with every Counter update and base-case call seen."""

    # n = m = 512: round 2 samples its whole residue of 130 and shortlists nothing.
    # n = m = 128: round 0 accepts one set, and 61 <= 8*log2(256) = 64 elements are left,
    # so round 1 is the scale entry, which probes them all under a cut no set reaches.
    @pytest.mark.parametrize("n, last_round, phase", [
        pytest.param(512, (2, 130, 128, True), "round-2", id="full-sample"),
        pytest.param(128, (1, 61, 61, True), "base-case", id="scale"),
    ])
    def test_each_entry_hands_its_round_tally_over(self, monkeypatch, n, last_round, phase):
        counted = []  # (inside the base case, entries counted) per Counter update
        tallies, handed = [], []
        inside = [False]

        class Recording(Counter):
            def update(self, iterable=None, /, **kwds):
                items = list(iterable or ())
                counted.append((inside[0], len(items)))
                super().update(items, **kwds)

        shortlist, base_case = pseudo_greedy.shortlist_sets, pseudo_greedy.base_case_explicit

        def shortlist_spy(*args):
            out = shortlist(*args)
            tallies.append(out[1][2])
            return out

        def base_case_spy(order, answers, counts):
            handed.append(counts)
            inside[0] = True
            try:
                return base_case(order, answers, counts)
            finally:
                inside[0] = False

        monkeypatch.setattr(pseudo_greedy, "Counter", Recording)
        monkeypatch.setattr(pseudo_greedy, "shortlist_sets", shortlist_spy)
        monkeypatch.setattr(pseudo_greedy, "base_case_explicit", base_case_spy)
        system, _ = gen_set_system("planted-cover", n=n, m=n, seed=1, k=4)
        oracle = CovertOracle(system)
        result = run_pseudo_greedy(oracle, alpha=8.0, rng_seed=1)
        assert verify_cover(system, result.cover)
        last = result.rounds[-1]
        assert (last.i, last.n_i, last.s_i, last.base_case) == last_round
        assert (last.sample, last.shortlist) == ((), ())
        assert list(oracle.ledger.phase_counts)[-1] == phase
        assert oracle.ledger.phase_counts[phase]["hitting"] == last.ledger_delta["hitting"] == last.n_i
        assert len(handed) == 1 and handed[0] is tallies[-1]
        assert handed[0][last.chosen[0]] == 0  # consumed: the first pick is lazy in both
        assert sum(n for inside_base_case, n in counted if inside_base_case) == 0

    def test_the_scale_entry_shortlists_nothing_at_the_threshold(self):
        # N = 8 and alpha 2 put the threshold at exactly 6 = s_0, and set 1 holds all six
        # elements: the scale entry's cut must still be one that no set reaches.
        oracle = CovertOracle(build_set_system([range(1, 7), [1]], 6))
        result = run_pseudo_greedy(oracle, alpha=2.0, rng_seed=0)
        (only,) = result.rounds
        assert (only.base_case, only.shortlist, only.chosen) == (True, (), (1,))
        assert (result.ledger.hitting_queries, result.ledger.set_queries) == (6, 0)


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

    def test_round_bills_are_the_ledger_phases_on_a_used_oracle(self):
        # A run's bill is its oracle's whole ledger, and each round's bill is its phase
        # there, so on an oracle that a run already used the two still agree: round 0
        # holds both runs' charges.
        system, _ = gen_set_system("planted-cover", n=512, m=512, seed=1, k=4)
        oracle = CovertOracle(system)
        run_pseudo_greedy(oracle, alpha=8.0, rng_seed=1)
        result = run_pseudo_greedy(oracle, alpha=8.0, rng_seed=2)
        report = result.to_json_dict()
        # Both runs end at a full-sample round, so every phase is a round-i.
        assert sorted(report["ledger"]["phases"]) == ["round-0", "round-1", "round-2"]
        assert [r["ledger_delta"] for r in report["rounds"]] == [
            report["ledger"]["phases"][f"round-{r['i']}"] for r in report["rounds"]
        ]
        assert report["rounds"][0]["ledger_delta"]["hitting"] == 639

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

    def test_runs_share_element_ints(self):
        # Values above 256 are not cached by CPython: a run that made its own ints
        # would hand back equal samples as distinct objects.
        system, _ = gen_set_system("planted-cover", n=2048, m=2048, seed=1, k=8)
        a, b = (run_pseudo_greedy(CovertOracle(system), rng_seed=0) for _ in range(2))
        sampled = [[e for r in result.rounds for e in r.sample if e > 256] for result in (a, b)]
        assert sampled[0] and sampled[0] == sampled[1]
        assert all(map(operator.is_, *sampled))

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
