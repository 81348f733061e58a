import io
import itertools
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covert_setcover import discovery
from covert_setcover.discovery import (
    LayeredGraphOracle,
    competitive_ratio,
    hitting_set_H,
    offline_verification,
    run_network_discovery,
)
from covert_setcover.generators import gen_graph
from covert_setcover.graphs import Graph, all_pairs, certified_pairs, layered_answer
from covert_setcover.setsystem import brute_force_min_cover, build_set_system

from oracles import (
    bfs_levels,
    certified_by_query,
    exhaustive_min_cover,
    naive_greedy,
    replay_discovery,
    true_pair_statuses,
)
from strategies import Draws, connected_graphs
from test_graphs import G6_EDGES, random_connected_graph


@pytest.fixture
def g6():
    return Graph.from_edges(6, G6_EDGES)


def assert_bill_from_trace(result):
    """The bill rebuilt from the trace: one query per vertex, at its first ask.

    A sampled round asks its pairs' endpoints (u before v, in sample order),
    then its accepted vertices; its ``ledger_delta`` counts those no earlier
    ask reached. The base case's probes are not in the trace, so it is last
    and buys the rest of ``queried``.
    """
    queried = result.queried
    assert result.ledger.layered_queries == len(queried) == len(set(queried))
    asked = {}
    for r in result.rounds:
        if r.base_case:
            assert r is result.rounds[-1]
            assert r.ledger_delta["layered"] == len(queried) - len(asked)
            break
        fresh = dict.fromkeys(x for x in itertools.chain(*r.sample, r.chosen) if x not in asked)
        assert r.ledger_delta["layered"] == len(fresh)
        asked.update(fresh)
    assert queried[:len(asked)] == list(asked)


class TestLayeredOracle:
    def test_rejected_vertex_is_not_charged(self):
        log = io.StringIO()
        oracle = LayeredGraphOracle(gen_graph("path", n=4), log_stream=log)
        with pytest.raises(ValueError):
            oracle.layered_query(9)
        assert oracle.ledger.layered_queries == 0
        assert oracle.ledger.phase_counts == {}
        assert log.getvalue() == ""
        oracle.layered_query(2)
        assert oracle.ledger.layered_queries == 1

    def test_non_integer_vertex_rejected_after_memo_fill(self):
        oracle = LayeredGraphOracle(gen_graph("path", n=4))
        oracle.layered_query(2)
        with pytest.raises(ValueError, match="not an integer"):
            oracle.layered_query(2.0)
        assert oracle.ledger.layered_queries == 1

    def test_repeated_query_is_charged_and_logged_every_time(self):
        log = io.StringIO()
        oracle = LayeredGraphOracle(gen_graph("path", n=5), log_stream=log)
        answers = [oracle.layered_query(3) for _ in range(3)]
        assert answers[0] == answers[1] == answers[2]
        assert oracle.ledger.layered_queries == 3
        lines = log.getvalue().splitlines()
        assert len(lines) == 3 and len(set(lines)) == 1

    def test_oracles_on_one_graph_share_its_answer_table(self):
        graph = gen_graph("er-connected", n=20, p=0.25, seed=1)

        def recorded_run():
            log, answers = io.StringIO(), []
            oracle = LayeredGraphOracle(graph, log_stream=log)
            query = oracle.layered_query

            def recording(v):
                answers.append(query(v))
                return answers[-1]

            oracle.layered_query = recording
            result = run_network_discovery(oracle, alpha=2.0, rng_seed=3)
            return result, log.getvalue(), answers

        first, second = recorded_run(), recorded_run()
        assert len(first[2]) == len(second[2]) == first[0].ledger.layered_queries
        assert all(a is b for a, b in zip(first[2], second[2]))
        assert first[0].ledger == second[0].ledger
        assert first[1] == second[1] != ""
        assert first[0].statuses == second[0].statuses
        fresh = Graph.from_edges(graph.n, graph.edges())
        assert graph == fresh and hash(graph) == hash(fresh) and repr(graph) == repr(fresh)


class TestHittingSet:
    def test_g6_pair_2_3(self, g6):
        oracle = LayeredGraphOracle(g6)
        assert hitting_set_H(2, 3, oracle.layered_query) == (2, 3, 4, 5, 6)
        assert oracle.ledger.layered_queries == 2
        assert certified_pairs(layered_answer(g6, 2))[(2, 3)] is False  # the pair certifies itself

    def test_endpoints_always_inside(self):
        rng = random.Random(3)
        for _ in range(10):
            graph = random_connected_graph(rng, rng.randint(2, 8))
            oracle = LayeredGraphOracle(graph)
            for u, v in all_pairs(graph.n):
                hset = hitting_set_H(u, v, oracle.layered_query)
                assert u in hset and v in hset

    def test_complete_graph_pair_is_its_own_hitting_set(self):
        for n in (4, 6):
            oracle = LayeredGraphOracle(gen_graph("complete", n=n))
            assert hitting_set_H(2, 3, oracle.layered_query) == (2, 3)

    def test_known_endpoints_are_read_uncharged(self, g6):
        oracle = LayeredGraphOracle(g6)
        table = {v: layered_answer(g6, v) for v in (2, 3, 5)}
        asked = []

        def answer_of(x):
            asked.append(x)
            return table[x]

        hset = hitting_set_H(3, 5, answer_of)
        assert asked == [3, 5] and oracle.ledger.layered_queries == 0
        assert hitting_set_H(5, 3, answer_of) == hset
        assert asked == [3, 5, 5, 3] and oracle.ledger.layered_queries == 0
        assert hset == hitting_set_H(3, 5, oracle.layered_query)
        assert oracle.ledger.layered_queries == 2  # the oracle's own query charges both endpoints

    @pytest.mark.parametrize("answer_of", [[], (), set(), {}], ids=["list", "tuple", "set", "dict"])
    def test_answer_of_must_be_callable(self, answer_of):
        with pytest.raises(ValueError, match="answer_of must be callable"):
            hitting_set_H(2, 3, answer_of)

    def test_answer_of_must_return_a_layered_answer(self, g6):
        with pytest.raises(ValueError, match=r"answer_of\(u\) must be a LayeredAnswer"):
            hitting_set_H(2, 3, lambda v: layered_answer(g6, v).dist)
        with pytest.raises(ValueError, match=r"answer_of\(v\) must be a LayeredAnswer"):
            hitting_set_H(2, 3, {2: layered_answer(g6, 2), 3: None}.get)

    @pytest.mark.parametrize("vertex", [True, 1.0], ids=["bool", "float"])
    def test_non_int_endpoint_is_refused_uncharged(self, g6, vertex):
        oracle = LayeredGraphOracle(g6)
        with pytest.raises(ValueError, match="not an integer"):
            hitting_set_H(vertex, 3, oracle.layered_query)
        assert oracle.ledger.layered_queries == 0

    def test_same_vertex_rejected(self, g6):
        with pytest.raises(ValueError):
            hitting_set_H(2, 2, LayeredGraphOracle(g6).layered_query)

    def test_answers_of_different_graphs_are_refused(self):
        # Zipped level by level, the two answers would give H of the shorter one.
        path4, path6 = gen_graph("path", n=4), gen_graph("path", n=6)
        with pytest.raises(ValueError, match="has 4 levels and answer_of\\(v\\) has 6"):
            hitting_set_H(1, 2, lambda x: layered_answer(path4 if x == 1 else path6, x))

    @settings(max_examples=60)
    @given(graph=connected_graphs(), data=st.data())
    # Levels 0 and 256 differ only in their high byte: H is every vertex but 129.
    @example(graph=gen_graph("path", n=300), data=Draws((1, 257)))
    def test_matches_the_distance_rule(self, graph, data):
        u, v = data.draw(st.sampled_from(all_pairs(graph.n)))
        d_u, d_v = (bfs_levels(graph.n, graph.edges(), x) for x in (u, v))
        expected = tuple(x for x in range(1, graph.n + 1) if d_u[x] != d_v[x])
        assert hitting_set_H(u, v, lambda x: layered_answer(graph, x)) == expected

    def test_duality_with_certificates(self):
        # x in H(u, v) exactly when a query at x certifies {u, v}.
        rng = random.Random(41)
        for _ in range(8):
            graph = random_connected_graph(rng, rng.randint(2, 8))
            oracle = LayeredGraphOracle(graph)
            answers = {x: layered_answer(graph, x) for x in range(1, graph.n + 1)}
            for u, v in all_pairs(graph.n):
                hset = hitting_set_H(u, v, oracle.layered_query)
                for x in range(1, graph.n + 1):
                    certified = (u, v) in certified_pairs(answers[x])
                    assert (x in hset) == certified


class TestCertifiedPairsKeys:
    def test_keys_are_the_shared_all_pairs_tuples(self):
        # Discovery results hold these keys; fresh tuples per call would cost
        # memory in every result kept.
        graph = gen_graph("er-connected", n=12, p=0.3, seed=2)
        shared = {p: p for p in all_pairs(graph.n)}
        for v in range(1, graph.n + 1):
            for key in certified_pairs(layered_answer(graph, v)):
                assert key is shared[key]


class TestDiscovery:
    @pytest.mark.parametrize("alpha", [2.0, 8.0], ids=["sampled-round", "base-case"])
    def test_certificates_applied_once_per_vertex(self, alpha, monkeypatch):
        sources = []

        def counting(answer, *pairs):
            sources.append(answer.source)
            return certified_pairs(answer, *pairs)

        monkeypatch.setattr(discovery, "certified_pairs", counting)
        graph = gen_graph("er-connected", n=20, p=0.25, seed=1)
        result = run_network_discovery(LayeredGraphOracle(graph), alpha=alpha, rng_seed=1)
        assert result.statuses == true_pair_statuses(graph.n, graph.edges())
        assert len(sources) == len(set(sources))
        assert sources == result.queried
        assert result.ledger.layered_queries == len(sources)

    @pytest.mark.parametrize("alpha", [2.0, 8.0], ids=["sampled-round", "base-case"])
    def test_learned_vertex_reads_only_unresolved_pairs(self, alpha, monkeypatch):
        calls = []

        def recording(answer, *pairs):
            certified = certified_pairs(answer, *pairs)
            calls.append((list(*pairs), certified))
            return certified

        monkeypatch.setattr(discovery, "certified_pairs", recording)
        graph = gen_graph("er-connected", n=20, p=0.25, seed=1)
        result = run_network_discovery(LayeredGraphOracle(graph), alpha=alpha, rng_seed=1)
        assert result.statuses == true_pair_statuses(graph.n, graph.edges())
        assert len(calls) > 1
        resolved = set()
        for pairs, certified in calls:
            # Exactly the pairs no earlier call certified, lexicographically.
            assert pairs == [p for p in all_pairs(graph.n) if p not in resolved]
            resolved.update(certified)

    @pytest.mark.parametrize("alpha", [2.0, 8.0], ids=["sampled-round", "base-case"])
    def test_each_answer_is_certified_before_the_next_query(self, alpha, monkeypatch):
        events = []

        class LoggingOracle(LayeredGraphOracle):
            def layered_query(self, v):
                events.append(("query", v))
                return super().layered_query(v)

        def certifying(answer, *pairs):
            events.append(("certify", answer.source))
            return certified_pairs(answer, *pairs)

        monkeypatch.setattr(discovery, "certified_pairs", certifying)
        graph = gen_graph("er-connected", n=20, p=0.25, seed=1)
        result = run_network_discovery(LoggingOracle(graph), alpha=alpha, rng_seed=1)
        assert events == [(kind, v) for v in result.queried for kind in ("query", "certify")]

    @settings(max_examples=40)
    @given(graph=connected_graphs(), alpha=st.sampled_from([1.0, 2.0, 8.0]),
           rng_seed=st.integers(0, 99))
    def test_resolves_every_pair_correctly(self, graph, alpha, rng_seed):
        result = run_network_discovery(LayeredGraphOracle(graph), alpha=alpha, rng_seed=rng_seed)
        assert result.statuses == true_pair_statuses(graph.n, graph.edges())
        assert_bill_from_trace(result)

    @settings(max_examples=60, deadline=None)
    @given(graph=connected_graphs(), alpha=st.sampled_from([1.0, 2.0, 8.0]),
           rng_seed=st.integers(0, 99))
    @example(graph=Graph.from_edges(3, [(1, 2), (1, 3)]), alpha=1.0, rng_seed=0)
    def test_answer_table_changes_only_the_bill(self, graph, alpha, rng_seed):
        reference = replay_discovery(graph, alpha, rng_seed)
        # Without the table: two queries per probed pair, one per accept.
        assert reference.ledger.layered_queries == sum(
            2 * r.n_i if r.base_case else 2 * len(r.sample) + len(r.chosen)
            for r in reference.rounds
        )
        oracle = LayeredGraphOracle(graph)
        asked, query = [], oracle.layered_query
        oracle.layered_query = lambda v: asked.append(v) or query(v)
        result = run_network_discovery(oracle, alpha=alpha, rng_seed=rng_seed)
        assert list(result.statuses.items()) == list(reference.statuses.items())
        assert result.query_set == reference.query_set
        assert [replace(r, ledger_delta={}) for r in result.rounds] == [
            replace(r, ledger_delta={}) for r in reference.rounds
        ]
        assert asked == result.queried == reference.queried
        assert len(set(asked)) == len(asked) <= graph.n

    def test_g6_discovers_exact_partition(self, g6):
        result = run_network_discovery(LayeredGraphOracle(g6), alpha=8.0, rng_seed=0)
        assert result.edges == sorted(G6_EDGES)
        assert len(result.non_edges) == 9
        assert set(result.non_edges).isdisjoint(result.edges)

    def test_path_discovered_exactly(self):
        path = gen_graph("path", n=8)
        result = run_network_discovery(LayeredGraphOracle(path), alpha=8.0, rng_seed=2)
        assert result.edges == path.edges()

    def test_complete_graph_costs_at_least_opt(self):
        k4 = gen_graph("complete", n=4)
        result = run_network_discovery(LayeredGraphOracle(k4), alpha=8.0, rng_seed=1)
        assert result.edges == k4.edges()
        assert result.ledger.layered_queries >= 3

    def test_soundness_and_completeness_sweep(self):
        rng = random.Random(53)
        for _ in range(15):
            graph = random_connected_graph(rng, rng.randint(2, 10))
            result = run_network_discovery(
                LayeredGraphOracle(graph), alpha=8.0, rng_seed=rng.randint(0, 99)
            )
            assert result.statuses == true_pair_statuses(graph.n, graph.edges())

    def test_ledger_identity_from_trace(self):
        rng = random.Random(67)
        for seed in range(8):
            graph = random_connected_graph(rng, 12)
            result = run_network_discovery(LayeredGraphOracle(graph), alpha=2.0, rng_seed=seed)
            assert_bill_from_trace(result)

    def test_query_set_vertices_join_in_order(self):
        graph = gen_graph("grid", rows=3, cols=4)
        result = run_network_discovery(LayeredGraphOracle(graph), alpha=2.0, rng_seed=5)
        assert len(result.query_set) == len(set(result.query_set))

    def test_deterministic(self):
        graph = gen_graph("er-connected", n=10, p=0.3, seed=9)
        a = run_network_discovery(LayeredGraphOracle(graph), alpha=8.0, rng_seed=7)
        b = run_network_discovery(LayeredGraphOracle(graph), alpha=8.0, rng_seed=7)
        assert a.statuses == b.statuses
        assert a.query_set == b.query_set
        assert a.rounds == b.rounds
        assert a.ledger.to_json_dict() == b.ledger.to_json_dict()

    def test_report_json_shape(self, g6):
        result = run_network_discovery(LayeredGraphOracle(g6), alpha=8.0, rng_seed=0)
        doc = result.to_json_dict()
        assert set(doc) == {"edges", "query_set", "queried", "ledger", "rounds"}
        assert doc["queried"] == result.queried
        # The non-edges are the complement of the edges over all pairs; the report
        # leaves them out and the result still derives them.
        assert [list(p) for p in result.non_edges] == [
            list(p) for p in all_pairs(6) if list(p) not in doc["edges"]
        ]


def reference_vertex_sets(graph):
    """Per vertex, the 1-based ``all_pairs`` indices of the pairs its query certifies."""
    index = {pair: j for j, pair in enumerate(all_pairs(graph.n), start=1)}
    edges = graph.edges()
    return [sorted(index[p] for p in certified_by_query(graph.n, edges, v))
            for v in range(1, graph.n + 1)]


class TestOfflineVerification:
    def test_g6_optimum_is_two(self, g6):
        vertices, size = offline_verification(g6, mode="exact")
        assert size == 2
        sets = reference_vertex_sets(g6)
        assert set().union(*(sets[v - 1] for v in vertices)) == set(range(1, 16))

    def test_greedy_mode_certifies_everything(self):
        rng = random.Random(71)
        for _ in range(10):
            graph = random_connected_graph(rng, rng.randint(3, 10))
            vertices, _ = offline_verification(graph, mode="greedy")
            certified = {}
            for v in vertices:
                certified.update(certified_pairs(layered_answer(graph, v)))
            assert len(certified) == graph.n * (graph.n - 1) // 2

    def test_exact_matches_independent_enumeration(self):
        rng = random.Random(83)
        for _ in range(8):
            graph = random_connected_graph(rng, rng.randint(3, 7))
            sets = reference_vertex_sets(graph)
            expected = exhaustive_min_cover(sets, len(all_pairs(graph.n)))
            _, size = offline_verification(graph, mode="exact")
            assert size == len(expected)

    def test_complete_graphs_need_all_but_one(self):
        for n in range(3, 13):
            _, size = offline_verification(gen_graph("complete", n=n), mode="exact")
            assert size == n - 1

    def test_paths_need_one_endpoint(self):
        for n in range(3, 13):
            vertices, size = offline_verification(gen_graph("path", n=n), mode="exact")
            assert size == 1
            assert vertices[0] in (1, n)

    def test_closed_form_optima(self):
        # Offline verification is the metric dimension: 1 on paths, 2 on cycles and on
        # grids of at least 2 x 2, n - 2 on stars, n - 1 on complete graphs (Harary and
        # Melter 1976; Khuller, Raghavachari and Rosenfeld 1996 for grids). Paths and
        # complete graphs have tests of their own above.
        closed_forms = {"cycle": lambda n: 2, "star": lambda n: n - 2}
        for model, optimum in closed_forms.items():
            for n in range(3, 13):
                _, size = offline_verification(gen_graph(model, n=n), mode="exact")
                assert size == optimum(n), (model, n)
        for rows, cols in itertools.product(range(2, 7), repeat=2):
            if rows * cols <= 12:
                graph = gen_graph("grid", rows=rows, cols=cols)
                assert offline_verification(graph, mode="exact")[1] == 2, (rows, cols)

    @settings(max_examples=60, deadline=None)
    @given(graph=connected_graphs())
    def test_both_modes_match_the_reference_instance(self, graph):
        sets = reference_vertex_sets(graph)
        n_pairs = len(all_pairs(graph.n))
        picks, witness = naive_greedy(sets, n_pairs, theta=1.0)
        assert witness is None
        assert offline_verification(graph, mode="greedy") == (picks, len(picks))
        optimum = list(brute_force_min_cover(build_set_system(sets, n_pairs)).set_indices)
        assert offline_verification(graph, mode="exact") == (optimum, len(optimum))

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    def test_one_vertex_graph_needs_no_query(self, mode):
        assert offline_verification(Graph.from_edges(1, []), mode=mode) == ([], 0)

    @pytest.mark.parametrize("mode, message", [
        ("greedy", "verification entries of 820 vertices is 275180110; at most 268435456"),
        ("exact", "capped at n <= 12"),
    ])
    def test_oversized_instance_is_refused_before_it_is_built(self, mode, message, monkeypatch):
        # Sum over v of [C(820, 2) - sum over v's levels of C(size, 2)] entries, past 2^28;
        # the exact cap refuses such a graph first.
        monkeypatch.setattr(discovery, "build_set_system", None)
        with pytest.raises(ValueError, match=re.escape(message)):
            offline_verification(gen_graph("path", n=820), mode=mode)

    def test_too_many_pairs_are_refused_before_any_bfs(self, monkeypatch):
        # C(1449, 2) is past 2^20; the entry cap would refuse it only after 1449 BFS.
        def bfs(graph, v):
            raise AssertionError("a BFS ran before the pair cap was checked")

        monkeypatch.setattr(discovery, "layered_answer", bfs)
        with pytest.raises(ValueError, match="vertex pairs of 1449 vertices is 1049076; at most"):
            offline_verification(gen_graph("path", n=1449), mode="greedy")

    def test_exact_cap(self):
        with pytest.raises(ValueError, match="cap"):
            offline_verification(gen_graph("path", n=13), mode="exact")

    def test_unknown_mode(self, g6):
        with pytest.raises(ValueError):
            offline_verification(g6, mode="fast")


class TestCompetitiveRatio:
    def test_arithmetic(self, g6):
        result = run_network_discovery(LayeredGraphOracle(g6), alpha=8.0, rng_seed=0)
        _, opt = offline_verification(g6, mode="exact")
        ratio = competitive_ratio(result, opt)
        assert ratio == result.ledger.layered_queries / 2

    def test_requires_positive_opt(self, g6):
        result = run_network_discovery(LayeredGraphOracle(g6), alpha=8.0, rng_seed=0)
        with pytest.raises(ValueError):
            competitive_ratio(result, 0)
