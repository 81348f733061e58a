import io
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covert_setcover import discovery
from covert_setcover.discovery import (
    LayeredGraphOracle,
    competitive_ratio,
    hitting_set_H,
    offline_verification,
    run_network_discovery,
    verification_system,
)
from covert_setcover.generators import gen_graph
from covert_setcover.graphs import Graph, all_pairs, certified_pairs, layered_answer
from covert_setcover.setsystem import verify_cover

from oracles import exhaustive_min_cover, true_pair_statuses
from strategies import connected_graphs
from test_graphs import G6_EDGES, random_connected_graph


@pytest.fixture
def g6():
    return Graph.from_edges(6, G6_EDGES)


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


class TestHittingSet:
    def test_g6_pair_2_3(self, g6):
        oracle = LayeredGraphOracle(g6)
        hset, (ans_u, ans_v) = hitting_set_H(oracle, 2, 3)
        assert hset == {2, 3, 4, 5, 6}
        assert oracle.ledger.layered_queries == 2
        assert (ans_u.source, ans_v.source) == (2, 3)
        assert certified_pairs(ans_u)[(2, 3)] is False  # the probed pair certifies itself

    def test_endpoints_always_inside(self):
        rng = random.Random(3)
        for _ in range(10):
            graph = random_connected_graph(rng, rng.randint(2, 8))
            oracle = LayeredGraphOracle(graph)
            for u, v in all_pairs(graph.n):
                hset, _ = hitting_set_H(oracle, u, v)
                assert u in hset and v in hset

    def test_complete_graph_pair_is_its_own_hitting_set(self):
        for n in (4, 6):
            oracle = LayeredGraphOracle(gen_graph("complete", n=n))
            hset, _ = hitting_set_H(oracle, 2, 3)
            assert hset == {2, 3}

    def test_same_vertex_rejected(self, g6):
        with pytest.raises(ValueError):
            hitting_set_H(LayeredGraphOracle(g6), 2, 2)

    def test_duality_with_certificates(self):
        # x in H(u, v) exactly when a query at x certifies {u, v}.
        rng = random.Random(41)
        for _ in range(8):
            graph = random_connected_graph(rng, rng.randint(2, 8))
            oracle = LayeredGraphOracle(graph)
            answers = {x: layered_answer(graph, x) for x in range(1, graph.n + 1)}
            for u, v in all_pairs(graph.n):
                hset, _ = hitting_set_H(oracle, u, v)
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
        assert result.ledger.layered_queries > len(sources)

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

    @settings(max_examples=40)
    @given(graph=connected_graphs(), alpha=st.sampled_from([1.0, 2.0, 8.0]),
           rng_seed=st.integers(0, 99))
    def test_resolves_every_pair_correctly(self, graph, alpha, rng_seed):
        result = run_network_discovery(LayeredGraphOracle(graph), alpha=alpha, rng_seed=rng_seed)
        assert result.statuses == true_pair_statuses(graph.n, graph.edges())
        # The ledger rebuilt from the trace: two queries per probed pair, one per accept.
        assert result.ledger.layered_queries == sum(
            2 * r.n_i if r.base_case else 2 * len(r.sample) + len(r.chosen)
            for r in result.rounds
        )

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
            expected = sum(
                2 * r.n_i if r.base_case else 2 * len(r.sample) + len(r.chosen)
                for r in result.rounds
            )
            assert result.ledger.layered_queries == expected

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
        doc = result.to_json_dict(competitive_ratio=3.0)
        assert set(doc) == {
            "edges", "query_set", "ledger", "rounds", "competitive_ratio",
        }
        # The non-edges are the complement of the edges over all pairs; the report
        # leaves them out and the result still derives them.
        assert [list(p) for p in result.non_edges] == [
            list(p) for p in all_pairs(6) if list(p) not in doc["edges"]
        ]


class TestOfflineVerification:
    def test_g6_optimum_is_two(self, g6):
        vertices, size = offline_verification(g6, mode="exact")
        assert size == 2
        system = verification_system(g6)
        assert verify_cover(system, vertices)

    def test_complete_graphs_need_all_but_one(self):
        for n in range(4, 9):
            _, size = offline_verification(gen_graph("complete", n=n), mode="exact")
            assert size == n - 1

    def test_paths_need_one_endpoint(self):
        for n in range(4, 11):
            vertices, size = offline_verification(gen_graph("path", n=n), mode="exact")
            assert size == 1

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
            system = verification_system(graph)
            sets = [sorted(s) for s in system.sets]
            expected = exhaustive_min_cover(sets, system.universe_size)
            _, size = offline_verification(graph, mode="exact")
            assert size == len(expected)

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
