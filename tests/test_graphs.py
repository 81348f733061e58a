import random

import pytest

from covert_setcover.generators import gen_graph
from covert_setcover.graphs import (
    Graph,
    all_pairs,
    certified_pairs,
    graph_from_json_dict,
    graph_to_json_dict,
    layered_answer,
)

from oracles import bfs_levels, true_pair_statuses

G6_EDGES = [(1, 2), (1, 3), (3, 4), (3, 5), (4, 6), (5, 6)]


@pytest.fixture
def g6():
    return Graph.from_edges(6, G6_EDGES)


def random_connected_graph(rng, n):
    """Random spanning tree plus extra random edges."""
    edges = []
    vertices = list(range(1, n + 1))
    rng.shuffle(vertices)
    for j in range(1, n):
        edges.append((vertices[rng.randrange(j)], vertices[j]))
    for u, v in all_pairs(n):
        if rng.random() < 0.2:
            edges.append((u, v))
    return Graph.from_edges(n, edges)


class TestConstruction:
    def test_adjacency_symmetric(self, g6):
        for u in range(1, 7):
            for v in g6.neighbors(u):
                assert u in g6.neighbors(v)

    def test_edges_listing(self, g6):
        assert g6.edges() == sorted(G6_EDGES)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(1, 1), (1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            Graph.from_edges(2, [(1, 3)])

    @pytest.mark.parametrize("edge", [(1, 2.0), (True, 2)], ids=["float", "bool"])
    def test_non_integer_endpoint_rejected(self, edge):
        with pytest.raises(ValueError, match="outside"):
            Graph.from_edges(2, [edge])

    @pytest.mark.parametrize(
        "doc",
        [
            [[1, 2]],
            {"n": 2.0, "edges": [[1, 2]]},
            {"n": 2, "edges": [[1, 2, 3]]},
            {"n": 2, "edges": 5},
        ],
        ids=["list-document", "float-n", "triple-edge", "edges-not-a-list"],
    )
    def test_malformed_json_rejected(self, doc):
        with pytest.raises(ValueError):
            graph_from_json_dict(doc)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="not connected"):
            Graph.from_edges(4, [(1, 2), (3, 4)])

    def test_duplicate_edges_collapse(self):
        graph = Graph.from_edges(2, [(1, 2), (2, 1), (1, 2)])
        assert graph.edges() == [(1, 2)]

    def test_single_vertex(self):
        graph = Graph.from_edges(1, [])
        assert graph.is_connected()

    def test_json_round_trip(self, g6):
        assert graph_from_json_dict(graph_to_json_dict(g6)) == g6


class TestLayeredAnswer:
    def test_g6_levels_from_vertex_one(self, g6):
        assert layered_answer(g6, 1).dist == (0, 1, 1, 2, 2, 3)

    def test_path_lists_every_edge(self):
        path = gen_graph("path", n=4)
        answer = layered_answer(path, 1)
        assert answer.dist == (0, 1, 2, 3)
        assert answer.shortest_path_edges == {(1, 2), (2, 3), (3, 4)}

    def test_complete_graph_sees_only_its_own_edges(self):
        k4 = gen_graph("complete", n=4)
        answer = layered_answer(k4, 1)
        assert answer.dist == (0, 1, 1, 1)
        assert answer.shortest_path_edges == {(1, 2), (1, 3), (1, 4)}

    def test_vertex_out_of_range(self, g6):
        with pytest.raises(ValueError):
            layered_answer(g6, 7)

    def test_levels_match_reference_bfs(self):
        rng = random.Random(13)
        for _ in range(20):
            graph = random_connected_graph(rng, rng.randint(2, 10))
            v = rng.randint(1, graph.n)
            expected = bfs_levels(graph.n, graph.edges(), v)
            answer = layered_answer(graph, v)
            assert {x: answer.distance(x) for x in range(1, graph.n + 1)} == expected


class TestCertifiedPairs:
    def test_g6_query_at_one_certifies_13_of_15(self, g6):
        statuses = certified_pairs(layered_answer(g6, 1))
        assert len(statuses) == 13
        unresolved = set(all_pairs(6)) - set(statuses)
        assert unresolved == {(2, 3), (4, 5)}

    def test_path_endpoint_certifies_everything(self):
        path = gen_graph("path", n=4)
        statuses = certified_pairs(layered_answer(path, 1))
        assert len(statuses) == 6
        assert statuses == true_pair_statuses(4, path.edges())

    def test_complete_graph_certifies_only_incident_pairs(self):
        k4 = gen_graph("complete", n=4)
        statuses = certified_pairs(layered_answer(k4, 1))
        assert set(statuses) == {(1, 2), (1, 3), (1, 4)}
        assert all(statuses.values())

    def test_equivalence_with_distance_rule(self):
        # The listed-edges derivation must agree with certifying every
        # different-distance pair straight from the hidden adjacency.
        rng = random.Random(37)
        for _ in range(25):
            graph = random_connected_graph(rng, rng.randint(2, 10))
            truth = true_pair_statuses(graph.n, graph.edges())
            for v in range(1, graph.n + 1):
                answer = layered_answer(graph, v)
                statuses = certified_pairs(answer)
                for (u, w), claimed in statuses.items():
                    assert answer.distance(u) != answer.distance(w)
                    assert claimed == truth[(u, w)]
                for (u, w) in truth:
                    if answer.distance(u) != answer.distance(w):
                        assert (u, w) in statuses
