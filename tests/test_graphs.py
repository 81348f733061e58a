import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covert_setcover.generators import gen_graph
from covert_setcover.graphs import (
    Graph,
    LayeredAnswer,
    all_pairs,
    certified_pairs,
    graph_from_json_dict,
    graph_to_json_dict,
    layered_answer,
)

from oracles import bfs_levels, certified_by_query, true_pair_statuses
from strategies import connected_graphs

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
            for v in g6.adjacency[u - 1]:
                assert u in g6.adjacency[v - 1]

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

    @pytest.mark.parametrize("v", [True, 2.0, "1"], ids=["bool", "float", "str"])
    def test_non_integer_vertex_rejected(self, g6, v):
        # True == 1 and 2.0 == 2, but neither is a vertex.
        with pytest.raises(ValueError, match="is not an integer"):
            layered_answer(g6, v)

    def test_a_hand_built_answer_is_the_computed_one(self):
        # The level planes are cached on the answer but are no field of it.
        computed = layered_answer(gen_graph("er-connected", n=12, p=0.3, seed=2), 5)
        built = LayeredAnswer(5, computed.dist, computed.shortest_path_edges)

        def alike():
            return (built == computed and hash(built) == hash(computed)
                    and repr(built) == repr(computed))

        assert alike()
        assert built._planes == computed._planes
        assert alike()

    def test_levels_match_reference_bfs(self):
        rng = random.Random(13)
        for _ in range(20):
            graph = random_connected_graph(rng, rng.randint(2, 10))
            v = rng.randint(1, graph.n)
            expected = bfs_levels(graph.n, graph.edges(), v)
            answer = layered_answer(graph, v)
            assert {x: answer.dist[x - 1] for x in range(1, graph.n + 1)} == expected


@st.composite
def level_pairs(draw):
    """Two equal-length level tuples with every level in [0, 65535]."""
    n = draw(st.integers(0, 40))
    levels = st.lists(st.integers(0, 65535), min_size=n, max_size=n).map(tuple)
    return draw(levels), draw(levels)


class TestDiffering:
    @settings(max_examples=150)
    @given(levels=level_pairs())
    @example(levels=((0, 255, 7), (0, 511, 7)))  # equal low bytes: only the high planes differ
    @example(levels=((256, 3), (257, 3)))  # equal high bytes
    @example(levels=((65535, 0, 65535), (0, 65535, 65535)))
    def test_matches_the_level_rule(self, levels):
        a, b = levels
        expected = tuple(x for x in range(1, len(a) + 1) if a[x - 1] != b[x - 1])
        built = [LayeredAnswer(1, dist, frozenset()) for dist in levels]
        assert built[0].differing(built[1]) == expected
        assert built[1].differing(built[0]) == expected

    @pytest.mark.parametrize("level", [-1, 65536, 1.5])
    def test_levels_outside_the_range_are_refused(self, level):
        bad = LayeredAnswer(1, (0, level), frozenset())
        good = LayeredAnswer(1, (0, 1), frozenset())
        with pytest.raises(ValueError, match=r"levels must be ints in \[0, 65535\]"):
            good.differing(bad)
        with pytest.raises(ValueError, match=r"levels must be ints in \[0, 65535\]"):
            bad.differing(good)


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

    @pytest.mark.parametrize(
        "pairs",
        [[(0, 2)], [(-1, 1)], [(2, 0)], [(1, 2), (3, -3)], [(1, 4)], [(1, "2")], [3], [(1,)],
         [{1, 2}]],
        ids=["zero", "negative", "zero-second", "negative-later", "above-n", "str", "int",
             "one-vertex", "set"],
    )
    def test_a_pair_outside_the_graph_is_rejected(self, pairs):
        # Path 1-2-3 answered at vertex 1: vertex 0 would read the padding level and
        # vertex -1 the last level, and either pair would come back a certified non-edge.
        answer = layered_answer(gen_graph("path", n=3), 1)
        with pytest.raises(ValueError, match="pairs must hold vertex pairs of the answer's graph"):
            certified_pairs(answer, pairs)

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
                    assert answer.dist[u - 1] != answer.dist[w - 1]
                    assert claimed == truth[(u, w)]
                for (u, w) in truth:
                    if answer.dist[u - 1] != answer.dist[w - 1]:
                        assert (u, w) in statuses


@st.composite
def pair_sublists(draw, n):
    """A lexicographic sub-list of all_pairs(n) as fresh tuples: none, one, all or a random subset."""
    pairs = all_pairs(n)
    kind = draw(st.sampled_from(["empty", "single", "all", "random"]))
    if kind == "empty":
        chosen = []
    elif kind == "single":
        chosen = [draw(st.sampled_from(pairs))]
    elif kind == "all":
        chosen = list(pairs)
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        chosen = [p for p, k in zip(pairs, keep) if k]
    return [(u, w) for u, w in chosen]


@settings(max_examples=80)
@given(data=st.data())
def test_certified_pairs_matches_distance_rule_on_given_pairs(data):
    graph = data.draw(connected_graphs())
    v = data.draw(st.integers(1, graph.n))
    pairs = data.draw(pair_sublists(graph.n))
    statuses = certified_pairs(layered_answer(graph, v), pairs)
    expected = certified_by_query(graph.n, graph.edges(), v)
    assert statuses == {p: expected[p] for p in pairs if p in expected}
    assert list(statuses) == [p for p in pairs if p in expected]
    passed = {id(p) for p in pairs}
    assert all(id(key) in passed for key in statuses)


@settings(max_examples=60)
@given(graph=connected_graphs(), data=st.data())
def test_answer_table_matches_bfs_and_shares_edge_tuples(graph, data):
    edges = graph.edges()
    order = data.draw(st.permutations(range(1, graph.n + 1)))
    first = {v: layered_answer(graph, v) for v in order}
    order = data.draw(st.permutations(range(1, graph.n + 1)))
    assert all(layered_answer(graph, v) is first[v] for v in order)
    shared = {}
    for v, answer in first.items():
        levels = bfs_levels(graph.n, edges, v)
        assert answer.dist == tuple(levels[x] for x in range(1, graph.n + 1))
        assert certified_pairs(answer) == certified_by_query(graph.n, edges, v)
        # An edge listed by two answers is one tuple, not one per answer.
        assert all(shared.setdefault(e, e) is e for e in answer.shortest_path_edges)
