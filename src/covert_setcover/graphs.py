"""Connected undirected graphs and layered shortest-path query answers.

A layered query at a vertex v reveals every edge lying on a shortest path
from v, i.e. every present edge joining consecutive BFS levels. That is
equivalent to certifying each vertex pair at different distances from v:
consecutive levels are an edge iff listed, levels two or more apart are
always a non-edge, and pairs on the same level stay unresolved.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, compress

from .errors import require_count, require_document, require_index, require_instance, require_size
from .setsystem import _numbers

Pair = tuple[int, int]


@lru_cache(maxsize=4)
def all_pairs(n: int) -> tuple[Pair, ...]:
    """Every unordered vertex pair, lexicographically.

    Cached per ``n``, so every caller shares the same pair objects: a run's
    pair statuses, round samples and edge lists then hold references to
    them instead of fresh tuples. More than ``MAX_INSTANCE_SIZE`` pairs raise
    ``ValueError`` before any is made.
    """
    require_size(f"the number of vertex pairs of {n} vertices", n * (n - 1) // 2)
    return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


@dataclass(frozen=True)
class Graph:
    """Connected, undirected, unweighted graph on vertices 1..n.

    :func:`layered_answer` keeps each vertex's answer in ``_answers``, and
    edge {u, w}'s one tuple at ``_edge_rows[u - 1][w]``, so every reader of
    the graph shares one BFS per vertex. Equality, hash and repr ignore both.
    """

    n: int
    adjacency: tuple[frozenset[int], ...]
    _answers: dict[int, LayeredAnswer] = field(
        default_factory=dict, init=False, compare=False, repr=False)
    _edge_rows: list[dict[int, Pair]] = field(
        default_factory=list, init=False, compare=False, repr=False)

    def edges(self) -> list[Pair]:
        return [
            (u, v)
            for u in range(1, self.n + 1)
            for v in sorted(self.adjacency[u - 1])
            if u < v
        ]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build and validate: n capped, endpoints in [1, n], no self-loops, connected."""
        require_count("the vertex count", n)
        if not isinstance(edges, Iterable):
            raise ValueError(f"edges must be an iterable of vertex pairs, got {edges!r}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"edges must hold vertex pairs, got {edge!r}") from None
            # type() rather than isinstance(): True is an int instance but not a vertex.
            if not (type(u) is int and type(v) is int and 1 <= u <= n and 1 <= v <= n):
                raise ValueError(
                    f"edge ({u!r}, {v!r}) has an endpoint outside [1, {n}] or not an integer"
                )
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u - 1].add(v)
            adj[v - 1].add(u)
        graph = cls(n=n, adjacency=tuple(frozenset(s) for s in adj))
        if not graph.is_connected():
            raise ValueError("graph is not connected")
        return graph

    def is_connected(self) -> bool:
        seen = {1}
        queue = deque([1])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u - 1]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n


def graph_to_json_dict(graph: Graph) -> dict:
    return {"n": graph.n, "edges": [list(e) for e in graph.edges()]}


def graph_from_json_dict(doc: dict) -> Graph:
    """Parse {"n": ..., "edges": [[u, v], ...]}; a malformed document raises ValueError."""
    require_document(doc, "graph", ("n", "edges"))
    return Graph.from_edges(doc["n"], doc["edges"])


@dataclass(frozen=True)
class LayeredAnswer:
    """Answer to a layered query: BFS levels plus the consecutive-level edges."""

    source: int
    dist: tuple[int, ...]
    shortest_path_edges: frozenset[Pair]

    @cached_property
    def _planes(self) -> tuple[int, int]:
        """``dist``'s low bytes and its high bytes, one byte per vertex each, as two ints.

        Read off one ``array("H")`` of ``dist`` at first use. Levels stay below
        2^16 under the 1448-vertex cap; one outside [0, 2^16) raises
        ``ValueError``. Equality, hash and repr ignore the planes.
        """
        try:
            levels = array("H", self.dist)
        except (TypeError, OverflowError):
            raise ValueError("a layered answer's levels must be ints in [0, 65535]") from None
        if sys.byteorder == "big":
            levels.byteswap()
        data = levels.tobytes()  # little-endian: each level's low byte, then its high byte
        return int.from_bytes(data[::2], "big"), int.from_bytes(data[1::2], "big")

    def differing(self, other: LayeredAnswer) -> tuple[int, ...]:
        """H(u, v) with ``other``, of one graph, in :func:`.setsystem._numbers`' shared vertex ints.

        A byte of the low planes' XOR, ORed with the high planes' XOR where
        those differ, is nonzero exactly where the two levels differ.
        """
        n = len(self.dist)
        low, high = self._planes
        other_low, other_high = other._planes
        flags = low ^ other_low
        if high != other_high:
            flags |= high ^ other_high
        return tuple(compress(_numbers(n), flags.to_bytes(n, "big")))


def layered_answer(graph: Graph, v: int) -> LayeredAnswer:
    """The layered answer at ``v`` (offline; nothing is metered here).

    Computed once per graph and vertex; later calls return the same object.
    The checks come before the lookup, since 2.0 == 2 would find vertex 2.
    """
    require_instance("graph", graph, Graph)
    require_index("vertex", v, graph.n)
    answer = graph._answers.get(v)
    if answer is not None:
        return answer
    rows = graph._edge_rows
    if not rows:
        rows.extend({} for _ in range(graph.n))
        for u, w in graph.edges():
            rows[u - 1][w] = rows[w - 1][u] = (u, w)
    dist = [-1] * graph.n
    dist[v - 1] = 0
    edges: list[Pair] = []
    queue = deque([v])
    while queue:
        u = queue.popleft()
        next_level = dist[u - 1] + 1
        for w, edge in rows[u - 1].items():
            if dist[w - 1] < 0:
                dist[w - 1] = next_level
                queue.append(w)
            # Each consecutive-level edge is listed once, from its lower endpoint.
            if dist[w - 1] == next_level:
                edges.append(edge)
    answer = graph._answers[v] = LayeredAnswer(
        source=v, dist=tuple(dist), shortest_path_edges=frozenset(edges))
    return answer


def certified_pairs(answer: LayeredAnswer, pairs: Sequence[Pair] | None = None) -> dict[Pair, bool]:
    """Statuses that one layered answer certifies among ``pairs`` (default :func:`all_pairs`).

    Each pair at different levels maps to ``pair in shortest_path_edges``;
    for an answer of :func:`layered_answer` that is an edge exactly at
    consecutive levels and a non-edge across a gap of two or more. Equal-level
    pairs (including any two distance-1 neighbors of the source) are left out.
    The keys are the tuples of ``pairs`` themselves, in their order; an item
    that is not a pair of vertex numbers in [1, n] raises ``ValueError``.
    """
    require_instance("answer", answer, LayeredAnswer)
    if pairs is None:
        pairs = all_pairs(len(answer.dist))
    level = (None, *answer.dist)
    try:
        # level[0] is padding and a negative index reads from the end, so neither raises.
        if min(chain.from_iterable(pairs), default=1) < 1:
            raise IndexError
        resolved = [p for p in pairs if level[p[0]] != level[p[1]]]
    except (TypeError, IndexError):
        raise ValueError("pairs must hold vertex pairs of the answer's graph") from None
    edges = answer.shortest_path_edges
    return {p: p in edges for p in resolved}
