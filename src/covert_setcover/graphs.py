"""Connected undirected graphs and layered shortest-path query answers.

A layered query at a vertex v reveals every edge lying on a shortest path
from v, i.e. every present edge joining consecutive BFS levels. That is
equivalent to certifying each vertex pair at different distances from v:
consecutive levels are an edge iff listed, levels two or more apart are
always a non-edge, and pairs on the same level stay unresolved.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import itemgetter, ne

Pair = tuple[int, int]


@lru_cache(maxsize=4)
def all_pairs(n: int) -> tuple[Pair, ...]:
    """Every unordered vertex pair, lexicographically.

    Cached per ``n``, so every caller shares the same pair objects: a run's
    pair statuses, round samples and edge lists then hold references to
    them instead of fresh tuples.
    """
    return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


@dataclass(frozen=True)
class Graph:
    """Connected, undirected, unweighted graph on vertices 1..n."""

    n: int
    adjacency: tuple[frozenset[int], ...]

    def edges(self) -> list[Pair]:
        return [
            (u, v)
            for u in range(1, self.n + 1)
            for v in sorted(self.adjacency[u - 1])
            if u < v
        ]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build and validate: integer in-range endpoints, no self-loops, connected."""
        if type(n) is not int or n < 1:
            raise ValueError(f"vertex count must be an integer >= 1, got {n!r}")
        if not isinstance(edges, Iterable):
            raise ValueError(f"edges must be an iterable of vertex pairs, got {edges!r}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for edge in edges:
            u, v = edge
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
        if self.n == 1:
            return True
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
    if not isinstance(doc, dict):
        raise ValueError(f"a graph must be a JSON object, got {type(doc).__name__}")
    for key in ("n", "edges"):
        if key not in doc:
            raise ValueError(f'graph JSON has no "{key}" field')
    edges = doc["edges"]
    if not (isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2 for e in edges)):
        raise ValueError('graph "edges" must be a list of [u, v] pairs')
    return Graph.from_edges(doc["n"], edges)


@dataclass(frozen=True)
class LayeredAnswer:
    """Answer to a layered query: BFS levels plus the consecutive-level edges."""

    source: int
    dist: tuple[int, ...]
    shortest_path_edges: frozenset[Pair]


def layered_answer(graph: Graph, v: int) -> LayeredAnswer:
    """Compute the layered answer at ``v`` (offline; nothing is metered here)."""
    if type(v) is not int:
        raise ValueError(f"vertex {v!r} is not an integer")
    if not 1 <= v <= graph.n:
        raise ValueError(f"vertex {v} outside [1, {graph.n}]")
    dist = [-1] * graph.n
    dist[v - 1] = 0
    edges: list[Pair] = []
    queue = deque([v])
    while queue:
        u = queue.popleft()
        next_level = dist[u - 1] + 1
        for w in graph.adjacency[u - 1]:
            if dist[w - 1] < 0:
                dist[w - 1] = next_level
                queue.append(w)
            # Each consecutive-level edge is listed once, from its lower endpoint.
            if dist[w - 1] == next_level:
                edges.append((u, w) if u < w else (w, u))
    return LayeredAnswer(source=v, dist=tuple(dist), shortest_path_edges=frozenset(edges))


def certified_pairs(answer: LayeredAnswer, pairs: Sequence[Pair] | None = None) -> dict[Pair, bool]:
    """Statuses that one layered answer certifies among ``pairs`` (default :func:`all_pairs`).

    Each pair at different levels maps to ``pair in shortest_path_edges``;
    for an answer of :func:`layered_answer` that is an edge exactly at
    consecutive levels and a non-edge across a gap of two or more. Equal-level
    pairs (including any two distance-1 neighbors of the source) are left out.
    The keys are the tuples of ``pairs`` themselves, in their order.
    """
    if pairs is None:
        pairs = all_pairs(len(answer.dist))
    level = (None, *answer.dist)
    u_levels = map(level.__getitem__, map(itemgetter(0), pairs))
    w_levels = map(level.__getitem__, map(itemgetter(1), pairs))
    resolved = list(compress(pairs, map(ne, u_levels, w_levels)))
    return dict(zip(resolved, map(answer.shortest_path_edges.__contains__, resolved)))
