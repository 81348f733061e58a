"""Connected undirected graphs and layered shortest-path query answers.

A layered query at a vertex v reveals every edge lying on a shortest path
from v, i.e. every present edge joining consecutive BFS levels. That is
equivalent to certifying each vertex pair at different distances from v:
consecutive levels are an edge iff listed, levels two or more apart are
always a non-edge, and pairs on the same level stay unresolved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

Pair = tuple[int, int]


def ordered_pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


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

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v - 1]

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

    def distance(self, v: int) -> int:
        return self.dist[v - 1]


def layered_answer(graph: Graph, v: int) -> LayeredAnswer:
    """Compute the layered answer at ``v`` (offline; nothing is metered here)."""
    if not 1 <= v <= graph.n:
        raise ValueError(f"vertex {v} outside [1, {graph.n}]")
    dist = [-1] * graph.n
    dist[v - 1] = 0
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in graph.adjacency[u - 1]:
            if dist[w - 1] < 0:
                dist[w - 1] = dist[u - 1] + 1
                queue.append(w)
    edges = frozenset(
        ordered_pair(u, w)
        for u in range(1, graph.n + 1)
        for w in graph.adjacency[u - 1]
        if u < w and abs(dist[u - 1] - dist[w - 1]) == 1
    )
    return LayeredAnswer(source=v, dist=tuple(dist), shortest_path_edges=edges)


def certified_pairs(answer: LayeredAnswer) -> dict[Pair, bool]:
    """Pair statuses certified by one layered answer.

    Pairs at different levels are resolved: consecutive levels are an edge
    exactly when the answer lists them, gaps of two or more levels are
    non-edges. Equal-level pairs (including any pair of the source's
    distance-1 neighbors) stay out of the mapping. The keys are the shared
    tuples of :func:`all_pairs`, in the same lexicographic order.
    """
    dist = answer.dist
    edges = answer.shortest_path_edges
    statuses: dict[Pair, bool] = {}
    for pair in all_pairs(len(dist)):
        u, w = pair
        gap = abs(dist[u - 1] - dist[w - 1])
        if gap == 1:
            statuses[pair] = pair in edges
        elif gap >= 2:
            statuses[pair] = False
    return statuses
