"""Online network discovery and offline verification via layered queries.

Discovery is the covert cover problem in disguise: the unresolved vertex
pairs are the elements, each vertex v is the set of pairs its layered
query certifies, and probing a pair (u, v) with two layered queries yields
the dual set H(u, v) = { x : d(u, x) != d(v, x) } of vertices whose query
would certify it. The sampled rounds are those of the abstract algorithm
(:func:`.pseudo_greedy.sampled_greedy`) with N = n^2; every certificate
obtained along the way is recorded immediately, but the unresolved count
is refreshed only at round boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count, filterfalse
from operator import ne
from typing import IO

from .errors import require_oracle
from .oracle import MeteredOracle, QueryLedger
# draw_round_sample is kept in this namespace as the sampler of discovery
# rounds; perfbench/tracing.py wraps it under this name.
from .pseudo_greedy import DEFAULT_ALPHA, draw_round_sample, sampled_greedy  # noqa: F401
from .results import RoundState
from .setsystem import brute_force_min_cover, build_set_system, greedy_cover
from .graphs import (
    Graph,
    LayeredAnswer,
    Pair,
    all_pairs,
    certified_pairs,
    layered_answer,
)

EXACT_VERIFICATION_VERTEX_CAP = 12


class LayeredGraphOracle(MeteredOracle):
    """Metered layered-query access to a hidden connected graph.

    Only the vertex count is free; every layered query costs one ledger
    increment and is logged with kind "layered" and the BFS levels as its
    answer. A vertex outside the graph is rejected before it is charged.
    Each vertex's answer is computed once and memoized, but a repeated
    query is still charged and logged like the first.
    """

    hidden_type = Graph

    def __init__(self, hidden: Graph, log_stream: IO[str] | None = None):
        super().__init__(hidden, log_stream)
        self._answers: dict[int, LayeredAnswer] = {}

    @property
    def n_vertices(self) -> int:
        return self._hidden.n

    def layered_query(self, v: int) -> LayeredAnswer:
        if type(v) is not int:
            # 2.0 == 2, so a float would otherwise find vertex 2's memoized answer.
            raise ValueError(f"vertex {v!r} is not an integer")
        answer = self._answers.get(v)
        if answer is None:
            # layered_answer rejects an out-of-range vertex before anything is stored.
            answer = self._answers[v] = layered_answer(self._hidden, v)
        self._charge("layered", "layered", v, answer.dist)
        return answer


def hitting_set_H(
    oracle: LayeredGraphOracle, u: int, v: int
) -> tuple[frozenset[int], tuple[LayeredAnswer, LayeredAnswer]]:
    """Vertices whose query certifies the pair {u, v}, via two layered queries.

    Queries both endpoints (ledger +2) and returns H = the vertices at
    different distances from u and v, together with the two answers
    (ans_u, ans_v), whose certificates the caller may record as side
    information. u and v always belong to H, so the pair itself is
    certified by either answer.
    """
    if u == v:
        raise ValueError(f"pair endpoints must differ, got ({u}, {v})")
    ans_u = oracle.layered_query(u)
    ans_v = oracle.layered_query(v)
    hset = frozenset(compress(count(1), map(ne, ans_u.dist, ans_v.dist)))
    return hset, (ans_u, ans_v)


@dataclass
class DiscoveryResult:
    """Complete pair statuses, the chosen query set Q, and the query bill."""

    statuses: dict[Pair, bool]
    query_set: list[int]
    ledger: QueryLedger
    rounds: list[RoundState] = field(default_factory=list)

    @property
    def edges(self) -> list[Pair]:
        return sorted(p for p, is_edge in self.statuses.items() if is_edge)

    @property
    def non_edges(self) -> list[Pair]:
        return sorted(p for p, is_edge in self.statuses.items() if not is_edge)

    def to_json_dict(self) -> dict:
        """The report; every pair of ``all_pairs(n)`` not in its edges is a non-edge."""
        return {
            "edges": [list(p) for p in self.edges],
            "query_set": list(self.query_set),
            "ledger": self.ledger.to_json_dict(),
            "rounds": [r.to_json_dict() for r in self.rounds],
        }


def run_network_discovery(
    oracle: LayeredGraphOracle, alpha: float = DEFAULT_ALPHA, rng_seed: int = 0
) -> DiscoveryResult:
    """Discover every edge and non-edge of a hidden connected graph.

    Runs the sampled greedy rounds of :func:`.pseudo_greedy.sampled_greedy`
    with unresolved pairs as elements and vertices as sets: a probe of a pair
    is :func:`hitting_set_H` (two layered queries, side certificates recorded
    immediately) and accepting a vertex layered-queries it once as its
    coverage update. The base case probes every remaining pair and reduces
    the residue to an explicit set cover over the vertices. N = n^2, so the
    round threshold is 2*alpha*log2(n). Always terminates with every pair certified;
    the query set Q is the online analogue of the cover.

    Every query is charged, but a vertex's certificates are recorded only
    the first time an answer from it arrives: its answer never changes, so
    recording it again would change no key, value or order of ``statuses``.
    A learned vertex reads only ``unresolved``, the pairs not yet in
    ``statuses`` in lexicographic order. Each update rebinds it to a new
    list, so the list a round was handed at its boundary stays unchanged.
    """
    require_oracle(oracle, LayeredGraphOracle)
    n = oracle.n_vertices
    statuses: dict[Pair, bool] = {}
    unresolved: list[Pair] = list(all_pairs(n))
    learned: set[int] = set()

    def learn(answer: LayeredAnswer) -> dict[Pair, bool]:
        nonlocal unresolved
        if answer.source in learned:
            return {}
        learned.add(answer.source)
        certified = certified_pairs(answer, unresolved)
        statuses.update(certified)
        unresolved = list(filterfalse(certified.__contains__, unresolved))
        return certified

    def probe(pair: Pair) -> frozenset[int]:
        hset, (ans_u, ans_v) = hitting_set_H(oracle, *pair)
        learn(ans_u)
        learn(ans_v)
        return hset

    def accept(x: int) -> dict[Pair, bool]:
        return learn(oracle.layered_query(x))

    # x is in H(u, v) exactly when a query at x certifies {u, v}, so no
    # vertex is chosen twice: Q is the engine's pick list as it stands.
    query_set, rounds, _ = sampled_greedy(
        oracle, lambda: unresolved, probe, accept,
        n_total=n * n, alpha=alpha, rng_seed=rng_seed,
    )
    return DiscoveryResult(statuses=statuses, query_set=query_set,
                           ledger=oracle.ledger_snapshot(), rounds=rounds)


def verification_system(graph: Graph):
    """Explicit cover instance: all pairs as elements, per-vertex certificates as sets.

    Element j+1 of the system is ``all_pairs(graph.n)[j]``.
    """
    pair_ix = {p: j for j, p in enumerate(all_pairs(graph.n), start=1)}
    vertex_sets = [
        sorted(pair_ix[p] for p in certified_pairs(layered_answer(graph, v)))
        for v in range(1, graph.n + 1)
    ]
    return build_set_system(vertex_sets, universe_size=len(pair_ix))


def offline_verification(graph: Graph, mode: str = "exact") -> tuple[list[int], int]:
    """Minimum (or greedy) vertex query set certifying every pair of a known graph.

    Exact mode enumerates vertex subsets and requires n <= 12; greedy mode
    runs the classic greedy cover. Nothing here touches a ledger. Returns
    (vertex list, its size).
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    if mode == "exact" and graph.n > EXACT_VERIFICATION_VERTEX_CAP:
        raise ValueError(
            f"exact verification capped at n <= {EXACT_VERIFICATION_VERTEX_CAP}, got {graph.n}"
        )
    if graph.n < 2:
        return [], 0
    system = verification_system(graph)
    cover = brute_force_min_cover(system) if mode == "exact" else greedy_cover(system, theta=1.0)
    vertices = list(cover.set_indices)
    return vertices, len(vertices)


def competitive_ratio(result: DiscoveryResult, opt_size: int) -> float:
    """Layered queries spent online divided by the offline optimum."""
    if type(opt_size) is not int or opt_size < 1:
        raise ValueError(f"opt_size must be an integer >= 1, got {opt_size!r}")
    return result.ledger.layered_queries / opt_size
