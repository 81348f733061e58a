"""Online network discovery and offline verification via layered queries.

Discovery is the covert cover problem in disguise: the unresolved vertex
pairs are the elements, each vertex v is the set of pairs its layered
query certifies, and probing a pair (u, v) with two layered answers yields
the dual set H(u, v) = { x : d(u, x) != d(v, x) } of vertices whose query
would certify it. The sampled rounds are those of the abstract algorithm
(:func:`.pseudo_greedy.sampled_greedy`) with N = n^2. A run buys each
vertex's answer once and records its certificates as it buys it, so its
bill is the number of vertices it asks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, filterfalse
from operator import not_
from typing import Callable

from .errors import MAX_INSTANCE_ENTRIES, require_count, require_instance, require_size
from .oracle import MeteredOracle, QueryLedger
# draw_round_sample is kept in this namespace as the sampler of discovery
# rounds; perfbench/tracing.py wraps it under this name.
from .pseudo_greedy import DEFAULT_ALPHA, draw_round_sample, sampled_greedy  # noqa: F401
from .results import RoundState
from .setsystem import brute_force_min_cover, build_set_system, greedy_cover
from .graphs import Graph, LayeredAnswer, Pair, all_pairs, certified_pairs, layered_answer

EXACT_VERIFICATION_VERTEX_CAP = 12


class LayeredGraphOracle(MeteredOracle):
    """Metered layered-query access to a hidden connected graph.

    Only the vertex count is free; every layered query costs one ledger
    increment and is logged with kind "layered" and the BFS levels as its
    answer. A vertex outside the graph is rejected before it is charged.
    Answers come from :func:`.graphs.layered_answer`, one BFS per graph and
    vertex; a repeated query is still charged and logged like the first, so
    a caller that wants to pay once per vertex keeps its answers itself, as
    :func:`run_network_discovery` does.
    """

    hidden_type = Graph

    @property
    def n_vertices(self) -> int:
        return self._hidden.n

    def layered_query(self, v: int) -> LayeredAnswer:
        answer = layered_answer(self._hidden, v)
        self._charge("layered", v, answer.dist)
        return answer


def hitting_set_H(
    u: int, v: int, answer_of: Callable[[int], LayeredAnswer]
) -> tuple[int, ...]:
    """Vertices whose query certifies the pair {u, v}.

    H(u, v) is the vertices at different distances from u and v, as a
    strictly increasing tuple (the answer form the round engine's filter
    bisects); it always holds u and v. ``answer_of(x)`` gives x's layered
    answer and is called for u, then v; pass ``oracle.layered_query`` to
    charge both. A non-callable ``answer_of``, equal endpoints, an answer
    that is not a :class:`.graphs.LayeredAnswer`, or two answers of different
    vertex counts raise ``ValueError``.
    """
    if not callable(answer_of):
        raise ValueError(f"answer_of must be callable, got {type(answer_of).__name__}")
    if u == v:
        raise ValueError(f"pair endpoints must differ, got ({u}, {v})")
    ans_u = answer_of(u)
    require_instance("answer_of(u)", ans_u, LayeredAnswer)
    ans_v = answer_of(v)
    require_instance("answer_of(v)", ans_v, LayeredAnswer)
    if len(ans_u.dist) != len(ans_v.dist):
        raise ValueError(f"answers of different graphs: answer_of(u) has "
                         f"{len(ans_u.dist)} levels and answer_of(v) has {len(ans_v.dist)}")
    return ans_u.differing(ans_v)


@dataclass
class DiscoveryResult:
    """Complete pair statuses, the chosen query set Q, and the query bill.

    ``queried`` lists every vertex the run layered-queried, once each, in
    the order of its first query: the online query set, whose size is the
    bill ``ledger.layered_queries``. ``query_set`` lists only the vertices
    the round engine picked: it can be smaller than an offline cover, and a
    base-case pick, read off the probes' answers, need not be in ``queried``.
    """

    statuses: dict[Pair, bool]
    query_set: list[int]
    ledger: QueryLedger
    rounds: list[RoundState] = field(default_factory=list)
    queried: list[int] = field(default_factory=list)

    @property
    def edges(self) -> list[Pair]:
        return sorted(compress(self.statuses, self.statuses.values()))

    @property
    def non_edges(self) -> list[Pair]:
        return sorted(compress(self.statuses, map(not_, self.statuses.values())))

    def to_json_dict(self) -> dict:
        """The report; every pair of ``all_pairs(n)`` not in its edges is a non-edge."""
        return {
            "edges": [list(p) for p in self.edges],
            "query_set": list(self.query_set),
            "queried": list(self.queried),
            "ledger": self.ledger.to_json_dict(),
            "rounds": [r.to_json_dict() for r in self.rounds],
        }


def run_network_discovery(
    oracle: LayeredGraphOracle, alpha: float = DEFAULT_ALPHA, rng_seed: int = 0
) -> DiscoveryResult:
    """Discover every edge and non-edge of a hidden connected graph.

    Runs the sampled greedy rounds of :func:`.pseudo_greedy.sampled_greedy`
    with unresolved pairs as elements and vertices as sets. N = n^2, so the
    round threshold is 2*alpha*log2(n). A probe of a pair is
    :func:`hitting_set_H`, and accepting a vertex asks for its answer. Both
    get answers from one ``answer_of``, which buys each vertex's answer at
    its first ask and records that answer's certificates among the pairs
    still unresolved before it returns. So the bill is ``len(queried)``, at
    most n, and ``statuses`` is current before every layered query. Always
    terminates with every pair certified.
    """
    require_instance("oracle", oracle, LayeredGraphOracle)
    n = oracle.n_vertices
    statuses: dict[Pair, bool] = {}
    # The engine's live residue: the pairs not yet in statuses, in lexicographic order.
    unresolved: list[Pair] = list(all_pairs(n))
    known: dict[int, LayeredAnswer] = {}

    def answer_of(v: int) -> LayeredAnswer:
        answer = known.get(v)
        if answer is None:
            answer = known[v] = oracle.layered_query(v)
            certified = certified_pairs(answer, unresolved)
            statuses.update(certified)
            unresolved[:] = filterfalse(certified.__contains__, unresolved)
        return answer

    # x is in H(u, v) exactly when a query at x certifies {u, v}, so no
    # vertex is chosen twice: Q is the engine's pick list as it stands.
    query_set, rounds, _ = sampled_greedy(
        oracle, unresolved, lambda pair: hitting_set_H(*pair, answer_of), answer_of,
        n_total=n * n, alpha=alpha, rng_seed=rng_seed,
    )
    return DiscoveryResult(statuses=statuses, query_set=query_set,
                           ledger=oracle.ledger_snapshot(), queried=list(known),
                           rounds=rounds)


def offline_verification(graph: Graph, mode: str = "exact") -> tuple[list[int], int]:
    """Minimum (or greedy) vertex query set certifying every pair of a known graph.

    The instance is discovery's with every probe answered: the rows H(u, v)
    over ``all_pairs(n)``, ``transposed()`` into one set per vertex as in
    :func:`.pseudo_greedy.base_case_explicit`. Their entry count, the sum
    over v of C(n, 2) less C(size, 2) per level of v, is refused above
    ``MAX_INSTANCE_ENTRIES`` before a row is built, and more than
    ``MAX_INSTANCE_SIZE`` pairs before the first BFS. Exact mode enumerates
    vertex subsets and requires n <= 12; greedy mode runs the classic greedy
    cover. Nothing here touches a ledger. Returns (vertex list, its size).
    """
    require_instance("graph", graph, Graph)
    if mode not in ("exact", "greedy"):
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    n = graph.n
    if mode == "exact" and n > EXACT_VERIFICATION_VERTEX_CAP:
        raise ValueError(
            f"exact verification capped at n <= {EXACT_VERIFICATION_VERTEX_CAP}, got {n}"
        )
    require_size(f"the number of vertex pairs of {n} vertices", n * (n - 1) // 2)
    if n < 2:
        return [], 0
    answers = [layered_answer(graph, v) for v in range(1, n + 1)]
    entries = (n * n * (n - 1)
               - sum(c * (c - 1) for a in answers for c in Counter(a.dist).values())) // 2
    require_size(f"the number of verification entries of {n} vertices", entries,
                 MAX_INSTANCE_ENTRIES)
    rows = [answers[u - 1].differing(answers[v - 1]) for u, v in all_pairs(n)]
    system = build_set_system(rows, n).transposed()
    cover = brute_force_min_cover(system) if mode == "exact" else greedy_cover(system, theta=1.0)
    vertices = list(cover.set_indices)
    return vertices, len(vertices)


def competitive_ratio(result: DiscoveryResult, opt_size: int) -> float:
    """Layered queries spent online divided by the offline optimum."""
    require_instance("result", result, DiscoveryResult)
    require_count("opt_size", opt_size)
    return result.ledger.layered_queries / opt_size
