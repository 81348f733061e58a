"""Independent brute-force oracles used by the tests.

Everything here is deliberately written from scratch against plain lists
and dicts, so expected values never share code with the implementations
they check. The two exceptions are :func:`replay_discovery`, which drives
the package's own round engine to isolate what discovery's answer table
changes, and :func:`rebuilt_base_case`, the base case as one rebuild through
the package's own builder and greedy.
"""

import math
from collections import deque
from fractions import Fraction
from itertools import chain, combinations

from covert_setcover.discovery import DiscoveryResult, LayeredGraphOracle, hitting_set_H
from covert_setcover.errors import InvalidCoverError, UncoverableInstanceError
from covert_setcover.graphs import all_pairs, certified_pairs
from covert_setcover.pseudo_greedy import sampled_greedy
from covert_setcover.setsystem import build_set_system, greedy_cover


def exhaustive_min_cover(sets, n):
    """Minimum cover by checking every subfamily, smallest subsets first.

    ``sets`` is a list of element collections (set 1 is sets[0]). Returns
    the lexicographically smallest minimum cover as a tuple of 1-based
    indices, or None if even the full family does not cover 1..n.
    """
    universe = set(range(1, n + 1))
    family = [set(s) for s in sets]
    if set().union(*family) != universe:
        return None
    for size in range(1, len(family) + 1):
        for combo in combinations(range(len(family)), size):
            union = set()
            for j in combo:
                union |= family[j]
            if union == universe:
                return tuple(j + 1 for j in combo)
    return None


def coverage_order(sets, picks):
    """Elements in the order the picked sets first reach them.

    ``picks`` are 1-based indices into ``sets`` in selection order; within
    one pick the newly reached elements are listed ascending.
    """
    seen = set()
    order = []
    for s in picks:
        new = sorted(set(sets[s - 1]) - seen)
        order.extend(new)
        seen.update(new)
    return order


def apportioned_weights(system, cover):
    """Spread each set's unit cost over the elements it covers first.

    Element ``e`` is charged 1/k where k is the number of elements newly
    covered by the set that first reaches ``e`` (the set's cost-effectiveness
    at its turn). Exact rationals, so sum(weights) == len(cover) holds with
    no tolerance. Requires a valid cover in which every listed set covers at
    least one new element at its turn; anything else, including a set index
    that is not an ``int`` in [1, m], raises ``InvalidCoverError``.
    """
    weights = {}
    seen = set()
    for s in cover.set_indices:
        if not (type(s) is int and 1 <= s <= system.n_sets):
            raise InvalidCoverError(
                f"set index {s!r} outside [1, {system.n_sets}] or not an integer"
            )
        new = set(system.sets[s - 1]).difference(seen)
        if not new:
            raise InvalidCoverError(f"set {s} covers no new element at its turn")
        share = Fraction(1, len(new))
        for e in new:
            weights[e] = share
        seen.update(new)
    if len(seen) != system.universe_size:
        missing = next(e for e in range(1, system.universe_size + 1) if e not in seen)
        raise InvalidCoverError(f"cover misses element {missing}")
    return weights


def harmonic(n):
    """H(n) = 1 + 1/2 + ... + 1/n as an exact rational."""
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def binomial_tail_exact(size, p, threshold):
    """P[Binom(size, p) >= threshold], summed over every count in exact integers.

    With p = a / d, the pmf at k is comb(size, k) * a**k * (d - a)**(size - k)
    over d**size; int / int true division rounds the sum once, correctly.
    """
    a, d = Fraction(p).as_integer_ratio()
    total, rest = 0, 1  # rest == (d - a) ** (size - k)
    for k in range(size, -1, -1):
        if k < threshold:
            break
        total += math.comb(size, k) * a**k * rest
        rest *= d - a
    return total / d**size


def naive_greedy(sets, n, theta):
    """Relaxed greedy by full recount, the rule ``greedy_cover`` must follow.

    Before every pick, count each set's uncovered elements afresh; take the
    first set (lowest index) whose count is at least theta times the
    largest count. Returns (picks as 1-based indices, witness): the witness
    is None when the picks cover 1..n, otherwise the smallest element no set
    contains, and the picks are those made before every count reached zero.
    """
    family = [set(s) for s in sets]
    uncovered = set(range(1, n + 1))
    picks = []
    while uncovered:
        counts = [len(members & uncovered) for members in family]
        best = max(counts)
        if best == 0:
            return picks, min(uncovered)
        j = next(j for j, c in enumerate(counts) if c >= theta * best)
        picks.append(j + 1)
        uncovered -= family[j]
    return picks, None


def naive_build(sets, n):
    """Rows and inverse of a family by check, sort and loop, the layout ``build_set_system`` must give.

    Each row's values are checked in the order the row lists them, so a
    non-int is refused even when it equals a kept int (``True`` in
    ``[1, True]``); a good row is then de-duplicated and sorted. The inverse
    is filled by visiting the rows in index order. Returns (sets,
    element_to_sets) as tuples of tuples, or raises ``ValueError`` with the
    message ``build_set_system`` must raise for the same input.
    """
    rows = []
    for idx, members in enumerate(sets, start=1):
        listed = list(members)
        for e in listed:
            if not (type(e) is int and 1 <= e <= n):
                raise ValueError(
                    f"set {idx} contains element {e!r} outside [1, {n}] or not an integer"
                )
        rows.append(tuple(sorted(set(listed))))
    containing = [[] for _ in range(n)]
    for idx, row in enumerate(rows, start=1):
        for e in row:
            containing[e - 1].append(idx)
    return tuple(rows), tuple(map(tuple, containing))


def naive_base_case(probe, uncovered):
    """The residue rebuilt through a dict of sets and finished by ``naive_greedy``.

    Probes every element of ``uncovered`` in sorted order, collects each
    touched set's residue elements, renumbers the elements 1..n_i in order
    and the touched sets in index order, runs the recounting greedy at theta
    1 and maps its picks back to set indices. Raises
    ``UncoverableInstanceError`` naming the smallest element no answer holds,
    after every probe.
    """
    order = sorted(uncovered)
    residual = {}
    orphan = None
    for e in order:
        containing = probe(e)
        if not containing and orphan is None:
            orphan = e
        for s in containing:
            residual.setdefault(s, set()).add(e)
    if orphan is not None:
        raise UncoverableInstanceError(orphan)
    relabel = {e: i for i, e in enumerate(order, start=1)}
    touched = sorted(residual)
    picks, _ = naive_greedy([[relabel[e] for e in residual[s]] for s in touched], len(order), 1.0)
    return [touched[j - 1] for j in picks]


def rebuilt_base_case(probe, uncovered):
    """The base case with every answer rebuilt into the residue and finished by ``greedy_cover``.

    Probes every element of ``uncovered`` in sorted order and raises
    ``UncoverableInstanceError`` naming the smallest element with an empty
    answer. Otherwise the answers, as sets over the set indices, are built
    and ``transposed()``, and greedy at theta 1 picks from the whole residue;
    any error of that build or pick (a bad answer) propagates as it is.
    ``base_case_explicit`` must give the same picks or raise the same error.
    """
    order = sorted(uncovered)
    answers = [probe(e) for e in order]
    if not all(answers):
        raise UncoverableInstanceError(next(e for e, a in zip(order, answers) if not a))
    residue = build_set_system(answers, max(chain.from_iterable(answers))).transposed()
    return list(greedy_cover(residue, theta=1.0).set_indices)


def eager_round_filter(sample, probe, threshold):
    """One round's tally and sequential filter with every set's hits built up front.

    Probes each sampled element once, in sample order, and collects for every
    set the sampled elements it holds; shortlists the sets holding at least
    ``threshold`` of them, in index order; then walks the shortlist and
    accepts a set when its hits outside those claimed by earlier acceptances
    still number at least ``threshold``. The rule ``shortlist_sets`` and
    ``sequential_filter`` must follow together. Returns (shortlist, accepted
    sets in order, claimed elements).
    """
    hits = {}
    for e in sample:
        for s in probe(e):
            hits.setdefault(s, set()).add(e)
    shortlist = sorted(s for s, held in hits.items() if len(held) >= threshold)
    accepted = []
    claimed = set()
    for s in shortlist:
        if len(hits[s] - claimed) >= threshold:
            accepted.append(s)
            claimed |= hits[s]
    return shortlist, accepted, claimed


def naive_round_sample(uncovered, s_i, alpha, n_total, rng):
    """Bernoulli sample at the paper's rate p = min(1, 4*alpha*log2(N)/s_i).

    p is computed from alpha and N as the paper writes it, the rule
    ``draw_round_sample`` must follow from the precomputed alpha*log2(N);
    the elements are visited in sorted order, one draw each.
    """
    p = min(1.0, 4.0 * alpha * math.log2(n_total) / s_i)
    return [e for e in sorted(uncovered) if rng.random() < p]


def naive_find_uncovered(candidate, contents, n):
    """Smallest element of 1..n that no candidate row holds, by union and scan.

    Reads every row as a set of ints, the rule ``find_uncovered`` must follow
    over the rows packed as bitmasks. Returns None when the rows cover 1..n.
    """
    covered = set()
    for s in candidate:
        covered.update(contents[s])
    for e in range(1, n + 1):
        if e not in covered:
            return e
    return None


def choices_net(weights, size, rng):
    """The distinct sets of ``size`` draws by ``random.choices``, sorted.

    The rule ``sample_weighted_net`` must follow draw for draw: set s has
    weight ``weights[s - 1]``, and a total past a float raises OverflowError.
    """
    return tuple(sorted(set(rng.choices(range(1, len(weights) + 1), weights=weights, k=size))))


def bfs_levels(n, edges, source):
    """Hop distances from source over an undirected edge list."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def true_pair_statuses(n, edges):
    """Ground-truth edge/non-edge status for every unordered pair."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    return {
        (u, v): (u, v) in edge_set
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
    }


def certified_by_query(n, edges, x):
    """Pairs certified by a query at x, from the different-distances rule."""
    dist = bfs_levels(n, edges, x)
    truth = true_pair_statuses(n, edges)
    return {
        (u, v): truth[(u, v)]
        for (u, v) in truth
        if dist[u] != dist[v]
    }


def full_info_cover_trace(sets, n, alpha):
    """Reference run of the sampled cover rounds when sampling is exhaustive.

    Simulates the round schedule s_i = min(n/2^i, n_i) with the whole
    uncovered population as the sample: shortlist every set holding at
    least alpha*log2(N) uncovered elements, then accept shortlisted sets in
    index order while their not-yet-claimed holdings stay above the same
    threshold. The final round (scale at or below the threshold, or the
    first round that shortlists nothing, since no later round could then
    shortlist a set) runs a plain max-pick greedy on the residue. Returns
    (per-round records, flat cover) for exact comparison against recorded
    traces.
    """
    m = len(sets)
    family = [set(s) for s in sets]
    n_total = n + m
    threshold = alpha * math.log2(n_total)
    uncovered = set(range(1, n + 1))
    rounds = []
    cover = []
    i = 0
    while uncovered:
        n_i = len(uncovered)
        s_i = min(n / 2**i, n_i)
        # The probability min(1, 4*alpha*log2(N)/s_i) must clip to 1 for
        # this reference to model the randomized rounds.
        assert 4.0 * alpha * math.log2(n_total) >= s_i, "sample would not clip to 1"
        shortlist = [
            j + 1 for j in range(m) if len(family[j] & uncovered) >= threshold
        ]
        if s_i <= threshold or not shortlist:
            picks = _reference_greedy(family, uncovered)
            rounds.append(
                {
                    "i": i,
                    "n_i": n_i,
                    "s_i": s_i,
                    "sample": (),
                    "shortlist": (),
                    "chosen": tuple(picks),
                    "base_case": True,
                }
            )
            cover.extend(picks)
            break
        sample = tuple(sorted(uncovered))
        accepted = []
        remaining = set(uncovered)
        for idx in shortlist:
            if len(family[idx - 1] & remaining) >= threshold:
                accepted.append(idx)
                remaining -= family[idx - 1]
        rounds.append(
            {
                "i": i,
                "n_i": n_i,
                "s_i": s_i,
                "sample": sample,
                "shortlist": tuple(shortlist),
                "chosen": tuple(accepted),
                "base_case": False,
            }
        )
        cover.extend(accepted)
        uncovered = remaining
        i += 1
    return rounds, cover


def _reference_greedy(family, uncovered):
    """Classic greedy on a residue: max new elements, lowest index on ties."""
    remaining = set(uncovered)
    picks = []
    while remaining:
        best_idx, best_gain = None, 0
        for j, members in enumerate(family):
            gain = len(members & remaining)
            if gain > best_gain:
                best_idx, best_gain = j + 1, gain
        if best_idx is None:
            raise AssertionError("residue not coverable")
        picks.append(best_idx)
        remaining -= family[best_idx - 1]
    return picks


def replay_discovery(graph, alpha, rng_seed):
    """Discovery that pays for every ask: two queries a probe, one an accept.

    The same round engine, probe answers and certificate order as
    ``run_network_discovery``, but with no table of bought answers, so its
    decisions are the reference for the table's and its bill is
    2 * probes + accepts. ``queried`` lists the vertices in the order of
    their first answer.
    """
    oracle = LayeredGraphOracle(graph)
    statuses, learned = {}, {}
    unresolved = list(all_pairs(graph.n))

    def ask(x):
        answer = oracle.layered_query(x)
        if x not in learned:
            learned[x] = True
            statuses.update(certified_pairs(answer, unresolved))
            unresolved[:] = [p for p in unresolved if p not in statuses]
        return answer

    picks, rounds, _ = sampled_greedy(
        oracle, unresolved, lambda pair: hitting_set_H(*pair, ask), ask,
        n_total=graph.n ** 2, alpha=alpha, rng_seed=rng_seed,
    )
    return DiscoveryResult(statuses, picks, oracle.ledger_snapshot(), rounds, list(learned))
