"""Independent brute-force oracles used by the tests.

Everything here is deliberately written from scratch against plain lists
and dicts, so expected values never share code with the implementations
they check.
"""

import math
from collections import deque
from itertools import combinations


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
    threshold. The final round (scale at or below the threshold) runs a
    plain max-pick greedy on the residue. Returns (per-round records,
    flat cover) for exact comparison against recorded traces.
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
        if s_i <= threshold:
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
        # The probability min(1, 4*alpha*log2(N)/s_i) must clip to 1 for
        # this reference to model the randomized rounds.
        assert 4.0 * alpha * math.log2(n_total) >= s_i, "sample would not clip to 1"
        sample = tuple(sorted(uncovered))
        shortlist = [
            j + 1 for j in range(m) if len(family[j] & uncovered) >= threshold
        ]
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
