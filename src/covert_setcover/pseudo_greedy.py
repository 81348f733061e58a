"""Covert set cover by sampled greedy simulation.

The algorithm never sees set contents up front. Each round it estimates
which sets are still large by Bernoulli-sampling the uncovered elements
and issuing one hitting query per sampled element; sets holding at least
alpha*log2(N) sampled elements are shortlisted, then filtered sequentially
in canonical order so that each accepted set still holds a threshold worth
of not-yet-claimed samples. Accepted sets are the only ones whose contents
are ever fetched. Once the round scale drops to alpha*log2(N) the residue
is reconstructed outright (one hitting query per remaining element) and
finished with the explicit greedy algorithm.

N = n' + m' throughout, and log means log2: the scale s_i halves per
round, so the base case is reached within ceil(log2 n') + 1 rounds.

:func:`sampled_greedy` is the round engine. It sees the instance only
through three callables, so network discovery (:mod:`.discovery`) runs the
same rounds with vertex pairs as elements and vertices as sets.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import chain
from typing import Callable, Collection, Hashable, Iterable, Mapping, Sequence

from .errors import UncoverableInstanceError
from .oracle import CovertOracle, MeteredOracle
from .results import CoverResult, RoundState
from .setsystem import Cover, build_set_system, greedy_cover

DEFAULT_ALPHA = 8.0

# probe(e): the sets containing element e, one charged query.
Probe = Callable[[Hashable], Iterable[int]]
# accept(s): fetch set s, one charged query, and record what it covers. It returns
# the elements it covers, or an empty collection if the caller had recorded them
# already; sequential_filter unions what it returns, and sampled_greedy discards that.
Accept = Callable[[int], Iterable[Hashable]]


def sample_probability(s_i: float, alpha: float, n_total: int) -> float:
    """Per-element inclusion probability min(1, 4*alpha*log2(N)/s_i)."""
    return min(1.0, 4.0 * alpha * math.log2(n_total) / s_i)


def draw_round_sample(uncovered, s_i: float, alpha: float, n_total: int, rng: random.Random) -> list:
    """Bernoulli sample of the uncovered elements at the round's probability.

    Each element is included independently, so the expected sample size is
    (4*alpha*n_i/s_i)*log2(N); when the probability clips to 1 the sample is
    the whole population. Elements are visited in sorted order so a seeded
    generator reproduces the sample exactly. Works on any sortable element
    type (the discovery simulator samples vertex pairs with it).
    """
    p = sample_probability(s_i, alpha, n_total)
    return [e for e in sorted(uncovered) if rng.random() < p]


def shortlist_sets(
    sample: Sequence[Hashable], probe: Probe, alpha: float, n_total: int
) -> tuple[list[int], dict[int, set]]:
    """Probe every sampled element and keep the heavily hit sets.

    Returns the shortlist in canonical order together with the tally of the
    shortlisted sets (set index -> sampled elements it contains), which the
    sequential filter reuses so no element is ever charged twice in a round.
    Each sampled element is probed once, in sample order; the hits of every
    set are counted in one pass over the answers, and only the shortlisted
    sets get their element sets (the sample has no repeats, so a count is the
    size of that set).
    """
    threshold = alpha * math.log2(n_total)
    answers = [probe(e) for e in sample]
    counts = Counter(chain.from_iterable(answers))
    shortlist = sorted(s for s, count in counts.items() if count >= threshold)
    hits: dict[int, set] = {s: set() for s in shortlist}
    if hits:
        for e, answer in zip(sample, answers):
            for s in hits.keys() & answer:
                hits[s].add(e)
    return shortlist, hits


def sequential_filter(
    shortlist: Sequence[int],
    sample_hits: Mapping[int, set],
    accept: Accept,
    alpha: float,
    n_total: int,
) -> tuple[list[int], set]:
    """Walk the shortlist in order, accepting sets that still own enough samples.

    A set is accepted iff its sampled elements outside those claimed by
    earlier acceptances still number >= alpha*log2(N). Acceptance fetches the
    set (one charged query); the returned union of what the accepted sets
    cover costs nothing extra.
    """
    threshold = alpha * math.log2(n_total)
    accepted: list[int] = []
    claimed: set = set()
    newly_covered: set = set()
    for s in shortlist:
        if len(sample_hits[s] - claimed) >= threshold:
            accepted.append(s)
            newly_covered.update(accept(s))
            claimed |= sample_hits[s]
    return accepted, newly_covered


def base_case_explicit(probe: Probe, uncovered: Iterable[Hashable]) -> list[int]:
    """Reconstruct the residual instance and finish it with explicit greedy.

    Issues exactly one probe per remaining element (all of them, even if an
    early answer already dooms the instance, so the ledger stays
    reconstructible from the trace), rebuilds the residual sub-instance over
    the sets the residue touches, in canonical set order, runs the classic
    greedy cover on it and maps its picks back to set indices. A set the
    residue misses holds no uncovered element, so greedy would never pick
    it. Raises :class:`UncoverableInstanceError` naming the smallest element
    contained in no set.
    """
    order = sorted(uncovered)
    residual: dict[int, set[int]] = {}
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
    sub_sets = [[relabel[e] for e in residual[s]] for s in touched]
    sub_system = build_set_system(sub_sets, universe_size=len(order))
    return [touched[j - 1] for j in greedy_cover(sub_system, theta=1.0).set_indices]


def sampled_greedy(
    oracle: MeteredOracle,
    remaining: Callable[[], Collection[Hashable]],
    probe: Probe,
    accept: Accept,
    n_elements: int,
    n_total: int,
    alpha: float,
    rng_seed: int,
) -> tuple[list[int], list[RoundState], Hashable | None]:
    """The sampled greedy rounds, over any instance behind a metered oracle.

    ``remaining()`` gives the uncovered elements at each round boundary;
    ``probe`` and ``accept`` are the two charged queries. Round i has scale
    s_i = min(n_elements/2^i, n_i); once s_i <= alpha*log2(n_total) the
    residue goes to :func:`base_case_explicit` and the run ends. Each round
    is labelled as a ledger phase and traced as a :class:`RoundState`.
    ``alpha`` must be finite and positive.

    Returns (chosen set indices in order, the round trace, the element the
    base case found in no set, or None).
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    rng = random.Random(rng_seed)
    base_entry = alpha * math.log2(n_total)
    chosen: list[int] = []
    rounds: list[RoundState] = []
    witness = None

    i = 0
    while uncovered := remaining():
        n_i = len(uncovered)
        s_i = min(n_elements / 2**i, n_i)
        before = oracle.ledger_snapshot()
        sample: list = []
        shortlist: list[int] = []
        picks: list[int] = []
        base_case = s_i <= base_entry
        if base_case:
            oracle.mark_phase("base-case")
            try:
                picks = base_case_explicit(probe, uncovered)
            except UncoverableInstanceError as exc:
                witness = exc.element
        else:
            oracle.mark_phase(f"round-{i}")
            sample = draw_round_sample(uncovered, s_i, alpha, n_total, rng)
            if sample:
                shortlist, hits = shortlist_sets(sample, probe, alpha, n_total)
                if shortlist:
                    picks, _ = sequential_filter(shortlist, hits, accept, alpha, n_total)
        rounds.append(
            RoundState(
                i=i,
                n_i=n_i,
                s_i=s_i,
                sample=tuple(sample),
                shortlist=tuple(shortlist),
                chosen=tuple(picks),
                ledger_delta=oracle.ledger.delta_since(before),
                base_case=base_case,
            )
        )
        chosen.extend(picks)
        if base_case:
            break
        i += 1
    return chosen, rounds, witness


def run_pseudo_greedy(
    oracle: CovertOracle, alpha: float = DEFAULT_ALPHA, rng_seed: int = 0
) -> CoverResult:
    """Run the sampled covert cover algorithm against a query oracle.

    ``alpha`` scales every threshold (sample rate, shortlist cut, base-case
    entry); the run is fully reproducible from (rng_seed, alpha, instance).
    Returns a :class:`CoverResult` whose per-round trace reconstructs the
    ledger exactly: hitting queries = sum of sample sizes + base-case n_i,
    set queries = number of accepted sets.

    On an uncoverable instance the base case flags failure and the result
    carries the witness element and the partial cover accepted so far.
    """
    n_prime, m_prime = oracle.n_elements, oracle.n_sets
    uncovered = set(range(1, n_prime + 1))

    def accept(s: int) -> tuple[int, ...]:
        # Shrinking mid-round is safe: the round has already drawn its sample.
        members = oracle.set_query(s)
        uncovered.difference_update(members)
        return members

    chosen, rounds, witness = sampled_greedy(
        oracle, lambda: uncovered, oracle.hitting_query, accept,
        n_elements=n_prime, n_total=n_prime + m_prime,
        alpha=alpha, rng_seed=rng_seed,
    )
    failed = witness is not None
    # A finished base case covers its whole residue; a failed one covers none of it.
    covered = frozenset(range(1, n_prime + 1)) - (uncovered if failed else set())
    return CoverResult(
        cover=Cover(set_indices=tuple(chosen), covered=covered),
        rounds=rounds,
        ledger=oracle.ledger_snapshot(),
        base_case_entered=any(r.base_case for r in rounds),
        failed=failed,
        uncovered_element=witness,
    )
