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

from .errors import (
    UncoverableInstanceError, _require_ints, require_oracle, require_run_constants,
)
from .oracle import CovertOracle, MeteredOracle
from .results import CoverResult, RoundState
from .setsystem import Cover, SetSystem, build_set_system, greedy_cover

DEFAULT_ALPHA = 8.0

# probe(e): the sets containing element e, one charged query.
Probe = Callable[[Hashable], Iterable[int]]
# accept(s): fetch set s, one charged query, and record what it covers. It returns
# the elements it covers, or an empty collection if the caller had recorded them
# already; sequential_filter unions what it returns, and sampled_greedy discards that.
Accept = Callable[[int], Iterable[Hashable]]


def draw_round_sample(uncovered, s_i: float, threshold: float, rng: random.Random) -> list:
    """Bernoulli sample of the uncovered elements at p = min(1, 4*threshold/s_i).

    With threshold = alpha*log2(N) the expected sample size is
    (4*alpha*n_i/s_i)*log2(N); when p clips to 1 the sample is the whole
    population. Elements are visited in sorted order so a seeded generator
    reproduces the sample exactly. Works on any sortable element type (the
    discovery simulator samples vertex pairs with it).
    """
    p = min(1.0, 4.0 * threshold / s_i)
    return [e for e in sorted(uncovered) if rng.random() < p]


def shortlist_sets(
    sample: Sequence[Hashable], probe: Probe, threshold: float
) -> tuple[list[int], dict[int, set]]:
    """Probe every sampled element and keep the sets hit at least ``threshold`` times.

    Returns the shortlist in canonical order together with the tally of the
    shortlisted sets (set index -> sampled elements it contains), which the
    sequential filter reuses so no element is ever charged twice in a round.
    Each sampled element is probed once, in sample order; the hits of every
    set are counted in one pass over the answers, and only the shortlisted
    sets get their element sets (the sample has no repeats, so a count is the
    size of that set).
    """
    answers = [probe(e) for e in sample]
    counts = Counter(chain.from_iterable(answers))
    shortlist = sorted(s for s, count in counts.items() if count >= threshold)
    hits: dict[int, set] = {s: set() for s in shortlist}
    if hits:
        short = set(hits)
        for e, answer in zip(sample, answers):
            for s in short.intersection(answer):
                hits[s].add(e)
    return shortlist, hits


def sequential_filter(
    shortlist: Sequence[int], sample_hits: Mapping[int, set], accept: Accept, threshold: float
) -> tuple[list[int], set]:
    """Walk the shortlist in order, accepting sets that still own enough samples.

    A set is accepted iff its sampled elements outside those claimed by
    earlier acceptances still number >= ``threshold``. Acceptance fetches the
    set (one charged query); the returned union of what the accepted sets
    cover costs nothing extra.
    """
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

    Issues exactly one probe per remaining element in sorted order (all of
    them, even if an early answer dooms the instance, so the ledger stays
    reconstructible from the trace). The answers are the residue's inverse
    index: their dual (the answers as sets over set indices) with its two
    directions swapped is the residue system under the real set indices; a
    set the residue misses has an empty row. Raises
    :class:`UncoverableInstanceError` naming the smallest element in no set.
    """
    order = sorted(uncovered)
    answers = [probe(e) for e in order]
    if not all(answers):
        raise UncoverableInstanceError(next(e for e, a in zip(order, answers) if not a))
    dual = build_set_system(answers, universe_size=max(chain.from_iterable(answers)))
    residue = SetSystem(len(order), sets=dual.element_to_sets, element_to_sets=dual.sets)
    return list(greedy_cover(residue, theta=1.0).set_indices)


def sampled_greedy(
    oracle: MeteredOracle,
    remaining: Callable[[], Collection[Hashable]],
    probe: Probe,
    accept: Accept,
    n_total: int,
    alpha: float,
    rng_seed: int,
) -> tuple[list[int], list[RoundState], Hashable | None]:
    """The sampled greedy rounds, over any instance behind a metered oracle.

    ``remaining()`` gives the uncovered elements at each round boundary;
    ``probe`` and ``accept`` are the two charged queries. Round i has scale
    s_i = min(n_0/2^i, n_i), n_0 = len(remaining()) at the start. One
    threshold alpha*log2(n_total) sets every cut: the sampling rate, the
    shortlist and filter cuts, and the base-case entry s_i <= threshold, where
    the residue goes to :func:`base_case_explicit` and the run ends. Each
    round is a ledger phase traced as a :class:`RoundState`. ``alpha`` must
    be a finite positive real and ``rng_seed`` an int.

    Once p clips to 1, a round that shortlists nothing leaves the residue as
    it is, so each later round draws the same sample until the scale reaches
    the base case. Such a repeated round (its sample equals that of the last
    round that shortlisted nothing) still probes every sampled element in
    sample order, so its queries are charged and logged as before, but skips
    :func:`shortlist_sets`: the static instance gives the same answers, so the
    tally would shortlist nothing again. No other round can repeat, since a
    round that shortlists a set accepts at least the first, and its sampled
    elements leave ``remaining()``.

    Returns (chosen set indices in order, the round trace, the element the
    base case found in no set, or None).
    """
    _require_ints(rng_seed=rng_seed)
    require_run_constants(alpha=alpha)
    rng = random.Random(rng_seed)
    threshold = alpha * math.log2(n_total)
    n_0 = len(remaining())
    chosen: list[int] = []
    rounds: list[RoundState] = []
    witness = None
    empty_sample = None  # the sample of the last round that shortlisted nothing

    i = 0
    while uncovered := remaining():
        n_i = len(uncovered)
        s_i = min(n_0 / 2**i, n_i)
        before = oracle.ledger_snapshot()
        sample: list = []
        shortlist: list[int] = []
        picks: list[int] = []
        base_case = s_i <= threshold
        if base_case:
            oracle.mark_phase("base-case")
            try:
                picks = base_case_explicit(probe, uncovered)
            except UncoverableInstanceError as exc:
                witness = exc.element
        else:
            oracle.mark_phase(f"round-{i}")
            sample = draw_round_sample(uncovered, s_i, threshold, rng)
            if sample == empty_sample:
                for e in sample:  # charged and logged as before; the tally would be empty again
                    probe(e)
            elif sample:
                shortlist, hits = shortlist_sets(sample, probe, threshold)
                if shortlist:
                    picks, _ = sequential_filter(shortlist, hits, accept, threshold)
                else:
                    empty_sample = sample
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
    require_oracle(oracle, CovertOracle)
    uncovered = set(range(1, oracle.n_elements + 1))

    def accept(s: int) -> tuple[int, ...]:
        # Shrinking mid-round is safe: the round has already drawn its sample.
        members = oracle.set_query(s)
        uncovered.difference_update(members)
        return members

    chosen, rounds, witness = sampled_greedy(
        oracle, lambda: uncovered, oracle.hitting_query, accept,
        n_total=oracle.n_elements + oracle.n_sets, alpha=alpha, rng_seed=rng_seed,
    )
    return CoverResult(
        cover=Cover(set_indices=tuple(chosen)),
        rounds=rounds,
        ledger=oracle.ledger_snapshot(),
        base_case_entered=any(r.base_case for r in rounds),
        failed=witness is not None,
        uncovered_element=witness,
    )
