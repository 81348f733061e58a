"""Covert set cover by sampled greedy simulation.

The algorithm never sees set contents up front. Each round it estimates
which sets are still large by Bernoulli-sampling the uncovered elements
and issuing one hitting query per sampled element; sets holding at least
alpha*log2(N) sampled elements are shortlisted, then filtered sequentially
in canonical order so that each accepted set still holds a threshold worth
of not-yet-claimed samples. Accepted sets are the only ones whose contents
are ever fetched. Once the round scale drops to alpha*log2(N), a round
probes the whole residue and shortlists nothing; it, or an earlier
full-sample round that shortlisted nothing, is the base case: explicit
greedy on its answers and tally. N = n' + m'; s_i halves per round, so
the base case comes within ceil(log2 n') + 1 rounds.

:func:`sampled_greedy` is the round engine. It sees the instance only
through three callables, so network discovery (:mod:`.discovery`) runs the
same rounds with vertex pairs as elements and vertices as sets. A probe
answers with the indices of the sets holding an element as a strictly
increasing tuple of ints (the filter bisects answers).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain, compress, repeat
from operator import contains, not_, sub
from typing import Callable, Collection, Hashable, Iterable, Sequence

from .errors import (
    MAX_INSTANCE_SIZE, UncoverableInstanceError, _require_ints, require_instance,
    require_run_constants,
)
from .oracle import CovertOracle, MeteredOracle
from .results import CoverResult, RoundState
from .setsystem import _INT_ONLY, Cover, _numbers, build_set_system, greedy_cover

DEFAULT_ALPHA = 8.0

# probe(e): the sets containing element e as a strictly increasing tuple of
# ints, one charged query.
Probe = Callable[[Hashable], tuple[int, ...]]
# accept(s): fetch set s, one charged query, and record what it covers; the
# engine ignores what it returns.
Accept = Callable[[int], object]
# A round's tally: the sample, the probe answers in sample order and the
# number of sampled elements each set holds.
Tally = tuple[Sequence[Hashable], list[tuple[int, ...]], Counter]


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
) -> tuple[list[int], Tally]:
    """Probe every sampled element and keep the sets hit at least ``threshold`` times.

    Returns the shortlist in canonical order together with the round's tally
    (the sample, its answers in sample order and the Counter of hits per
    set), which the sequential filter or the base case reuses so no element
    is charged twice in a round. Each sampled element is probed once, in
    sample order; the hits of every set are counted in one pass over the
    answers. The sample has no repeats, so a set's count is the number of
    sampled elements it holds.
    """
    answers = [probe(e) for e in sample]
    counts = Counter(chain.from_iterable(answers))
    shortlist = sorted(s for s, count in counts.items() if count >= threshold)
    return shortlist, (sample, answers, counts)


def _held(answers: Iterable[tuple[int, ...]], s: int) -> Iterable[int]:
    """1 for each answer holding ``s``, else 0; answers are strictly increasing."""
    return map(sub, map(bisect_right, answers, repeat(s)), map(bisect_left, answers, repeat(s)))


def sequential_filter(
    shortlist: Sequence[int], tally: Tally, threshold: float
) -> tuple[list[int], set]:
    """Walk the shortlist in order, keeping sets that still own enough samples.

    A set is kept iff its sampled elements outside those claimed by sets
    kept before it still number >= ``threshold``. Every shortlisted set
    must reach ``threshold`` in the tally, whose answers must be strictly
    increasing tuples of ints. Charges no query. Returns (kept sets in
    order, the sampled elements they claimed).
    """
    sample, answers, _ = tally
    accepted: list[int] = []
    claimed: set = set()
    for s in shortlist:
        if len(sample) < threshold:
            break
        if accepted and sum(_held(answers, s)) < threshold:
            continue
        accepted.append(s)
        held = list(_held(answers, s))
        claimed.update(compress(sample, held))
        unheld = list(map(not_, held))
        sample = list(compress(sample, unheld))
        answers = list(compress(answers, unheld))
    return accepted, claimed


def base_case_explicit(
    order: Sequence[Hashable], answers: list[tuple[int, ...]], counts: Counter
) -> list[int]:
    """Finish a residue with explicit greedy (theta 1) from one round's tally.

    ``order`` is the residue, ``answers`` its probe answers in that order and
    ``counts`` the ``Counter`` of their entries, which is consumed. Raises
    :class:`UncoverableInstanceError` naming the first element of ``order``
    whose answer is empty. Greedy runs lazily (Minoux) on the answers and, at
    the first stale tally, rebuilds the still-uncovered answers as sets
    (``transposed()``) and finishes with :func:`greedy_cover`, so the picks
    are greedy's on the whole residue. Answers that are not tuples of ints in
    [1, ``MAX_INSTANCE_SIZE``] all go to that rebuild.
    """
    if not all(answers):
        raise UncoverableInstanceError(next(e for e, a in zip(order, answers) if not a))
    picks: list[int] = []
    if (all(type(a) is tuple for a in answers)
            and _INT_ONLY.issuperset(map(type, chain.from_iterable(answers)))
            and min(counts, default=0) >= 1 and max(counts) <= MAX_INSTANCE_SIZE):
        while answers:
            top = max(counts.values())
            s = min(s for s, count in counts.items() if count == top)
            held = list(map(contains, answers, repeat(s)))
            if sum(held) < top:
                break
            picks.append(s)
            answers = list(compress(answers, map(not_, held)))
            counts[s] = 0
        if not answers:
            return picks
    residue = build_set_system(answers, max(chain.from_iterable(answers))).transposed()
    return picks + list(greedy_cover(residue, theta=1.0).set_indices)


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
    ``probe`` and ``accept`` are the two charged queries, made here only.
    Round i has scale s_i = min(n_0/2^i, n_i), n_0 = len(remaining()) at
    the start, and one threshold alpha*log2(n_total) sets the sampling rate
    and both cuts. A round draws, probes and tallies, decides from the
    tally, then accepts the filter's picks in order. At s_i <= threshold,
    or once a round probed its whole, unchanged residue and shortlisted
    nothing, the tally goes to :func:`base_case_explicit`, whose picks are
    not accepted, and the run ends. Each round is a ledger phase traced as
    a :class:`RoundState`. ``alpha`` must be a finite positive real and
    ``rng_seed`` an int. Returns (chosen set indices in order, the round
    trace, the element in no set, or None).
    """
    _require_ints(rng_seed=rng_seed)
    require_run_constants(alpha=alpha)
    rng = random.Random(rng_seed)
    threshold = alpha * math.log2(n_total)
    n_0 = len(remaining())
    chosen: list[int] = []
    rounds: list[RoundState] = []
    witness = None

    i = 0
    while uncovered := remaining():
        n_i = len(uncovered)
        s_i = min(n_0 / 2**i, n_i)
        before = oracle.ledger_snapshot()
        base_case = s_i <= threshold
        oracle.mark_phase("base-case" if base_case else f"round-{i}")
        # The scale entry draws at p = 1 (the run ends there, so its extra draws are never
        # read) and cuts where no set reaches: it probes and tallies its whole residue.
        sample = draw_round_sample(uncovered, s_i, threshold, rng)
        shortlist, tally = shortlist_sets(sample, probe, math.inf if base_case else threshold)
        picks: list[int] = []
        if shortlist:
            picks, _ = sequential_filter(shortlist, tally, threshold)
            for s in picks:
                accept(s)
        elif base_case or len(sample) == n_i == len(remaining()):
            base_case, sample = True, []
            try:
                picks = base_case_explicit(*tally)
            except UncoverableInstanceError as exc:
                witness = exc.element
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
    set queries = number of accepted sets. On an uncoverable instance the
    result is marked failed and carries the witness element and the
    partial cover accepted so far.
    """
    require_instance("oracle", oracle, CovertOracle)
    uncovered = set(_numbers(oracle.n_elements))  # shared ints: a kept result copies none

    def accept(s: int) -> None:
        # Shrinking mid-round is safe: the round has already drawn its sample.
        uncovered.difference_update(oracle.set_query(s))

    chosen, rounds, witness = sampled_greedy(
        oracle, lambda: uncovered, oracle.hitting_query, accept,
        n_total=oracle.n_elements + oracle.n_sets, alpha=alpha, rng_seed=rng_seed,
    )
    return CoverResult(
        cover=Cover(set_indices=tuple(chosen)),
        rounds=rounds,
        ledger=oracle.ledger_snapshot(),
        failed=witness is not None,
        uncovered_element=witness,
    )
