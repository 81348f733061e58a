"""Reweighting baseline: covert cover via weighted random nets.

For each doubled guess k of the optimum size, repeatedly draw a candidate
of sets with probability proportional to their weights, test it for
coverage, and on a miss double the weights of every set containing the
missed element. A guess that fails to produce a cover within its iteration
budget doubles. The baseline's query bill is superlinear in the optimum
(candidate contents are charged on every coverage test), which is exactly
what the head-to-head benchmarks against the sampled algorithm measure.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import Sequence

from .errors import (
    UncoverableInstanceError, _require_ints, require_oracle, require_run_constants,
)
from .oracle import CovertOracle
from .results import CoverResult, GuessTrace
from .setsystem import Cover

DEFAULT_ALPHA_NET = 2.0
# The fixed constants of the candidate size and the per-guess iteration budget.
NET_SIZE_CONST = 4.0
ITER_CAP_CONST = 4.0
# The first window of find_uncovered; a typical missed element lies below it.
_FIRST_WINDOW = 64


def sample_weighted_net(weights: list[int], size: int, rng: random.Random) -> tuple[int, ...]:
    """Distinct indices from ``size`` independent draws; set s has weight ``weights[s - 1]``."""
    if size < 1:
        raise ValueError(f"net size must be >= 1, got {size}")
    draws = rng.choices(range(1, len(weights) + 1), weights=weights, k=size)
    return tuple(sorted(set(draws)))


def find_uncovered(rows: Sequence[Sequence[int]], universe_size: int) -> int | None:
    """Smallest element no row holds, or None if the rows cover 1..universe_size.

    ``rows`` are the candidate's sets as the oracle answered them: each row
    strictly increasing with elements in 1..universe_size. The test reads only a
    growing prefix of each row: it unions the rows' elements in the window
    (lo, hi], starting from (0, 64], and returns the window's first gap if
    fewer than hi - lo elements are covered; otherwise the window moves to
    (hi, 4 * hi], capped at ``universe_size``. Each element is unioned at
    most once, and None comes only after the whole range is covered.
    """
    starts = [0] * len(rows)
    lo, hi = 0, min(_FIRST_WINDOW, universe_size)
    while lo < hi:
        covered: set[int] = set()
        for i, row in enumerate(rows):
            start = starts[i]
            starts[i] = end = bisect_right(row, hi, start)
            covered.update(row[start:end])
        if len(covered) < hi - lo:
            return next(e for e in range(lo + 1, hi + 1) if e not in covered)
        lo, hi = hi, min(4 * hi, universe_size)
    return None


def reweight_on_miss(weights: list[int], x: int, oracle: CovertOracle) -> tuple[int, ...]:
    """Double, in place, ``weights[s - 1]`` for every set s containing the missed element ``x``.

    Issues the hitting query that identifies those sets and returns them.
    Weights only ever double, never decrease. An empty answer means ``x`` is
    in no set at all, so no reweighting can ever cover it: raises
    :class:`UncoverableInstanceError`.
    """
    containing = oracle.hitting_query(x)
    if not containing:
        raise UncoverableInstanceError(x)
    for s in containing:
        weights[s - 1] *= 2
    return containing


def net_size(k: int, m_prime: int, alpha_net: float, size_const: float) -> int:
    """Candidate size ceil(alpha_net * k * ln(m') * size_const), at least 1."""
    return max(1, math.ceil(alpha_net * k * math.log(m_prime) * size_const))


def iteration_cap(k: int, m_prime: int, cap_const: float) -> int:
    """Per-guess budget ceil(cap_const * k * log2(m'/k + 2))."""
    return math.ceil(cap_const * k * math.log2(m_prime / k + 2))


def run_weighted_epsilon_net(
    oracle: CovertOracle,
    alpha_net: float = DEFAULT_ALPHA_NET,
    rng_seed: int = 0,
) -> CoverResult:
    """Run the reweighting baseline against a query oracle.

    Guesses k = 1, 2, 4, ... up to the first power of two >= m'. Each guess
    starts from unit weights and runs at most
    ITER_CAP_CONST * k * log2(m'/k + 2) iterations: sample a net, fetch the
    candidate's contents (one set query per distinct candidate set, charged
    on every iteration because each coverage test is a fresh verification),
    and either return the covering candidate or double the weights along a
    missed element. Exhausting every guess, or a missed element contained in
    no set, yields a failed result. ``alpha_net`` must be a finite positive
    real and ``rng_seed`` an int.
    """
    require_oracle(oracle, CovertOracle)
    _require_ints(rng_seed=rng_seed)
    require_run_constants(alpha_net=alpha_net)
    rng = random.Random(rng_seed)
    n_prime, m_prime = oracle.n_elements, oracle.n_sets
    guess_limit = 1
    while guess_limit < m_prime:
        guess_limit *= 2

    traces: list[GuessTrace] = []
    k = 1
    while True:
        weights = [1] * m_prime
        size = net_size(k, m_prime, alpha_net, NET_SIZE_CONST)
        cap = iteration_cap(k, m_prime, ITER_CAP_CONST)
        oracle.mark_phase(f"guess-{k}")
        before = oracle.ledger_snapshot()
        iterations, cover, witness = cap, None, None
        for iteration in range(1, cap + 1):
            candidate = sample_weighted_net(weights, size, rng)
            missed = find_uncovered([oracle.set_query(s) for s in candidate], n_prime)
            if missed is None:
                iterations, cover = iteration, Cover(set_indices=candidate)
                break
            try:
                reweight_on_miss(weights, missed, oracle)
            except UncoverableInstanceError:
                iterations, witness = iteration, missed
                break
        traces.append(
            GuessTrace(
                k=k,
                net_size=size,
                iterations=iterations,
                iteration_cap=cap,
                succeeded=cover is not None,
                ledger_delta=oracle.ledger.delta_since(before),
            )
        )
        if cover is not None or witness is not None or k >= guess_limit:
            return CoverResult(
                cover=cover if cover is not None else Cover(set_indices=()),
                rounds=traces,
                ledger=oracle.ledger_snapshot(),
                failed=cover is None,
                uncovered_element=witness,
            )
        k *= 2
