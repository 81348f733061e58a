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
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import UncoverableInstanceError
from .oracle import CovertOracle
from .results import CoverResult, GuessTrace
from .setsystem import Cover

DEFAULT_ALPHA_NET = 2.0
DEFAULT_NET_SIZE_CONST = 4.0
DEFAULT_ITER_CAP_CONST = 4.0


@dataclass
class WeightedFamily:
    """Per-set positive integer weights; only ever doubled, never decreased."""

    weights: list[int]

    @classmethod
    def unit(cls, m: int) -> "WeightedFamily":
        return cls(weights=[1] * m)

    def double(self, indices: Sequence[int]) -> None:
        for s in indices:
            self.weights[s - 1] *= 2


def sample_weighted_net(
    family: WeightedFamily, size: int, rng: random.Random
) -> tuple[int, ...]:
    """Distinct indices from ``size`` independent weight-proportional draws."""
    if size < 1:
        raise ValueError(f"net size must be >= 1, got {size}")
    draws = rng.choices(range(1, len(family.weights) + 1), weights=family.weights, k=size)
    return tuple(sorted(set(draws)))


def find_uncovered(
    candidate: Sequence[int], contents: Mapping[int, Sequence[int]], universe_size: int
) -> int | None:
    """Smallest element the candidate misses, or None if it covers everything."""
    covered: set[int] = set()
    for s in candidate:
        covered.update(contents[s])
    for e in range(1, universe_size + 1):
        if e not in covered:
            return e
    return None


def reweight_on_miss(
    family: WeightedFamily, x: int, oracle: CovertOracle
) -> tuple[int, ...]:
    """Double the weight of every set containing the missed element ``x``.

    Issues the hitting query that identifies those sets and returns them.
    An empty answer means ``x`` is in no set at all, so no reweighting can
    ever cover it: raises :class:`UncoverableInstanceError`.
    """
    containing = oracle.hitting_query(x)
    if not containing:
        raise UncoverableInstanceError(x)
    family.double(containing)
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
    size_const: float = DEFAULT_NET_SIZE_CONST,
    cap_const: float = DEFAULT_ITER_CAP_CONST,
) -> CoverResult:
    """Run the reweighting baseline against a query oracle.

    Guesses k = 1, 2, 4, ... up to the first power of two >= m'. Each guess
    starts from unit weights and runs at most
    cap_const * k * log2(m'/k + 2) iterations: sample a net, fetch the
    candidate's contents (one set query per distinct candidate set, charged
    on every iteration because each coverage test is a fresh verification),
    and either return the covering candidate or double the weights along a
    missed element. Exhausting every guess, or a missed element contained in
    no set, yields a failed result. ``alpha_net``, ``size_const`` and
    ``cap_const`` must be finite and positive.
    """
    constants = {"alpha_net": alpha_net, "size_const": size_const, "cap_const": cap_const}
    for name, value in constants.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    rng = random.Random(rng_seed)
    n_prime, m_prime = oracle.n_elements, oracle.n_sets
    guess_limit = 1
    while guess_limit < m_prime:
        guess_limit *= 2

    traces: list[GuessTrace] = []
    k = 1
    while True:
        family = WeightedFamily.unit(m_prime)
        size = net_size(k, m_prime, alpha_net, size_const)
        cap = iteration_cap(k, m_prime, cap_const)
        oracle.mark_phase(f"guess-{k}")
        before = oracle.ledger_snapshot()
        iterations, cover, witness = cap, None, None
        for iteration in range(1, cap + 1):
            candidate = sample_weighted_net(family, size, rng)
            contents = {s: oracle.set_query(s) for s in candidate}
            missed = find_uncovered(candidate, contents, n_prime)
            if missed is None:
                covered = frozenset().union(*contents.values())
                iterations, cover = iteration, Cover(set_indices=candidate, covered=covered)
                break
            try:
                reweight_on_miss(family, missed, oracle)
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
                cover=cover if cover is not None else Cover(set_indices=(), covered=frozenset()),
                rounds=traces,
                ledger=oracle.ledger_snapshot(),
                failed=cover is None,
                uncovered_element=witness,
            )
        k *= 2
