"""Explicit set-system instances and the reference cover algorithms.

Everything here has full knowledge of the instance: the relaxed greedy
cover, the exhaustive optimum, cover verification, and the per-element
cost apportionment used to check the harmonic approximation bound.
Covert algorithms (which see the instance only through a query oracle)
live in :mod:`covert_setcover.pseudo_greedy` and
:mod:`covert_setcover.epsnet`.

Elements are numbered 1..universe_size and sets 1..len(sets); the index
order of the sets is the canonical order used for every tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress
from typing import Iterable, Sequence

from .errors import (
    BruteForceCapExceededError,
    InvalidCoverError,
    UncoverableInstanceError,
)

BRUTE_FORCE_SET_CAP = 20


@dataclass(frozen=True)
class SetSystem:
    """A ground set of ``universe_size`` elements plus an indexed family of subsets.

    ``sets[i]`` holds the members of set ``i + 1``; ``element_to_sets[e - 1]``
    holds the indices of the sets containing element ``e`` (the exact inverse
    of ``sets``). Both are immutable after construction, so a system can be
    shared read-only between concurrent trials.
    """

    universe_size: int
    sets: tuple[frozenset[int], ...]
    element_to_sets: tuple[frozenset[int], ...]

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    def members(self, s: int) -> frozenset[int]:
        """Elements of set ``s`` (1-indexed)."""
        return self.sets[s - 1]

    def sets_containing(self, e: int) -> frozenset[int]:
        """Indices of the sets containing element ``e`` (1-indexed)."""
        return self.element_to_sets[e - 1]

    def universe(self) -> frozenset[int]:
        return frozenset(range(1, self.universe_size + 1))


def build_set_system(sets: Sequence[Iterable[int]], universe_size: int) -> SetSystem:
    """Validate and build a :class:`SetSystem`, including the inverse index.

    Raises ``ValueError`` if the family is empty, ``universe_size`` is not an
    integer >= 1, or any listed element is not an integer in
    ``[1, universe_size]`` (a float or a bool is not an element).
    """
    if type(universe_size) is not int or universe_size < 1:
        raise ValueError(f"universe_size must be an integer >= 1, got {universe_size!r}")
    if len(sets) == 0:
        raise ValueError("empty set family")
    frozen = []
    for idx, members in enumerate(sets, start=1):
        fs = frozenset(members)
        for e in fs:
            if not (type(e) is int and 1 <= e <= universe_size):
                raise ValueError(
                    f"set {idx} contains element {e!r} outside [1, {universe_size}]"
                    " or not an integer"
                )
        frozen.append(fs)
    containing: list[list[int]] = [[] for _ in range(universe_size)]
    for idx, fs in enumerate(frozen, start=1):
        for e in fs:
            containing[e - 1].append(idx)
    return SetSystem(
        universe_size=universe_size,
        sets=tuple(frozen),
        element_to_sets=tuple(frozenset(lst) for lst in containing),
    )


def to_json_dict(system: SetSystem, meta: dict | None = None) -> dict:
    """Serialize to the interchange form {"universe_size": ..., "sets": [[...], ...]}."""
    doc = {
        "universe_size": system.universe_size,
        "sets": [sorted(members) for members in system.sets],
    }
    if meta is not None:
        doc["meta"] = meta
    return doc


def from_json_dict(doc: dict) -> SetSystem:
    """Parse the interchange form; a malformed document raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"a set system must be a JSON object, got {type(doc).__name__}")
    for key in ("universe_size", "sets"):
        if key not in doc:
            raise ValueError(f'set system JSON has no "{key}" field')
    sets = doc["sets"]
    well_formed = isinstance(sets, list) and all(
        isinstance(members, list) and all(type(e) is int for e in members) for members in sets
    )
    if not well_formed:
        raise ValueError('set system "sets" must be a list of lists of integers')
    return build_set_system(sets, doc["universe_size"])


@dataclass(frozen=True)
class Cover:
    """A chosen sub-family: set indices in selection order plus their union."""

    set_indices: tuple[int, ...]
    covered: frozenset[int]

    def __len__(self) -> int:
        return len(self.set_indices)

    @classmethod
    def from_indices(cls, system: SetSystem, indices: Iterable[int]) -> "Cover":
        idx = tuple(indices)
        if len(idx) != len(set(idx)):
            raise InvalidCoverError(f"duplicate set indices in {idx}")
        for s in idx:
            if not 1 <= s <= system.n_sets:
                raise InvalidCoverError(f"set index {s} outside [1, {system.n_sets}]")
        covered = frozenset().union(*(system.members(s) for s in idx)) if idx else frozenset()
        return cls(set_indices=idx, covered=covered)


def verify_cover(system: SetSystem, cover: Cover | Iterable[int]) -> bool:
    """True iff the union of the listed sets equals the universe."""
    indices = cover.set_indices if isinstance(cover, Cover) else tuple(cover)
    covered: set[int] = set()
    for s in indices:
        covered |= system.members(s)
    return len(covered) == system.universe_size


@lru_cache(maxsize=4)
def _set_numbers(m: int) -> tuple[int, ...]:
    """(1, ..., m), shared so that the covers of every m-set family reuse one int per index."""
    return tuple(range(1, m + 1))


def greedy_cover(system: SetSystem, theta: float = 1.0) -> Cover:
    """Relaxed greedy cover: any pick must grab at least ``theta`` times the best.

    Repeatedly takes n_max, the largest number of still-uncovered elements
    held by any single set, then selects the first set in canonical (index)
    order whose uncovered count is >= theta * n_max. With theta = 1 this is
    the classic greedy algorithm with lowest-index tie-breaking. The
    relaxation never picks a dead set (theta > 0 forces a positive uncovered
    count), so the output size obeys the harmonic bound
    |cover| <= (OPT / theta) * H(universe_size).

    The uncovered counts are kept exactly and updated incrementally: they
    start at the set sizes, and each newly covered element decrements the
    count of every set containing it. The updates cost O(sum of set sizes)
    over the whole run, plus two passes over the m counts per pick (the
    maximum, then the first set reaching the bar), instead of recounting
    every set against the uncovered elements on every pick.

    Raises :class:`UncoverableInstanceError` naming an uncovered element if
    the family cannot cover the universe.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    sets, containing = system.sets, system.element_to_sets
    numbers = _set_numbers(len(sets))
    counts = [len(members) for members in sets]
    uncovered = set(range(1, system.universe_size + 1))
    chosen: list[int] = []
    while uncovered:
        n_max = max(counts)
        if n_max == 0:
            raise UncoverableInstanceError(min(uncovered))
        need = theta * n_max
        # The first set number whose count is >= need.
        s = next(compress(numbers, map(need.__le__, counts)))
        chosen.append(s)
        new = sets[s - 1] & uncovered
        uncovered -= new
        for e in new:
            for t in containing[e - 1]:
                counts[t - 1] -= 1
    return Cover.from_indices(system, chosen)


def brute_force_min_cover(system: SetSystem, cap: int = BRUTE_FORCE_SET_CAP) -> Cover:
    """Exact minimum cover by subset enumeration, smallest size first.

    Among minimum covers, returns the lexicographically smallest index
    sequence. Refuses instances with more than ``cap`` sets (default 20;
    2^20 subsets is the tractability line at desk scale).
    """
    m = system.n_sets
    if m > cap:
        raise BruteForceCapExceededError(
            f"{m} sets exceeds the brute-force cap of {cap}"
        )
    masks = [_mask(members) for members in system.sets]
    universe_mask = (1 << system.universe_size) - 1
    full = 0
    for mk in masks:
        full |= mk
    if full != universe_mask:
        missing = _lowest_missing(full, system.universe_size)
        raise UncoverableInstanceError(missing)
    for size in range(1, m + 1):
        for combo in combinations(range(1, m + 1), size):
            acc = 0
            for s in combo:
                acc |= masks[s - 1]
            if acc == universe_mask:
                return Cover.from_indices(system, combo)
    raise AssertionError("unreachable: full-family union covers the universe")


def _mask(members: frozenset[int]) -> int:
    mk = 0
    for e in members:
        mk |= 1 << (e - 1)
    return mk


def _lowest_missing(mask: int, universe_size: int) -> int:
    for e in range(1, universe_size + 1):
        if not (mask >> (e - 1)) & 1:
            return e
    raise AssertionError("no missing element")


def apportioned_weights(system: SetSystem, cover: Cover) -> dict[int, Fraction]:
    """Spread each set's unit cost over the elements it covers first.

    Element ``e`` is charged 1/k where k is the number of elements newly
    covered by the set that first reaches ``e`` (the set's cost-effectiveness
    at its turn). Exact rationals, so sum(weights) == len(cover) holds with
    no tolerance. Requires a valid cover in which every listed set covers at
    least one new element at its turn; anything else raises
    :class:`InvalidCoverError`.
    """
    weights: dict[int, Fraction] = {}
    seen: set[int] = set()
    for s in cover.set_indices:
        if not 1 <= s <= system.n_sets:
            raise InvalidCoverError(f"set index {s} outside [1, {system.n_sets}]")
        new = system.members(s) - seen
        if not new:
            raise InvalidCoverError(f"set {s} covers no new element at its turn")
        share = Fraction(1, len(new))
        for e in new:
            weights[e] = share
        seen.update(new)
    if len(seen) != system.universe_size:
        missing = min(system.universe().difference(seen))
        raise InvalidCoverError(f"cover misses element {missing}")
    return weights


def harmonic(n: int) -> Fraction:
    """H(n) = 1 + 1/2 + ... + 1/n as an exact rational."""
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))
