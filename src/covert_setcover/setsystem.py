"""Explicit set-system instances and the reference cover algorithms.

Everything here has full knowledge of the instance: the relaxed greedy
cover, the exhaustive optimum and cover verification.
Covert algorithms (which see the instance only through a query oracle)
live in :mod:`covert_setcover.pseudo_greedy` and
:mod:`covert_setcover.epsnet`.

Elements are numbered 1..universe_size and sets 1..len(sets); the index
order of the sets is the canonical order used for every tie-break.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, count, islice
from math import ceil
from numbers import Real
from operator import lt
from typing import Iterable, Sequence

from .errors import (
    BruteForceCapExceededError,
    InvalidCoverError,
    UncoverableInstanceError,
)

BRUTE_FORCE_SET_CAP = 20
_INT_ONLY = frozenset({int})


@dataclass(frozen=True)
class SetSystem:
    """A ground set of ``universe_size`` elements plus an indexed family of subsets.

    ``sets[i]`` holds the members of set ``i + 1`` in increasing order;
    ``element_to_sets[e - 1]`` holds the indices of the sets containing element
    ``e`` in increasing order (the exact inverse of ``sets``). Both are tuples
    of tuples, built once and never changed, so an oracle can hand out a stored
    tuple as its answer and a system can be shared read-only between
    concurrent trials.
    """

    universe_size: int
    sets: tuple[tuple[int, ...], ...]
    element_to_sets: tuple[tuple[int, ...], ...]

    @property
    def n_sets(self) -> int:
        return len(self.sets)


def build_set_system(sets: Sequence[Iterable[int]], universe_size: int) -> SetSystem:
    """Validate and build a :class:`SetSystem`, including the inverse index.

    Raises ``ValueError`` if the family is empty or not a sequence, a set is
    not an iterable of hashable values, ``universe_size`` is not an integer
    >= 1, or any listed element is not an integer in ``[1, universe_size]``
    (a float or a bool is not an element).
    """
    if type(universe_size) is not int or universe_size < 1:
        raise ValueError(f"universe_size must be an integer >= 1, got {universe_size!r}")
    try:
        n_rows = len(sets)
    except TypeError:
        raise ValueError(f"the set family must be a sequence, got {sets!r}") from None
    if n_rows == 0:
        raise ValueError("empty set family")
    rows = []
    for idx, members in enumerate(sets, start=1):
        # A strictly increasing int row is kept as is; a bad row is checked in set(members) order.
        try:
            row = tuple(members)
        except TypeError:
            raise ValueError(f"set {idx} is not an iterable of elements: {members!r}") from None
        if _INT_ONLY.issuperset(map(type, row)):
            if not all(map(lt, row, islice(row, 1, None))):
                row = tuple(sorted(set(row)))
            if not row or (row[0] >= 1 and row[-1] <= universe_size):
                rows.append(row)
                continue
        try:
            unique = set(members if isinstance(members, (set, frozenset)) else row)
        except TypeError:
            raise ValueError(f"set {idx} holds an unhashable value: {row!r}") from None
        for e in unique:
            if not (type(e) is int and 1 <= e <= universe_size):
                raise ValueError(
                    f"set {idx} contains element {e!r} outside [1, {universe_size}]"
                    " or not an integer"
                )
        rows.append(tuple(sorted(unique)))  # a non-int equal to a kept int: True in [1, True]
    # Sets are visited in index order, so each inverse list comes out sorted.
    containing: list[list[int]] = [[] for _ in range(universe_size)]
    for idx, row in enumerate(rows, start=1):
        for e in row:
            containing[e - 1].append(idx)
    return SetSystem(
        universe_size=universe_size,
        sets=tuple(rows),
        element_to_sets=tuple(map(tuple, containing)),
    )


def to_json_dict(system: SetSystem, meta: dict | None = None) -> dict:
    """Serialize to the interchange form {"universe_size": ..., "sets": [[...], ...]}."""
    doc = {
        "universe_size": system.universe_size,
        "sets": [list(members) for members in system.sets],
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
    n = doc["universe_size"]
    if type(n) is int and n >= 1:
        # json.load makes a fresh int per entry; mapping each in-range row through one
        # shared tuple leaves one int object per element value. A row holding 0, -1 or
        # n + 1 is passed on as it is, so build_set_system names the bad element.
        values = tuple(range(n + 1))
        sets = [
            tuple(map(values.__getitem__, row)) if row and min(row) >= 1 and max(row) <= n
            else row
            for row in sets
        ]
    return build_set_system(sets, n)


@dataclass(frozen=True)
class Cover:
    """A chosen sub-family: set indices in selection order."""

    set_indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.set_indices)

    @classmethod
    def from_indices(cls, system: SetSystem, indices: Iterable[int]) -> "Cover":
        idx = _index_tuple(indices)
        if len(idx) != len(set(idx)):
            raise InvalidCoverError(f"duplicate set indices in {idx}")
        for s in idx:
            _check_index(system, s)
        return cls(set_indices=idx)


def _index_tuple(indices) -> tuple:
    try:
        return tuple(indices)
    except TypeError:
        raise InvalidCoverError(f"set indices must be an iterable, got {indices!r}") from None


def _check_index(system: SetSystem, s) -> None:
    """Reject a set index that is not an ``int`` in [1, m] (a bool, a float, 0 or -1)."""
    if not (type(s) is int and 1 <= s <= system.n_sets):
        raise InvalidCoverError(f"set index {s!r} outside [1, {system.n_sets}] or not an integer")


def verify_cover(system: SetSystem, cover: Cover | Iterable[int]) -> bool:
    """True iff the listed sets cover the universe; a bad set index raises InvalidCoverError."""
    indices = cover.set_indices if isinstance(cover, Cover) else _index_tuple(cover)
    covered: set[int] = set()
    for s in indices:
        _check_index(system, s)
        covered.update(system.sets[s - 1])
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
    count of every set containing it, O(sum of set sizes) over the whole run;
    the last pick's decrements are skipped, since nothing reads them.
    Counts only fall, so while n_max holds, every set before the last one
    found at n_max is below it and every set before the last pick is below
    the bar ceil(theta * n_max) (an int count reaches theta * n_max exactly
    when it reaches the bar). Both scans resume where they stopped; a full
    pass over the m counts is made only when n_max falls.

    Raises :class:`UncoverableInstanceError` naming an uncovered element if
    the family cannot cover the universe.
    """
    if not (isinstance(theta, Real) and not isinstance(theta, bool) and 0.0 < theta <= 1.0):
        raise ValueError(f"theta must be a number in (0, 1], got {theta!r}")
    sets, containing = system.sets, system.element_to_sets
    numbers = _set_numbers(len(sets))
    counts = [0, *map(len, sets)]  # counts[s] for set s; the pad at 0 never reaches a bar >= 1
    uncovered = set(range(1, system.universe_size + 1))
    chosen: list[int] = []
    while uncovered:
        n_max = max(counts)
        if n_max == 0:
            raise UncoverableInstanceError(min(uncovered))
        bar = ceil(theta * n_max)
        top = s = 0
        while True:  # the picks at this n_max; covering the last element ends it too
            try:
                top = counts.index(n_max, top)
            except ValueError:
                break
            if bar == n_max:
                s = top
            else:
                s = next(compress(count(s), map(bar.__le__, islice(counts, s, None))))
            chosen.append(numbers[s - 1])
            new = uncovered.intersection(sets[s - 1])
            uncovered -= new
            if not uncovered:  # the last pick: its decrements would never be read
                break
            for e in new:
                for t in containing[e - 1]:
                    counts[t] -= 1
    return Cover.from_indices(system, chosen)


def brute_force_min_cover(system: SetSystem) -> Cover:
    """Exact minimum cover by subset enumeration, smallest size first.

    Among minimum covers, returns the lexicographically smallest index
    sequence. Refuses instances with more than BRUTE_FORCE_SET_CAP sets
    (20; 2^20 subsets is the tractability line at desk scale).
    """
    m = system.n_sets
    if m > BRUTE_FORCE_SET_CAP:
        raise BruteForceCapExceededError(
            f"{m} sets exceeds the brute-force cap of {BRUTE_FORCE_SET_CAP}"
        )
    for e, containing in enumerate(system.element_to_sets, start=1):
        if not containing:
            raise UncoverableInstanceError(e)
    masks = [_mask(members) for members in system.sets]
    universe_mask = (1 << system.universe_size) - 1
    for size in range(1, m + 1):
        for combo in combinations(range(1, m + 1), size):
            acc = 0
            for s in combo:
                acc |= masks[s - 1]
            if acc == universe_mask:
                return Cover.from_indices(system, combo)
    raise AssertionError("unreachable: full-family union covers the universe")


def _mask(members: Iterable[int]) -> int:
    mk = 0
    for e in members:
        mk |= 1 << (e - 1)
    return mk
