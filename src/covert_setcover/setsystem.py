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
from functools import lru_cache, reduce
from itertools import combinations, compress, count, islice, repeat
from math import ceil
from operator import lt, or_
from typing import Iterable, Sequence

from .errors import (
    BruteForceCapExceededError,
    InvalidCoverError,
    UncoverableInstanceError,
    require_count,
    require_document,
    require_instance,
    require_size,
    require_theta,
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
    concurrent trials. Only :func:`build_set_system` and :meth:`transposed` make one,
    and the round engine relies on that for every probe answer it reads.
    """

    universe_size: int
    sets: tuple[tuple[int, ...], ...]
    element_to_sets: tuple[tuple[int, ...], ...]

    @property
    def n_sets(self) -> int:
        return len(self.sets)

    def transposed(self) -> "SetSystem":
        """The dual system: element e's home sets become set e, over the set indices."""
        return SetSystem(self.n_sets, sets=self.element_to_sets, element_to_sets=self.sets)


def build_set_system(sets: Sequence[Iterable[int]], universe_size: int) -> SetSystem:
    """Validate and build a :class:`SetSystem`, including the inverse index.

    Raises ``ValueError`` if the family is empty, not a sequence or longer than
    ``MAX_INSTANCE_SIZE``, a set is not iterable, ``universe_size`` is not an
    integer in [1, ``MAX_INSTANCE_SIZE``], or a row lists a value other than an
    ``int`` in ``[1, universe_size]`` (a float or a bool is not an element); the
    first such value in the row's order is named.

    A tuple row that is already a strictly increasing run of in-range ints is
    stored as the same object, so a caller that passes tuples is not copied.
    Only one copy of each index is live at a time: the inverse index is
    filled as lists, and each list is freed as soon as its tuple is built.
    """
    require_count("universe_size", universe_size)
    try:
        n_rows = len(sets)
    except TypeError:
        raise ValueError(f"the set family must be a sequence, got {sets!r}") from None
    require_size("the number of sets", n_rows)
    if n_rows == 0:
        raise ValueError("empty set family")
    rows = []
    for idx, members in enumerate(sets, start=1):
        # A strictly increasing int row is kept as is; a bad row is named by its first bad value.
        try:
            row = tuple(members)
        except TypeError:
            raise ValueError(f"set {idx} is not an iterable of elements: {members!r}") from None
        if _INT_ONLY.issuperset(map(type, row)):
            kept = row if all(map(lt, row, islice(row, 1, None))) else tuple(sorted(set(row)))
            if not kept or (kept[0] >= 1 and kept[-1] <= universe_size):
                rows.append(kept)
                continue
        bad = next(e for e in row if not (type(e) is int and 1 <= e <= universe_size))
        raise ValueError(
            f"set {idx} contains element {bad!r} outside [1, {universe_size}] or not an integer"
        )
    # Sets are visited in index order, so each inverse list comes out sorted. Slot 0
    # pads the index, so ``containing[e]`` makes no ``e - 1`` int per entry.
    containing: list[list[int]] = [[] for _ in range(universe_size + 1)]
    for idx, row in enumerate(rows, start=1):
        for e in row:
            containing[e].append(idx)
    # Popped from the end, each list is freed as soon as its tuple is built, so the
    # inverse index never exists twice; the pad at slot 0 is left behind.
    inverse = list(map(tuple, map(containing.pop, repeat(-1, universe_size))))
    inverse.reverse()
    return SetSystem(
        universe_size=universe_size,
        sets=tuple(rows),
        element_to_sets=tuple(inverse),
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
    """Parse the interchange form; a malformed or oversized document raises ValueError."""
    require_document(doc, "set system", ("universe_size", "sets"))
    sets = doc["sets"]
    if isinstance(sets, list):
        require_size("the number of sets", len(sets))  # before any row is read
    well_formed = isinstance(sets, list) and all(
        isinstance(members, list) and all(type(e) is int for e in members) for members in sets
    )
    if not well_formed:
        raise ValueError('set system "sets" must be a list of lists of integers')
    n = doc["universe_size"]
    require_count("universe_size", n)
    # json.load makes a fresh int per entry; mapping each in-range row through one
    # shared tuple leaves one int object per element value. A row holding 0, -1 or
    # n + 1 is passed on as it is, so build_set_system names the bad element.
    values = tuple(range(n + 1))
    sets = [
        tuple(map(values.__getitem__, row)) if row and min(row) >= 1 and max(row) <= n else row
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
    require_instance("system", system, SetSystem)
    indices = cover.set_indices if isinstance(cover, Cover) else _index_tuple(cover)
    covered: set[int] = set()
    for s in indices:
        _check_index(system, s)
        covered.update(system.sets[s - 1])
    return len(covered) == system.universe_size


@lru_cache(maxsize=4)
def _numbers(m: int) -> tuple[int, ...]:
    """(1, ..., m), shared so that covers and covert runs reuse one int per index or element."""
    return tuple(range(1, m + 1))


def greedy_cover(system: SetSystem, theta: float = 1.0) -> Cover:
    """Relaxed greedy cover: any pick must grab at least ``theta`` times the best.

    Each pick is the first set in index order whose uncovered count is at
    least theta * n_max, n_max being the largest; theta = 1 is classic greedy
    with lowest-index ties. So |cover| <= (OPT / theta) * H(universe_size).
    Raises :class:`UncoverableInstanceError` naming an uncovered element if
    the family cannot cover the universe, and ``ValueError`` if a pick covers
    nothing new, which only a wrong ``element_to_sets`` can cause.
    """
    require_instance("system", system, SetSystem)
    require_theta(theta)
    sets, containing = system.sets, system.element_to_sets
    numbers = _numbers(len(sets))
    counts = [0, *map(len, sets)]  # counts[s] for set s; the pad at 0 never reaches a bar >= 1
    uncovered = set(range(1, system.universe_size + 1))
    chosen: list[int] = []
    while uncovered:
        n_max = max(counts)
        if n_max == 0:
            raise UncoverableInstanceError(min(uncovered))
        bar = ceil(theta * n_max)
        # Counts only fall, so while n_max holds, every set before the last one found at
        # n_max is below it and every set before the last pick is below the bar (an int
        # count reaches theta * n_max exactly when it reaches the bar): both scans resume
        # where they stopped, and all m counts are read again only when n_max falls.
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
            if not new:
                raise ValueError("element_to_sets is not the inverse of sets")
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
    (20; 2^20 subsets is the tractability line at desk scale). A system
    whose ``sets`` together miss an element that ``element_to_sets`` gives a
    home set raises ``ValueError``, as a wrong inverse index does in
    :func:`greedy_cover`.
    """
    require_instance("system", system, SetSystem)
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
    if reduce(or_, masks, 0) != universe_mask:
        raise ValueError("element_to_sets is not the inverse of sets")
    for size in range(1, m):
        for combo in combinations(range(1, m + 1), size):
            acc = 0
            for s in combo:
                acc |= masks[s - 1]
            if acc == universe_mask:
                return Cover.from_indices(system, combo)
    return Cover.from_indices(system, tuple(range(1, m + 1)))  # the whole family covers


def _mask(members: Iterable[int]) -> int:
    mk = 0
    for e in members:
        mk |= 1 << (e - 1)
    return mk
