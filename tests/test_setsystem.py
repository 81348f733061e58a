import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covert_setcover.discovery import (
    DiscoveryResult,
    LayeredGraphOracle,
    competitive_ratio,
    run_network_discovery,
)
from covert_setcover.errors import (
    BruteForceCapExceededError,
    InvalidCoverError,
    UncoverableInstanceError,
)
from covert_setcover.graphs import Graph
from covert_setcover.oracle import CovertOracle, QueryLedger
from covert_setcover.pseudo_greedy import run_pseudo_greedy
from covert_setcover.setsystem import (
    Cover,
    brute_force_min_cover,
    build_set_system,
    from_json_dict,
    greedy_cover,
    to_json_dict,
    verify_cover,
)

from oracles import (
    apportioned_weights,
    coverage_order,
    exhaustive_min_cover,
    harmonic,
    naive_build,
    naive_greedy,
)
from strategies import coverable_families, families, random_system

# Each row is rebuilt per call, so a one-shot generator is fresh for both builders.
CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "frozenset": frozenset,
    "generator": lambda values: (v for v in values),
}
SHAPES = {
    "as-drawn": lambda values: values,
    "sorted": lambda values: sorted(set(values)),
    "descending": lambda values: sorted(set(values), reverse=True),
    "duplicated": lambda values: sorted(values + values),
    "empty": lambda values: [],
}


def _outcome(build, rows, n):
    """(sets, element_to_sets) of a build, or the message of its ValueError."""
    try:
        built = build(rows, n)
    except ValueError as exc:
        return str(exc)
    return built if isinstance(built, tuple) else (built.sets, built.element_to_sets)


@st.composite
def shaped_rows(draw, bad_values=()):
    """(n, [(container, values)]): rows in every shape and container, optionally with bad elements."""
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        values = SHAPES[draw(st.sampled_from(sorted(SHAPES)))](
            draw(st.lists(st.integers(1, n), max_size=8))
        )
        if bad_values:
            for bad in draw(st.lists(st.sampled_from(bad_values), max_size=2)):
                values.insert(draw(st.integers(0, len(values))), bad)
        rows.append((draw(st.sampled_from(sorted(CONTAINERS))), values))
    return n, rows


class TestBuild:
    def test_inverse_index(self):
        system = build_set_system([[1, 2], [2, 3]], 3)
        assert system.element_to_sets == ((1,), (1, 2), (2,))
        assert system.sets == ((1, 2), (2, 3))

    def test_sets_stored_sorted_without_duplicates(self):
        system = build_set_system([[3, 1, 3], [2]], 3)
        assert system.sets == ((1, 3), (2,))
        assert system.element_to_sets == ((1,), (2,), (1,))

    @settings(max_examples=100)
    @given(data=st.data())
    def test_layout_is_increasing_and_exactly_inverse(self, data):
        n = data.draw(st.integers(1, 20))
        raw = data.draw(st.lists(st.lists(st.integers(1, n)), min_size=1, max_size=8))
        system = build_set_system(raw, n)
        assert system.sets == tuple(tuple(sorted(set(members))) for members in raw)
        assert len(system.element_to_sets) == n
        for row in system.sets + system.element_to_sets:
            assert type(row) is tuple
            assert all(a < b for a, b in zip(row, row[1:]))
        by_set = {(s, e) for s, row in enumerate(system.sets, start=1) for e in row}
        by_element = {(s, e) for e, row in enumerate(system.element_to_sets, start=1) for s in row}
        assert by_set == by_element

    @settings(max_examples=200)
    @given(case=shaped_rows())
    def test_matches_naive_build(self, case):
        n, rows = case
        built = build_set_system([CONTAINERS[kind](values) for kind, values in rows], n)
        expected = naive_build([CONTAINERS[kind](values) for kind, values in rows], n)
        assert (built.sets, built.element_to_sets) == expected

    @settings(max_examples=200)
    @given(case=shaped_rows(bad_values=(True, False, 2.0, 1.0, "a", 0, -1, 99, None)))
    def test_bad_elements_match_naive_build(self, case):
        # Either both builds give the same layout (a bad value equal to a kept
        # int, as True in [1, True], is dropped by the de-duplication), or
        # both raise a ValueError naming the same element.
        n, rows = case
        built = _outcome(build_set_system, [CONTAINERS[kind](v) for kind, v in rows], n)
        assert built == _outcome(naive_build, [CONTAINERS[kind](v) for kind, v in rows], n)

    @pytest.mark.parametrize("kind", sorted(CONTAINERS))
    @pytest.mark.parametrize(
        "row",
        [[True], [2.0, 1], ["a"], [0, 2], [2, 4], [1, "a"], ["a", 3, 1], [2.5, 10, 3], [1, True],
         [3, 2, 2.0]],
        ids=["true", "float", "string", "zero", "n-plus-1", "mixed", "mixed-unsorted", "two-bad",
             "true-after-1", "float-after-2"],
    )
    def test_bad_element_outcome_matches_naive_build(self, row, kind):
        # A mixed row must not escape as a TypeError from sorting "a" against an int.
        # As a frozenset, "two-bad" lists 2.5 before 10, a tuple copy's set the other
        # way. De-duplication keeps the first of two equal values, so the last two
        # rows build: [1, True] as (1,), [3, 2, 2.0] as (2, 3).
        rows = [[1, 2], row]
        built = _outcome(build_set_system, [CONTAINERS[kind](r) for r in rows], 3)
        assert built == _outcome(naive_build, [CONTAINERS[kind](r) for r in rows], 3)

    def test_increasing_tuple_row_is_stored_as_is(self):
        increasing, unsorted, empty = (1, 3, 5), (4, 2), ()
        system = build_set_system([increasing, unsorted, empty, [2, 5]], 5)
        assert system.sets[0] is increasing
        assert system.sets[1] == (2, 4) and system.sets[1] is not unsorted
        assert system.sets[2] == ()
        assert system.sets[3] == (2, 5)

    def test_singleton(self):
        system = build_set_system([[1]], 1)
        assert system.universe_size == 1
        assert system.n_sets == 1

    def test_element_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            build_set_system([[1, 4]], 3)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_set_system([], 3)

    def test_bad_universe_size(self):
        with pytest.raises(ValueError):
            build_set_system([[1]], 0)

    @pytest.mark.parametrize("element", [True, 1.0], ids=["bool", "float"])
    def test_non_integer_element_rejected(self, element):
        with pytest.raises(ValueError, match="outside"):
            build_set_system([[element, 2]], 2)

    @pytest.mark.parametrize(
        "doc",
        [
            [[1, 2]],
            {"universe_size": 2.0, "sets": [[1, 2]]},
            {"universe_size": 2, "sets": [1, 2]},
            {"universe_size": 2, "sets": [[[1], 2]]},
        ],
        ids=["list-document", "float-universe", "sets-not-lists", "nested-element"],
    )
    def test_malformed_json_rejected(self, doc):
        with pytest.raises(ValueError):
            from_json_dict(doc)

    @pytest.mark.parametrize("bad", [0, -1, 4], ids=["zero", "negative", "n-plus-1"])
    def test_json_out_of_range_element_named(self, bad):
        # In-range rows are read through a shared (0, ..., n) tuple; -1 must not wrap to n.
        doc = {"universe_size": 3, "sets": [[1, 2], [3, bad], [bad]]}
        with pytest.raises(ValueError, match=f"set 2 contains element {bad} outside"):
            from_json_dict(doc)

    def test_inverse_is_exact(self):
        rng = random.Random(7)
        for _ in range(20):
            system, _ = random_system(rng)
            for row in system.sets + system.element_to_sets:
                assert list(row) == sorted(set(row))
            for e in range(1, system.universe_size + 1):
                for s in range(1, system.n_sets + 1):
                    assert (s in system.element_to_sets[e - 1]) == (e in system.sets[s - 1])

    def test_json_round_trip(self):
        system, _ = random_system(random.Random(3))
        assert from_json_dict(to_json_dict(system)) == system


SMALL = build_set_system([[1, 2], [2]], 2)
PATH_3 = Graph.from_edges(3, [(1, 2), (2, 3)])
REPORT = DiscoveryResult(statuses={}, query_set=[], ledger=QueryLedger())


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: build_set_system(None, 3), ValueError),
        (lambda: build_set_system([1, 2], 3), ValueError),
        (lambda: build_set_system([[1], [[2]]], 3), ValueError),
        (lambda: verify_cover(SMALL, None), InvalidCoverError),
        (lambda: Cover.from_indices(SMALL, 1), InvalidCoverError),
        (lambda: greedy_cover(SMALL, "a"), ValueError),
        (lambda: greedy_cover(SMALL, None), ValueError),
        (lambda: greedy_cover(SMALL, True), ValueError),
        (lambda: competitive_ratio(REPORT, "3"), ValueError),
        (lambda: competitive_ratio(REPORT, True), ValueError),
        (lambda: Graph.from_edges(3, None), ValueError),
        (lambda: run_pseudo_greedy(CovertOracle(PATH_3)), ValueError),
        (lambda: run_network_discovery(LayeredGraphOracle(SMALL)), ValueError),
    ],
    ids=["family-none", "rows-not-iterable", "unhashable-element", "cover-none",
         "indices-not-iterable", "theta-string", "theta-none", "theta-bool",
         "opt-size-string", "opt-size-bool", "edges-none", "covert-oracle-on-graph",
         "layered-oracle-on-set-system"],
)
def test_wrong_type_raises_typed_error(call, error):
    # Each of these ended in a bare TypeError from len, tuple, set or a comparison, in an
    # AttributeError from an oracle over the wrong hidden type, or ran with a bool as 1.
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error


class TestGreedy:
    def test_three_set_example(self):
        system = build_set_system([[1, 2, 3], [3, 4], [4]], 4)
        assert greedy_cover(system).set_indices == (1, 2)

    def test_single_universe_set(self):
        system = build_set_system([[1, 2, 3]], 3)
        assert greedy_cover(system).set_indices == (1,)

    def test_lowest_index_tie_break(self):
        system = build_set_system([[1, 2], [3, 4]], 4)
        assert greedy_cover(system).set_indices[0] == 1

    def test_uncoverable_names_element(self):
        system = build_set_system([[1, 2]], 3)
        with pytest.raises(UncoverableInstanceError) as err:
            greedy_cover(system)
        assert err.value.element == 3

    def test_theta_out_of_range(self):
        system = build_set_system([[1]], 1)
        for theta in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                greedy_cover(system, theta=theta)

    def test_relaxed_theta_accepts_earlier_sets(self):
        # Set 1 holds 2 of the max 3 uncovered; theta .5 takes it first.
        system = build_set_system([[1, 2], [2, 3, 4]], 4)
        assert greedy_cover(system, theta=0.5).set_indices == (1, 2)
        assert greedy_cover(system, theta=1.0).set_indices == (2, 1)

    @pytest.mark.parametrize("theta", [1.0, 0.5, 0.25])
    def test_harmonic_bound_sweep(self, theta):
        rng = random.Random(11)
        for _ in range(60):
            system, sets = random_system(rng)
            cover = greedy_cover(system, theta=theta)
            assert verify_cover(system, cover)
            opt = exhaustive_min_cover(sets, system.universe_size)
            bound = harmonic(system.universe_size) * len(opt) / Fraction(theta)
            assert Fraction(len(cover)) <= bound

    @settings(max_examples=60)
    @given(family=coverable_families(max_n=12), theta=st.sampled_from([1.0, 0.5]))
    def test_harmonic_bound_property(self, family, theta):
        n, sets = family
        cover = greedy_cover(build_set_system(sets, n), theta=theta)
        opt = exhaustive_min_cover(sets, n)
        h_n = sum(Fraction(1, j) for j in range(1, n + 1))
        assert len(cover) * Fraction(theta) <= len(opt) * h_n

    def test_deterministic(self):
        system, _ = random_system(random.Random(5))
        assert greedy_cover(system) == greedy_cover(system)

    # Wide families give runs of picks at one largest count, where greedy_cover resumes
    # its scans; thetas next to 0 and 1 and a Fraction test the bar ceil(theta * n_max);
    # an all-empty family must name element 1 and never pick the pad before set 1.
    @settings(max_examples=200)
    @given(
        family=st.one_of(
            families(),
            families(max_n=80, max_m=48),
            st.builds(lambda n, m: (n, [set()] * m), st.integers(1, 24), st.integers(1, 8)),
        ),
        theta=st.sampled_from([1.0, 0.5, 0.25, 1e-9, 0.999999, Fraction(2, 3)]),
    )
    def test_matches_naive_recount(self, family, theta):
        n, sets = family
        picks, witness = naive_greedy(sets, n, theta)
        system = build_set_system(sets, n)
        if witness is None:
            assert list(greedy_cover(system, theta=theta).set_indices) == picks
        else:
            with pytest.raises(UncoverableInstanceError) as err:
                greedy_cover(system, theta=theta)
            assert err.value.element == witness

    def test_covers_of_same_sized_systems_share_index_ints(self):
        # Trial records keep their covers, so a pick must not be a fresh int
        # object per cover: covers of m-set families share one object per index.
        m = 400
        a = build_set_system([[1]] * (m - 1) + [[1, 2]], 2)
        b = build_set_system([[3]] * (m - 1) + [[1, 2, 3]], 3)
        first, second = greedy_cover(a).set_indices, greedy_cover(b, theta=0.5).set_indices
        assert first == second == (m,)
        assert first[0] is second[0]


class TestBruteForce:
    def test_example_size_two(self):
        system = build_set_system([[1, 2, 3], [3, 4], [4]], 4)
        assert len(brute_force_min_cover(system)) == 2

    def test_single_set(self):
        system = build_set_system([[1, 2]], 2)
        assert brute_force_min_cover(system).set_indices == (1,)

    def test_disjoint_singletons(self):
        system = build_set_system([[1], [2], [3]], 3)
        assert len(brute_force_min_cover(system)) == 3

    def test_lexicographically_smallest(self):
        system = build_set_system([[1, 2], [3, 4], [1, 3], [2, 4]], 4)
        assert brute_force_min_cover(system).set_indices == (1, 2)

    def test_cap(self):
        system = build_set_system([[1]] * 21, 1)
        with pytest.raises(BruteForceCapExceededError):
            brute_force_min_cover(system)

    def test_uncoverable(self):
        system = build_set_system([[2]], 2)
        with pytest.raises(UncoverableInstanceError) as err:
            brute_force_min_cover(system)
        assert err.value.element == 1

    def test_matches_independent_enumeration(self):
        rng = random.Random(23)
        for _ in range(30):
            system, sets = random_system(rng, max_n=10, max_m=8)
            expected = exhaustive_min_cover(sets, system.universe_size)
            assert brute_force_min_cover(system).set_indices == expected


class TestVerify:
    def test_true_and_false(self):
        system = build_set_system([[1, 2, 3], [3, 4], [4]], 4)
        assert verify_cover(system, Cover.from_indices(system, [1, 2]))
        assert not verify_cover(system, Cover.from_indices(system, [3]))
        assert not verify_cover(system, [])

    def test_accepts_raw_indices(self):
        system = build_set_system([[1, 2], [2, 3]], 3)
        assert verify_cover(system, [1, 2])

    def test_from_indices_rejects_duplicates(self):
        system = build_set_system([[1, 2], [2, 3]], 3)
        with pytest.raises(InvalidCoverError):
            Cover.from_indices(system, [1, 1])

    @pytest.mark.parametrize(
        "index", [0, -1, 3, 1.0, True], ids=["zero", "negative", "above-m", "float", "bool"]
    )
    def test_bad_index_rejected(self, index):
        # 0 and -1 used to wrap to the last set, m + 1 raised IndexError and 1.0 TypeError.
        system = build_set_system([[1], [1, 2]], 2)
        for cover in ([index], Cover(set_indices=(index,)), [2, index]):
            with pytest.raises(InvalidCoverError, match=f"set index {index!r} outside"):
                verify_cover(system, cover)
        with pytest.raises(InvalidCoverError, match=f"set index {index!r} outside"):
            Cover.from_indices(system, [index])
        with pytest.raises(InvalidCoverError, match=f"set index {index!r} outside"):
            apportioned_weights(system, Cover(set_indices=(index,)))


class TestApportionment:
    def test_example_thirds(self):
        system = build_set_system([[1, 2, 3], [3, 4]], 4)
        weights = apportioned_weights(system, Cover.from_indices(system, [1, 2]))
        assert weights == {
            1: Fraction(1, 3),
            2: Fraction(1, 3),
            3: Fraction(1, 3),
            4: Fraction(1),
        }

    def test_sum_equals_cover_size(self):
        rng = random.Random(31)
        for _ in range(40):
            system, _ = random_system(rng)
            cover = greedy_cover(system)
            weights = apportioned_weights(system, cover)
            assert sum(weights.values()) == len(cover)

    def test_rejects_dead_pick(self):
        system = build_set_system([[1, 2], [1], [2]], 2)
        with pytest.raises(InvalidCoverError, match="no new element"):
            apportioned_weights(system, Cover.from_indices(system, [1, 2]))

    def test_rejects_partial_cover(self):
        system = build_set_system([[1], [2]], 2)
        with pytest.raises(InvalidCoverError, match="misses"):
            apportioned_weights(system, Cover.from_indices(system, [1]))

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_position_bound_against_optimum(self, theta):
        # w(x_i) <= (opt / theta) / (n - i + 1) with elements numbered in
        # the order the cover reaches them.
        rng = random.Random(43)
        for _ in range(40):
            system, sets = random_system(rng, max_n=12, max_m=8)
            cover = greedy_cover(system, theta=theta)
            weights = apportioned_weights(system, cover)
            opt = len(exhaustive_min_cover(sets, system.universe_size))
            order = coverage_order(sets, cover.set_indices)
            n = system.universe_size
            for pos, element in enumerate(order, start=1):
                bound = Fraction(opt) / Fraction(theta) / (n - pos + 1)
                assert weights[element] <= bound


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)
