import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covert_setcover.discovery import (
    DiscoveryResult,
    LayeredGraphOracle,
    competitive_ratio,
    offline_verification,
    run_network_discovery,
)
from covert_setcover.errors import (
    BruteForceCapExceededError,
    MAX_INSTANCE_SIZE,
    InvalidCoverError,
    UncoverableInstanceError,
)
from covert_setcover.generators import gen_set_system
from covert_setcover.graphs import Graph, certified_pairs, layered_answer
from covert_setcover.harness import bench_planted_family
from covert_setcover.oracle import CovertOracle, QueryLedger
from covert_setcover.pseudo_greedy import run_pseudo_greedy
from covert_setcover.setsystem import (
    Cover,
    SetSystem,
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

SRC = str(Path(__file__).resolve().parents[1] / "src")

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


def _run_child(code, **env):
    """Run ``code`` in a fresh interpreter over this checkout; a hang fails after 20 s."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env), timeout=20)


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
        # tuple(set([9, 2, 9])) is (9, 2) on CPython, so an unsorted row would show.
        system = build_set_system([[9, 2, 9], [1]], 9)
        assert system.sets == ((2, 9), (1,))
        assert system.element_to_sets == ((2,), (1,), (), (), (), (), (), (), (1,))

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
    @example(case=(8, [("list", [8, 1])]))  # set((8, 1)) iterates 8 first
    def test_matches_naive_build(self, case):
        n, rows = case
        built = build_set_system([CONTAINERS[kind](values) for kind, values in rows], n)
        expected = naive_build([CONTAINERS[kind](values) for kind, values in rows], n)
        assert (built.sets, built.element_to_sets) == expected

    @settings(max_examples=200)
    @given(case=shaped_rows(bad_values=(True, False, 2.0, 1.0, "a", 0, -1, 99, None)))
    @example(case=(1, [("list", ["a"])]))
    def test_bad_elements_match_naive_build(self, case):
        # Either both builds give the same layout, or both raise a ValueError
        # naming the same element: the first bad value in the row's own order,
        # even one equal to a kept int (True in [1, True]).
        n, rows = case
        built = _outcome(build_set_system, [CONTAINERS[kind](v) for kind, v in rows], n)
        assert built == _outcome(naive_build, [CONTAINERS[kind](v) for kind, v in rows], n)

    @pytest.mark.parametrize("kind", sorted(CONTAINERS))
    @pytest.mark.parametrize(
        "row",
        [[True], [2.0, 1], ["a"], [0, 2], [2, 4], [1, "a"], ["a", 3, 1], [2.5, 10, 3], [4, 0],
         [1, True], [3, 2, 2.0]],
        ids=["true", "float", "string", "zero", "n-plus-1", "mixed", "mixed-unsorted", "two-bad",
             "two-bad-ints", "true-after-1", "float-after-2"],
    )
    def test_bad_element_outcome_matches_naive_build(self, row, kind):
        # A mixed row must not escape as a TypeError from sorting "a" against an int.
        # Each container is named by the first bad value it lists, so a frozenset
        # names "two-bad"'s 2.5 or 10 in its own iteration order, and a list names
        # "two-bad-ints"' 4, not the 0 a sort puts first. The last two rows hold a
        # bad value equal to a kept int, and are refused like [True, 1].
        rows = [[1, 2], row]
        built = _outcome(build_set_system, [CONTAINERS[kind](r) for r in rows], 3)
        assert built == _outcome(naive_build, [CONTAINERS[kind](r) for r in rows], 3)

    def test_bad_row_message_does_not_depend_on_the_hash_seed(self):
        # A set of these strings iterates in a per-seed order; the message follows the row's.
        code = (
            "from covert_setcover.setsystem import build_set_system\n"
            "try:\n"
            "    build_set_system([[1], ['b', 'a', 'c', 'd']], 3)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        messages = {_run_child(code, PYTHONHASHSEED=str(seed)).stdout for seed in range(4)}
        assert messages == {"set 2 contains element 'b' outside [1, 3] or not an integer\n"}

    @settings(max_examples=100)
    @given(case=families())
    def test_transposed_is_the_system_built_from_the_inverse(self, case):
        n, sets = case
        system = build_set_system(sets, n)
        assert system.transposed().transposed() == system
        assert system.transposed() == build_set_system(system.element_to_sets, system.n_sets)

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

    @pytest.mark.parametrize("size", [MAX_INSTANCE_SIZE + 1, 10**9])
    def test_universe_size_above_the_cap(self, size, bounded_memory):
        with pytest.raises(ValueError, match=f"universe_size is {size}; at most"):
            build_set_system([[1]], size)

    def test_too_many_sets_are_refused(self):
        # gen_set_system refuses m past the cap; a built family is capped the same way.
        with pytest.raises(ValueError, match=f"number of sets is {MAX_INSTANCE_SIZE + 1}; at most"):
            build_set_system([()] * (MAX_INSTANCE_SIZE + 1), 1)

    def test_json_with_too_many_sets_is_refused_before_any_row_is_read(self):
        class Rows(list):
            read = False

            def __iter__(self):
                Rows.read = True
                return super().__iter__()

        doc = {"universe_size": 1, "sets": Rows([[1]] * (MAX_INSTANCE_SIZE + 1))}
        with pytest.raises(ValueError, match=f"number of sets is {MAX_INSTANCE_SIZE + 1}; at most"):
            from_json_dict(doc)
        assert not Rows.read

    @pytest.mark.parametrize("element",[True, 1.0], ids=["bool", "float"])
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


class TestBits:
    @settings(max_examples=150)
    @given(family=families(max_n=70))
    @example(family=(9, [set(), {1, 9}, {7, 8}]))  # an empty set, element n, both sides of bit 8
    def test_matches_the_sum_of_powers(self, family):
        n, rows = family
        system = build_set_system(rows, n)
        for packed in (system, system.transposed()):
            for s, row in enumerate(packed.sets, start=1):
                assert packed.bits(s) == sum(1 << e for e in row)
                assert packed.bits(s) is packed.bits(s)  # packed once, then kept

    def test_packing_leaves_equality_and_hash_alone(self):
        a, b = (build_set_system([[1, 2], [], [3]], 3) for _ in range(2))

        def alike():
            return a == b and hash(a) == hash(b) and repr(a) == repr(b)

        assert alike()
        a.bits(1), a.bits(3)
        assert alike()  # only a has packed
        b.bits(2)
        assert alike()  # both have, different sets
        assert a._bits.keys() == {1, 3} and b._bits.keys() == {2}


SMALL = build_set_system([[1, 2], [2]], 2)
PATH_3 = Graph.from_edges(3, [(1, 2), (2, 3)])
REPORT = DiscoveryResult(statuses={}, query_set=[], ledger=QueryLedger())

# Every argument that is a count goes through errors.require_count, so each rejects
# these the same way, naming itself, before it allocates or runs anything.
COUNT_ARGUMENTS = {
    "universe-size": ("universe_size", lambda value: build_set_system([[1]], value)),
    "vertex-count": ("the vertex count", lambda value: Graph.from_edges(value, [])),
    "opt-size": ("opt_size", partial(competitive_ratio, REPORT)),
    "gen-sets-n": ("n", lambda value: gen_set_system("uniform-random", value, 4)),
    "gen-sets-m": ("m", lambda value: gen_set_system("uniform-random", 4, value)),
    "bench-k": ("k", lambda value: bench_planted_family([value, 2], [0], n=16, m=8)),
}
BAD_COUNTS = {"zero": 0, "negative": -1, "bool": True, "float": 2.0,
              "above-cap": MAX_INSTANCE_SIZE + 1}


def _count_message(name, value):
    if value == MAX_INSTANCE_SIZE + 1:
        return f"^{name} is {value}; at most {MAX_INSTANCE_SIZE} are allowed$"
    return f"^{name} must be an integer >= 1, got {value!r}$"


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: build_set_system(None, 3), ValueError, "the set family must be a sequence"),
        (lambda: build_set_system([1, 2], 3), ValueError, "set 1 is not an iterable"),
        (lambda: build_set_system([[1], [[2]]], 3), ValueError, r"set 2 contains element \[2\]"),
        (lambda: verify_cover(SMALL, None), InvalidCoverError, "set indices must be"),
        (lambda: Cover.from_indices(SMALL, 1), InvalidCoverError, "set indices must be"),
        (lambda: greedy_cover(SMALL, "a"), ValueError, "theta must be"),
        (lambda: greedy_cover(SMALL, None), ValueError, "theta must be"),
        (lambda: greedy_cover(SMALL, True), ValueError, "theta must be"),
        (lambda: greedy_cover(SMALL, 10**400), ValueError, "theta must be"),
        (lambda: competitive_ratio(REPORT, "3"), ValueError, "opt_size must be"),
        (lambda: competitive_ratio(REPORT, True), ValueError, "opt_size must be"),
        (lambda: Graph.from_edges(3, None), ValueError, "edges must be"),
        (lambda: run_pseudo_greedy(CovertOracle(PATH_3)), ValueError, "cannot hide a Graph"),
        (lambda: run_network_discovery(LayeredGraphOracle(SMALL)), ValueError,
         "cannot hide a SetSystem"),
        (lambda: greedy_cover(None), ValueError, "system must be a SetSystem, got NoneType"),
        (lambda: verify_cover(None, [1]), ValueError, "system must be a SetSystem"),
        (lambda: brute_force_min_cover(None), ValueError, "system must be a SetSystem"),
        (lambda: Graph.from_edges(3, [1]), ValueError, "edges must hold vertex pairs, got 1"),
        (lambda: offline_verification("x"), ValueError, "graph must be a Graph, got str"),
        (lambda: layered_answer(None, 1), ValueError, "graph must be a Graph, got NoneType"),
        (lambda: certified_pairs(None), ValueError, "answer must be a LayeredAnswer"),
    ] + [
        (partial(call, value), ValueError, _count_message(name, value))
        for name, call in COUNT_ARGUMENTS.values() for value in BAD_COUNTS.values()
    ],
    ids=["family-none", "rows-not-iterable", "unhashable-element", "cover-none",
         "indices-not-iterable", "theta-string", "theta-none", "theta-bool", "theta-huge-int",
         "opt-size-string", "opt-size-bool", "edges-none", "covert-oracle-on-graph",
         "layered-oracle-on-set-system", "greedy-system-none", "verify-system-none",
         "brute-force-system-none", "edge-not-a-pair", "offline-graph-string",
         "layered-graph-none", "certified-answer-none"]
    + [f"count-{site}-{label}" for site in COUNT_ARGUMENTS for label in BAD_COUNTS],
)
def test_wrong_type_raises_typed_error(call, error, message):
    # Each of these ended in a bare TypeError from len, tuple, set, a comparison or an
    # unpacking, in an AttributeError from a missing system, graph or answer or from an
    # oracle over the wrong hidden type, or ran with a bool as 1. The error names the
    # argument.
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


class TestGreedy:
    def test_wrong_inverse_index_raises_instead_of_looping(self):
        # The index leaves set 2 out of element 1's home sets, so after set 1 is picked,
        # set 2 keeps count 1 and without the check is picked again forever. Greedy reads
        # a set's members once per pick and can pick each set at most once, so a read
        # past the number of sets is a repeated pick and ends the run.
        class Bounded(tuple):
            reads = 0

            def __getitem__(self, i):
                Bounded.reads += 1
                if Bounded.reads > len(self):
                    raise AssertionError("greedy picked a set twice")
                return super().__getitem__(i)

        system = SetSystem(3, sets=Bounded(((1, 2), (1,), (3,))),
                           element_to_sets=((1,), (1,), (3,)))
        with pytest.raises(ValueError, match="^element_to_sets is not the inverse of sets$"):
            greedy_cover(system)

    def test_brute_force_refuses_a_wrong_inverse_index_too(self):
        # element_to_sets gives element 2 a home set, but no set holds it, so no subset
        # of the family covers the universe; the search used to end in AssertionError.
        system = SetSystem(2, sets=((1,), (1,)), element_to_sets=((1, 2), (1,)))
        with pytest.raises(ValueError, match="^element_to_sets is not the inverse of sets$"):
            brute_force_min_cover(system)

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
    @example(family=(2, [{1}, {2}]), theta=1.0)
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
    # its scans; up to 24 sets over up to 6 elements overlap enough that counts fall
    # between picks at every theta. Thetas next to 0 and 1 and a Fraction test the bar
    # ceil(theta * n_max); an all-empty family must name element 1 and never pick the
    # pad before set 1.
    @settings(max_examples=300)
    @given(
        family=st.one_of(
            families(),
            families(max_n=80, max_m=48),
            families(max_n=6, max_m=24),
            st.builds(lambda n, m: (n, [set()] * m), st.integers(1, 24), st.integers(1, 8)),
        ),
        theta=st.sampled_from([1.0, 0.5, 0.25, 1e-9, 0.999999, 0.75, Fraction(2, 3)]),
    )
    @example(family=(2, [{1}]), theta=1.0)
    @example(family=(3, [{1, 2}, {1, 2, 3}]), theta=0.5)  # the bar is 2, so set 1 is first
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

    def test_a_stale_set_at_the_bar_is_not_picked(self):
        # After set 1, set 3 is at the largest count 4 and exact, but set 2, first at the
        # bar 2, holds only element 5 uncovered: the pick is set 3, and set 2 comes last.
        system = build_set_system([[1, 2, 3, 4], [1, 2, 5], [6, 7, 8, 9]], 9)
        assert greedy_cover(system, theta=0.5).set_indices == (1, 3, 2)

    def test_an_empty_inverse_index_is_refused_at_the_second_pick(self):
        # Counts are exact, so the first pick's decrements read the index; with no home
        # sets, set 1 keeps its count 2 and its second pick would cover nothing new.
        system = SetSystem(4, sets=((1, 2), (3,), (4,)), element_to_sets=((),) * 4)
        with pytest.raises(ValueError, match="^element_to_sets is not the inverse of sets$"):
            greedy_cover(system)

    # A wrong inverse index is read at every pick; the run still ends, in a cover of the
    # sets or a typed error.
    @settings(max_examples=100)
    @given(family=families(max_n=12, max_m=40), theta=st.sampled_from([1.0, 0.5, 0.25]),
           data=st.data())
    def test_wrong_inverse_index_ends_in_a_cover_or_a_typed_error(self, family, theta, data):
        n, sets = family
        rows = tuple(tuple(sorted(members)) for members in sets)
        wrong = tuple(
            tuple(sorted(data.draw(st.sets(st.integers(1, len(rows)))))) for _ in range(n)
        )
        system = SetSystem(n, sets=rows, element_to_sets=wrong)
        try:
            assert verify_cover(system, greedy_cover(system, theta=theta))
        except (UncoverableInstanceError, ValueError):
            pass

    def test_wrong_inverse_index_runs_end(self):
        # Every home set misplaced: the first pick's decrements miss its own count, so
        # each run would pick its first set again, and each ends in ValueError instead.
        # The child's timeout turns a hang into a failure.
        code = (
            "from covert_setcover.setsystem import SetSystem, greedy_cover\n"
            "bad = ((3,), (1, 2))\n"
            "runs = [(SetSystem(2, sets=((1,), (2,)), element_to_sets=((2,), (1,))), 1.0),\n"
            "        (SetSystem(2, sets=((1,), (2,), (1,)), element_to_sets=bad), 1.0),\n"
            "        (SetSystem(2, sets=((1,), (), (1,)), element_to_sets=bad), 0.5)]\n"
            "for system, theta in runs:\n"
            "    try:\n"
            "        print(greedy_cover(system, theta=theta))\n"
            "    except ValueError as err:\n"
            "        print(err)\n"
        )
        child = _run_child(code)
        assert child.returncode == 0, child.stderr
        assert child.stdout == "element_to_sets is not the inverse of sets\n" * 3

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
