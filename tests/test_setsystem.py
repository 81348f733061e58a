import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covert_setcover.errors import (
    BruteForceCapExceededError,
    InvalidCoverError,
    UncoverableInstanceError,
)
from covert_setcover.setsystem import (
    Cover,
    apportioned_weights,
    brute_force_min_cover,
    build_set_system,
    from_json_dict,
    greedy_cover,
    harmonic,
    to_json_dict,
    verify_cover,
)

from oracles import coverage_order, exhaustive_min_cover, naive_greedy
from strategies import coverable_families, families, random_system


class TestBuild:
    def test_inverse_index(self):
        system = build_set_system([[1, 2], [2, 3]], 3)
        assert system.sets_containing(2) == {1, 2}
        assert system.sets_containing(1) == {1}
        assert system.sets_containing(3) == {2}

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

    def test_inverse_is_exact(self):
        rng = random.Random(7)
        for _ in range(20):
            system, _ = random_system(rng)
            for e in range(1, system.universe_size + 1):
                for s in range(1, system.n_sets + 1):
                    assert (s in system.sets_containing(e)) == (e in system.members(s))

    def test_json_round_trip(self):
        system, _ = random_system(random.Random(3))
        assert from_json_dict(to_json_dict(system)) == system


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

    @settings(max_examples=150)
    @given(family=families(), theta=st.sampled_from([1.0, 0.5, 0.25]))
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
