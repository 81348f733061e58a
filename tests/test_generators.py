import json
import math
import random
import time
import tracemalloc

import pytest

from covert_setcover import generators
from covert_setcover.generators import SET_MODELS, _sorted_sample, gen_graph, gen_set_system
from covert_setcover.setsystem import from_json_dict, to_json_dict, verify_cover


class TestGraphModels:
    def test_path(self):
        assert gen_graph("path", n=4).edges() == [(1, 2), (2, 3), (3, 4)]

    def test_cycle(self):
        assert len(gen_graph("cycle", n=5).edges()) == 5

    def test_complete(self):
        assert len(gen_graph("complete", n=4).edges()) == 6

    def test_star(self):
        star = gen_graph("star", n=5)
        assert all(1 in edge for edge in star.edges())
        assert len(star.edges()) == 4

    def test_grid(self):
        grid = gen_graph("grid", rows=2, cols=3)
        assert grid.n == 6
        assert len(grid.edges()) == 7

    def test_er_connected_and_reproducible(self):
        a = gen_graph("er-connected", n=12, p=0.25, seed=7)
        b = gen_graph("er-connected", n=12, p=0.25, seed=7)
        assert a.is_connected()
        assert a == b

    def test_er_different_seeds_differ(self):
        a = gen_graph("er-connected", n=12, p=0.3, seed=1)
        b = gen_graph("er-connected", n=12, p=0.3, seed=2)
        assert a != b

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown graph model"):
            gen_graph("torus", n=4)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            gen_graph("path", n=1)
        with pytest.raises(ValueError):
            gen_graph("er-connected", n=5, p=1.5)

    def test_er_retry_budget_exhausted(self):
        with pytest.raises(ValueError, match="no connected sample"):
            gen_graph("er-connected", n=3, p=0.0, seed=1)

    # (1000, 1.6 / 999) and (1000, 2 / 999) pass the edge-count bound but expect 202 and
    # 135 isolated vertices a draw; seed 1 at 1.6 / 999 used to draw the whole budget, then fail.
    @pytest.mark.parametrize("n, p", [(1448, 1e-9), (1448, 5e-324), (1000, 1.5 / 999), (2, 1e-13),
                                      (1000, 1.6 / 999), (1000, 2 / 999)])
    def test_er_hopeless_p_fails_before_any_draw(self, n, p):
        # At n = 1448 each draw visits 1,047,628 pairs; the budget's 1000 would take minutes.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="no connected sample expected, since 1000 tries find one with"):
            gen_graph("er-connected", n=n, p=p, seed=1)
        assert time.perf_counter() - start < 1.0

    # 2.4, 3.5 and 0.12 isolated vertices expected: the CI discovery graph, a p that
    # needs 68 draws at seed 1, and discover-er's graph all reach the draws.
    @pytest.mark.parametrize("n, p", [(1000, 6 / 999), (1448, 6 / 1447), (60, 0.1)])
    def test_er_refusal_keeps_a_p_that_needs_many_draws(self, n, p, monkeypatch):
        class Drawing(Exception):
            pass

        def no_pairs(n):
            raise Drawing

        monkeypatch.setattr(generators, "all_pairs", no_pairs)
        with pytest.raises(Drawing):
            gen_graph("er-connected", n=n, p=p, seed=1)

    def test_er_refusal_keeps_a_p_the_budget_may_connect(self):
        # One pair at p = 1e-12: 1000 draws connect it with probability about 1e-9,
        # above the floor, so the draws are made and the budget runs out.
        with pytest.raises(ValueError, match=r"no connected sample in 1000 tries \(n=2"):
            gen_graph("er-connected", n=2, p=1e-12, seed=1)


class TestSetModels:
    def test_planted_cover_plants_a_real_cover(self):
        for seed in range(10):
            system, meta = gen_set_system("planted-cover", n=32, m=10, seed=seed, k=4)
            assert meta["coverable"]
            assert len(meta["planted_indices"]) == 4
            assert verify_cover(system, meta["planted_indices"])

    def test_planted_cover_infeasible_params(self):
        with pytest.raises(ValueError):
            gen_set_system("planted-cover", n=4, m=8, seed=0, k=5)

    def test_uniform_random_flags_uncoverable(self):
        system, meta = gen_set_system("uniform-random", n=40, m=2, seed=3, density=0.05)
        union = set().union(*system.sets)
        assert meta["coverable"] == (len(union) == 40)

    def test_skewed_sizes_span_scales(self):
        system, meta = gen_set_system("skewed", n=64, m=20, seed=5)
        sizes = {len(s) for s in system.sets}
        assert len(sizes) > 2
        assert meta["coverable"] in (True, False)

    def test_identical_seeds_identical_systems(self):
        a, meta_a = gen_set_system("uniform-random", n=20, m=8, seed=11)
        b, meta_b = gen_set_system("uniform-random", n=20, m=8, seed=11)
        assert a == b
        assert meta_a == meta_b

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown set model"):
            gen_set_system("zipf", n=10, m=4)

    @pytest.mark.parametrize("model", SET_MODELS)
    def test_one_int_object_per_element(self, model):
        # Values above 256 are not cached by CPython, so a fresh int per entry
        # would show up as more distinct objects than elements.
        system, _ = gen_set_system(model, n=600, m=600, seed=3, k=5, density=0.05)
        loaded = from_json_dict(json.loads(json.dumps(to_json_dict(system))))
        assert loaded == system
        for built in (system, loaded):
            assert len({id(e) for row in built.sets for e in row}) <= built.universe_size


class TestPeakMemory:
    def test_generation_peaks_near_its_settled_size(self):
        # A second live copy of the rows or of the inverse index while the instance is
        # built would read about twice its settled size.
        tracemalloc.start()
        try:
            system, _ = gen_set_system("planted-cover", n=2048, m=2048, seed=1, k=8)
            settled, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.n_sets == 2048 and peak <= 1.3 * settled, (peak, settled)


class TestSortedSample:
    # random.sample switches from its pool branch to its set branch where n first
    # exceeds 21 (k <= 5) or 21 + 4 ** ceil(log(3k, 4)) (k > 5): 85 for k = 6, 277 for
    # k in 22..85. k = n - 1 and k = n always take the pool branch; at n = 8192,
    # k = n // 6 takes the set branch with many repeated positions, as the decoys do.
    @pytest.mark.parametrize("n", [1, 21, 22, 85, 86, 276, 277, 278, 600, 4096, 8192])
    def test_same_values_and_stream_as_random_sample(self, n):
        increasing = tuple(range(1, n + 1))
        decreasing = increasing[::-1]  # sorting positions instead of values would show here
        for k in sorted({k for k in (0, 1, 5, 6, 22, 85, n // 6, n - 1, n) if 0 <= k <= n}):
            for seed in range(3):
                for population in (increasing, decreasing):
                    ours, theirs = random.Random(seed), random.Random(seed)
                    assert _sorted_sample(population, k, ours) == sorted(
                        theirs.sample(population, k)), (n, k, seed)
                    assert ours.getstate() == theirs.getstate(), (n, k, seed)

    @pytest.mark.parametrize("k", [-1, 601])
    def test_out_of_range_k_raises_as_random_sample(self, k):
        population = tuple(range(1, 601))
        with pytest.raises(ValueError) as theirs:
            random.Random(0).sample(population, k)
        with pytest.raises(ValueError, match=str(theirs.value)):
            _sorted_sample(population, k, random.Random(0))


class TestParameterChecks:
    """Every parameter is type- and range-checked up front, for every model."""

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"n": 8.0, "m": 4}, "n must be an integer"),
            ({"n": 8, "m": "4"}, "m must be an integer"),
            ({"n": 8, "m": 4, "k": 2.0}, "k must be an integer"),
            ({"n": 8, "m": 4, "seed": True}, "seed must be an integer"),
            ({"n": 8, "m": 4, "density": math.nan}, "density must be a number in"),
            ({"n": 8, "m": 4, "density": math.inf}, "density must be a number in"),
            ({"n": 8, "m": 4, "density": "0.3"}, "density must be a number in"),
        ],
        ids=["float-n", "string-m", "float-k", "bool-seed", "nan-density", "inf-density",
             "string-density"],
    )
    def test_set_system(self, params, message):
        with pytest.raises(ValueError, match=message):
            gen_set_system("uniform-random", **params)

    def test_entry_cap_admits_planted_16384(self):
        # n * m = 2**28 passes the entry cap, so the k check is the first to fail;
        # one more set does not.
        with pytest.raises(ValueError, match="planted-cover needs 1 <= k"):
            gen_set_system("planted-cover", n=16384, m=16384, k=0)
        with pytest.raises(ValueError, match="n[*]m is 268451840; at most 268435456"):
            gen_set_system("planted-cover", n=16384, m=16385, k=8)

    @pytest.mark.parametrize(
        "model, params, message",
        [
            ("path", {"n": 4.0}, "n must be an integer"),
            ("grid", {"rows": 2, "cols": "3"}, "cols must be an integer"),
            ("er-connected", {"n": 6, "p": math.nan}, "p must be a number in"),
            ("er-connected", {"n": 6, "p": 1.5}, "p must be a number in"),
            # No graph on two or more vertices is connected at p = 0: fail before any draw.
            ("er-connected", {"n": 6, "p": 0}, "at p = 0 there is no connected sample"),
            ("er-connected", {"n": 1, "p": 0.25}, "^er-connected needs n >= 2$"),
        ],
        ids=["float-n", "string-cols", "nan-p", "p-above-one", "er-p-zero", "er-one-vertex"],
    )
    def test_graph(self, model, params, message):
        with pytest.raises(ValueError, match=message):
            gen_graph(model, **params)
