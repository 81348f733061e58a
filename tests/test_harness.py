import copy
import json
import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covert_setcover.generators import gen_set_system
from covert_setcover.harness import (
    ExperimentConfig,
    aggregate_cover_trials,
    bench_planted_family,
    binomial_tail,
    fitted_query_exponent,
    resolve_graph,
    resolve_system,
    run_experiment,
    sampling_concentration_test,
)
from covert_setcover.setsystem import to_json_dict

from oracles import binomial_tail_exact


def planted_source(**overrides):
    source = {"kind": "generate", "model": "planted-cover", "n": 32, "m": 10, "k": 3, "seed": 5}
    source.update(overrides)
    return source


@st.composite
def tail_cases(draw):
    """(size, p, threshold): size <= 300, p in (0, 1] with 1.0 itself, threshold in [0, 2 size]."""
    size = draw(st.integers(0, 300))
    p = draw(st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0))
    return size, p, draw(st.floats(0.0, 2.0 * size))


def strip_nondeterminism(report):
    doc = copy.deepcopy(report)
    doc.pop("timestamp", None)
    for trial in doc.get("trials", []):
        trial.pop("runtime_s", None)
    return doc


class TestRunExperiment:
    def test_pseudo_greedy_report_shape(self):
        config = ExperimentConfig(
            algorithm="pseudo-greedy", seeds=[0, 1, 2], source=planted_source(),
            compute_opt=True,
        )
        report = run_experiment(config)
        assert len(report["trials"]) == 3
        for trial in report["trials"]:
            assert trial["valid"]
            assert trial["queries"]["total"] == (
                trial["queries"]["hitting"] + trial["queries"]["set"] + trial["queries"]["layered"]
            )
            assert trial["size_ratio"] >= 1.0
            assert trial["query_bound_constant"] > 0
        assert report["aggregates"]["valid_fraction"] == 1.0
        assert report["aggregates"]["max_query_bound_constant"] > 0

    def test_aggregates_recomputable(self):
        config = ExperimentConfig(
            algorithm="epsnet", seeds=[0, 1, 2, 3], source=planted_source(),
        )
        report = run_experiment(config)
        assert report["aggregates"] == aggregate_cover_trials(report["trials"])
        assert report["aggregates"]["median_iterations_at_success"] >= 1

    def test_greedy_and_bruteforce_modes(self):
        for algo in ("greedy", "bruteforce"):
            report = run_experiment(
                ExperimentConfig(algorithm=algo, seeds=[0], source=planted_source())
            )
            assert report["trials"][0]["valid"]

    def test_deterministic_modulo_time_fields(self):
        config = ExperimentConfig(
            algorithm="pseudo-greedy", seeds=[4, 5], source=planted_source(),
        )
        a = strip_nondeterminism(run_experiment(config))
        b = strip_nondeterminism(run_experiment(config))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_discover_experiment(self):
        config = ExperimentConfig(
            algorithm="discover",
            seeds=[0, 1],
            source={"kind": "generate", "model": "er-connected", "n": 8, "p": 0.3, "seed": 2},
            compute_opt=True,
        )
        report = run_experiment(config)
        for trial in report["trials"]:
            assert trial["valid"]
            assert trial["competitive_ratio"] >= 1.0

    def test_seeds_required(self):
        with pytest.raises(ValueError, match="seeds"):
            run_experiment(ExperimentConfig(algorithm="greedy", seeds=[], source=planted_source()))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("algorithm", ["greedy"]),
            ("seeds", "12"),
            ("seeds", (0, 1)),
            ("seeds", [1.5]),
            ("seeds", [True]),
            ("source", None),
            ("compute_opt", "yes"),
            ("alpha", "8"),
            ("alpha", True),
            ("theta", "x"),
            ("alpha_net", None),
        ],
        ids=["algorithm-list", "seeds-str", "seeds-tuple", "seeds-float", "seeds-bool",
             "source-none", "compute-opt-str", "alpha-str", "alpha-bool", "theta-str",
             "alpha-net-none"],
    )
    def test_config_field_of_wrong_type(self, field, value):
        config = ExperimentConfig(algorithm="pseudo-greedy", seeds=[0], source=planted_source())
        setattr(config, field, value)
        with pytest.raises(ValueError, match=field if field != "algorithm" else "unknown algorithm"):
            run_experiment(config)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_experiment(ExperimentConfig(algorithm="magic", seeds=[1]))

    def test_resolve_system_from_file(self, tmp_path):
        system, _ = gen_set_system("planted-cover", n=16, m=6, seed=1, k=2)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(to_json_dict(system)))
        assert resolve_system({"kind": "file", "path": str(path)}) == system

    @pytest.mark.parametrize(
        "resolve, source, key",
        [
            (resolve_system, {"kind": "generate", "model": "planted-cover", "n": 32, "k": 3}, "'m'"),
            (resolve_system, planted_source(kk=3), "'kk'"),
            (resolve_system, {"kind": "file"}, '"path"'),
            (resolve_graph, {"kind": "generate", "model": "er-connected", "n": 8, "q": 0.3}, "'q'"),
        ],
        ids=["generator-missing-m", "generator-misspelled-key", "file-without-path",
             "graph-generator-unknown-key"],
    )
    def test_bad_source_raises_value_error_naming_key(self, resolve, source, key):
        with pytest.raises(ValueError, match=key):
            resolve(source)

    def test_bad_source_through_run_experiment(self):
        config = ExperimentConfig(algorithm="greedy", seeds=[0], source=planted_source(kk=3))
        with pytest.raises(ValueError, match="'kk'"):
            run_experiment(config)

    @pytest.mark.parametrize("n", ["32", 32.0], ids=["string-n", "float-n"])
    def test_generator_source_with_non_integer_value(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            resolve_system(planted_source(n=n))


class TestConcentration:
    def test_reference_rates(self):
        stats = sampling_concentration_test(alpha=8.0, log2_n_total=20.0, s_i=1024)
        assert stats["p"] == pytest.approx(0.625)
        assert stats["threshold"] == 160.0
        assert stats["crossing_rates"]["half"] >= 0.99
        assert stats["crossing_rates"]["full"] >= 0.99
        assert stats["crossing_rates"]["eighth"] <= 0.01

    def test_s_must_be_divisible_by_eight(self):
        with pytest.raises(ValueError):
            sampling_concentration_test(8.0, 20.0, 1001)

    @pytest.mark.parametrize(
        "alpha, log2_n, s_i, message",
        [
            (math.inf, 20.0, 1024, "alpha must be finite and positive"),
            ("8", 20.0, 1024, "alpha must be finite and positive"),
            (True, 20.0, 1024, "alpha must be finite and positive"),
            (8.0, math.nan, 1024, "log2_n_total must be finite and positive"),
            (8.0, -3.0, 1024, "log2_n_total must be finite and positive"),
            (8.0, 20.0, 0, "s_i must be a positive multiple of 8"),
            (8.0, 20.0, 1024.0, "s_i must be a positive multiple of 8"),
            # Each is finite, the threshold is not: it used to reach the report as inf.
            (1e300, 1e10, 1024, r"alpha \* log2_n_total must be finite"),
        ],
        ids=["alpha-inf", "alpha-str", "alpha-bool", "log2-n-nan", "log2-n-negative", "s-zero",
             "s-float", "product-overflow"],
    )
    def test_constants_must_be_in_range(self, alpha, log2_n, s_i, message):
        with pytest.raises(ValueError, match=message):
            sampling_concentration_test(alpha, log2_n, s_i)

    @settings(max_examples=200)
    @given(case=tail_cases())
    # Variance so small that mean +- 40 sd holds only two counts.
    @example(case=(300, 6.2e-4 / 300, 3.0))
    @example(case=(300, 1 - 6.2e-4 / 300, 299.0))
    def test_tail_matches_exact_sum(self, case):
        size, p, threshold = case
        expected = binomial_tail_exact(size, p, threshold)
        assert binomial_tail(size, p, threshold) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_extreme_constants_answer_at_once(self):
        t0 = time.perf_counter()
        stats = sampling_concentration_test(1e9, 20.0, 2**40)
        assert time.perf_counter() - t0 < 1.0
        assert all(0.0 <= rate <= 1.0 for rate in stats["crossing_rates"].values())


class TestBench:
    def test_fitted_exponent_recovers_power_law(self):
        ks = [1, 2, 4, 8]
        assert fitted_query_exponent(ks, [10 * k**2 for k in ks]) == pytest.approx(2.0)
        assert fitted_query_exponent(ks, [10 * k for k in ks]) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "k_values, seeds, message",
        [
            ([1], [0], "at least two distinct k values"),
            ([2, 2], [0], "at least two distinct k values"),
            ([1, 2], [], "seeds must be nonempty"),
        ],
        ids=["one-k", "repeated-k", "no-seeds"],
    )
    def test_rejects_what_cannot_fit_an_exponent(self, k_values, seeds, message):
        with pytest.raises(ValueError, match=message):
            bench_planted_family(k_values, seeds=seeds, n=64, m=16)

    def test_small_family_smoke(self):
        report = bench_planted_family([1, 2], seeds=[0, 1], n=64, m=16)
        assert [entry["k"] for entry in report["per_k"]] == [1, 2]
        for entry in report["per_k"]:
            assert entry["all_valid"]
            assert entry["opt_median_size"] <= entry["k"]
        assert "pseudo_greedy_exponent" in report
        assert "epsnet_exponent" in report
