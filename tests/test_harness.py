import copy
import json
import math
import os
import subprocess
import sys
import textwrap
import time
from enum import IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covert_setcover import harness
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


class Seed(IntEnum):
    """An int subclass: a seed list holding one is refused like a list of floats."""

    ONE = 1


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
            ledger = trial["ledger"]
            assert ledger["total"] == (
                ledger["hitting_queries"] + ledger["set_queries"] + ledger["layered_queries"]
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
            ("seeds", [0, Seed.ONE]),
            ("source", None),
            ("compute_opt", "yes"),
            ("alpha", "8"),
            ("alpha", True),
            ("theta", "x"),
            ("alpha_net", None),
        ],
        ids=["algorithm-list", "seeds-str", "seeds-tuple", "seeds-float", "seeds-bool",
             "seeds-int-subclass", "source-none", "compute-opt-str", "alpha-str", "alpha-bool",
             "theta-str", "alpha-net-none"],
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

    @pytest.mark.parametrize("resolve", [resolve_system, resolve_graph])
    def test_unsupported_source_kind(self, resolve):
        with pytest.raises(ValueError, match="unsupported instance source"):
            resolve({"kind": "url"})

    def test_file_source_path_must_be_a_str(self):
        # open() takes an int or a bool as a file descriptor: 0 would read stdin, and 1
        # (or True) would read stdout and then close it, so every later print fails.
        # Run in a child with stdin from /dev/null, so neither can touch this process;
        # the child's last print checks that its stdout still works.
        script = textwrap.dedent("""
            import json
            from covert_setcover.harness import ExperimentConfig, run_experiment
            messages = []
            for path in (True, 1, 0, 2.5, None, ["a"]):
                try:
                    run_experiment(ExperimentConfig("greedy", [0], {"kind": "file", "path": path}))
                except ValueError as exc:
                    messages.append(str(exc))
            print(json.dumps(messages))
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        child = subprocess.run(
            [sys.executable, "-c", script], stdin=subprocess.DEVNULL, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
        )
        assert child.returncode == 0, child.stderr
        messages = json.loads(child.stdout)
        assert len(messages) == 6
        assert all('str "path"' in message for message in messages)

    def test_discover_above_the_exact_cap_has_no_optimum(self):
        # Exact verification stops at 12 vertices, so compute_opt leaves no ratio to report.
        config = ExperimentConfig(
            algorithm="discover", seeds=[0],
            source={"kind": "generate", "model": "er-connected", "n": 13, "p": 0.3, "seed": 1},
            compute_opt=True,
        )
        report = run_experiment(config)
        trial = report["trials"][0]
        assert trial["valid"]
        assert "opt_size" not in trial and "competitive_ratio" not in trial
        assert "median_competitive_ratio" not in report["aggregates"]

    def test_bad_source_through_run_experiment(self):
        config = ExperimentConfig(algorithm="greedy", seeds=[0], source=planted_source(kk=3))
        with pytest.raises(ValueError, match="'kk'"):
            run_experiment(config)

    @pytest.mark.parametrize("n", ["32", 32.0], ids=["string-n", "float-n"])
    def test_generator_source_with_non_integer_value(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            resolve_system(planted_source(n=n))


def er_source(n, p, seed):
    return {"kind": "generate", "model": "er-connected", "n": n, "p": p, "seed": seed}


def audit_bill(record, n):
    """Rebuild a trial record's query bill from its own rounds, as a report reader can.

    ``n`` is the instance's element or vertex count.
    """
    ledger, rounds = record["ledger"], record["rounds"]
    for kind in ("hitting", "set", "layered"):
        assert sum(r["ledger_delta"][kind] for r in rounds) == ledger[f"{kind}_queries"]
        assert sum(p[kind] for p in ledger["phases"].values()) == ledger[f"{kind}_queries"]
    if record["algorithm"] == "pseudo-greedy":
        # One hitting query per sampled or residual element, one set query per acceptance.
        sampled = [r for r in rounds if not r["base_case"]]
        base_n_i = sum(r["n_i"] for r in rounds if r["base_case"])
        assert ledger["hitting_queries"] == sum(r["sample_size"] for r in sampled) + base_n_i
        assert ledger["set_queries"] == sum(len(r["chosen"]) for r in sampled)
    elif record["algorithm"] == "discover":
        # One layered query per vertex asked, the first time it is asked.
        queried = record["queried"]
        assert ledger["layered_queries"] == len(queried) == len(set(queried))
        assert all(1 <= v <= n for v in queried)
        # A sampled round asks each vertex it accepts. A base-case pick comes from the
        # probes' answers and need not be asked, but a base case at round 0 probes every
        # pair, so it asks every vertex.
        for r in rounds:
            if not r["base_case"]:
                assert set(r["chosen"]) <= set(queried)
        if rounds[0]["base_case"]:
            assert sorted(queried) == list(range(1, n + 1))


@pytest.mark.parametrize(
    # base_case: whether every run enters it, or None for no claim. discover-er12-mixed has
    # 3 of 60 runs that pick base-case vertices after sampled rounds without asking them.
    "algorithm, source, alpha, base_case",
    [
        ("pseudo-greedy", planted_source(n=128, m=32, k=4, seed=1), 2.0, True),
        ("pseudo-greedy", planted_source(n=512, m=64, k=4, seed=1), 2.0, False),
        ("pseudo-greedy", planted_source(), 8.0, True),
        ("discover", er_source(8, 0.3, 2), 8.0, True),
        ("discover", er_source(10, 0.3, 1), 8.0, True),
        ("discover", er_source(16, 0.25, 1), 2.0, False),
        ("discover", er_source(12, 0.3, 24), 0.25, None),
        ("epsnet", planted_source(), 8.0, None),
    ],
    ids=["pg-rounds-then-base", "pg-rounds-only", "pg-base-only", "discover-er8-base",
         "discover-er10-base", "discover-er16-rounds", "discover-er12-mixed", "epsnet"],
)
def test_report_audits_its_own_bill(algorithm, source, alpha, base_case):
    config = ExperimentConfig(algorithm=algorithm, seeds=list(range(60)), source=source,
                              alpha=alpha)
    for record in run_experiment(config)["trials"]:
        audit_bill(record, source["n"])
        if base_case is not None:
            assert any(r["base_case"] for r in record["rounds"]) == base_case


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
        "k_values, medians", [([2, 2], [3, 5]), ([2], [3]), ([1, 2], [3, 5, 7])],
        ids=["constant-k", "one-point", "lengths-differ"],
    )
    def test_fitted_exponent_needs_two_distinct_k_and_a_median_each(self, k_values, medians):
        with pytest.raises(ValueError, match="two distinct k values"):
            fitted_query_exponent(k_values, medians)

    @pytest.mark.parametrize(
        "k_values, seeds, message",
        [
            ([1], [0], "at least two distinct k values"),
            ([2, 2], [0], "at least two distinct k values"),
            ([1, 2], [], "seeds must be nonempty"),
            (None, [0], "k_values must be a list"),
            (3, [0], "k_values must be a list"),
            ([1, 2], 3, "seeds must be a list"),
            ([[1], [2]], [0], "k must be an integer >= 1, got \\[1\\]"),
            ([1, 1, 2], [0], "none repeated"),
        ],
        ids=["one-k", "repeated-k", "no-seeds", "k-none", "k-int", "seeds-int", "k-lists",
             "k-repeated-among-distinct"],
    )
    def test_rejects_what_cannot_fit_an_exponent(self, k_values, seeds, message):
        with pytest.raises(ValueError, match=message):
            bench_planted_family(k_values, seeds=seeds, n=64, m=16)

    def test_small_family_smoke(self):
        report = bench_planted_family([1, 2], seeds=[0, 1], n=64, m=16)
        assert [entry["k"] for entry in report["per_k"]] == [1, 2]
        for entry in report["per_k"]:
            for name in ("pseudo-greedy", "epsnet", "greedy"):
                assert entry[name]["valid_fraction"] == 1.0
            assert entry["opt_median_size"] <= entry["k"]
        assert "pseudo_greedy_exponent" in report
        assert "epsnet_exponent" in report

    def test_entries_are_the_experiment_aggregates(self):
        # Bench runs each algorithm through the trial loop of run_experiment, so a
        # one-seed bench entry is that experiment's aggregates, field for field.
        report = bench_planted_family([1, 2], seeds=[3], n=64, m=16)
        for entry in report["per_k"]:
            source = {"kind": "generate", "model": "planted-cover", "n": 64, "m": 16,
                      "k": entry["k"], "seed": 3}
            for name in ("pseudo-greedy", "epsnet", "greedy"):
                config = ExperimentConfig(name, [3], source, compute_opt=True)
                assert entry[name] == run_experiment(config)["aggregates"]

    def test_each_instance_and_optimum_made_once(self, monkeypatch):
        calls = {"gen_set_system": 0, "_cover_optimum": 0}
        for name in calls:
            def counted(*args, _wrapped=getattr(harness, name), _name=name, **kwargs):
                calls[_name] += 1
                return _wrapped(*args, **kwargs)
            monkeypatch.setattr(harness, name, counted)
        bench_planted_family([1, 2], seeds=[0, 1], n=64, m=16)
        assert calls == {"gen_set_system": 4, "_cover_optimum": 4}
