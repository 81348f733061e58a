import argparse
import csv
import hashlib
import io
import json
import math
import shlex
from pathlib import Path

import pytest

from covert_setcover.cli import _emit, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerators:
    def test_gen_graph_to_file(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code, _, err = run_cli(capsys, "gen-graph", "--model", "path", "--n", "4",
                               "--out", str(out))
        assert code == 0 and err == ""
        doc = json.loads(out.read_text())
        assert doc == {"n": 4, "edges": [[1, 2], [2, 3], [3, 4]]}

    def test_gen_sets_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen-sets", "--model", "planted-cover",
                               "--n", "16", "--m", "6", "--k", "2", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["universe_size"] == 16
        assert len(doc["sets"]) == 6
        assert doc["meta"]["coverable"]

    def test_gen_graph_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "gen-graph", "--model", "path", "--n", "1")
        assert code == 1
        assert json.loads(err)["kind"] == "ValueError"


class TestSetcover:
    @pytest.fixture
    def instance(self, tmp_path, capsys):
        path = tmp_path / "sets.json"
        run_cli(capsys, "gen-sets", "--model", "planted-cover", "--n", "24",
                "--m", "8", "--k", "3", "--seed", "4", "--out", str(path))
        return path

    @pytest.mark.parametrize("algo", ["pseudo-greedy", "epsnet", "greedy", "bruteforce"])
    def test_each_algorithm_runs(self, algo, instance, capsys):
        code, out, _ = run_cli(capsys, "setcover", "--algo", algo,
                               "--instance", str(instance), "--seed", "2")
        assert code == 0
        report = json.loads(out)
        assert report["trials"][0]["valid"]

    def test_trials_and_csv(self, instance, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code, _, _ = run_cli(capsys, "setcover", "--algo", "pseudo-greedy",
                             "--instance", str(instance), "--seed", "0",
                             "--trials", "3", "--format", "csv", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 trials
        assert "cover_size" in lines[0]
        assert "ledger.total" in lines[0]

    def test_missing_instance_file(self, capsys):
        code, _, err = run_cli(capsys, "setcover", "--algo", "greedy",
                               "--instance", "/nonexistent.json")
        assert code == 1
        assert "error" in json.loads(err)

    def test_bruteforce_cap_error(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        run_cli(capsys, "gen-sets", "--model", "uniform-random", "--n", "8",
                "--m", "21", "--density", "0.5", "--out", str(path))
        code, _, err = run_cli(capsys, "setcover", "--algo", "bruteforce",
                               "--instance", str(path))
        assert code == 1
        assert json.loads(err)["kind"] == "BruteForceCapExceededError"


class TestGraphCommands:
    @pytest.fixture
    def graph_file(self, tmp_path, capsys):
        path = tmp_path / "g6.json"
        doc = {"n": 6, "edges": [[1, 2], [1, 3], [3, 4], [3, 5], [4, 6], [5, 6]]}
        path.write_text(json.dumps(doc))
        return path

    def test_verify_exact(self, graph_file, capsys):
        code, out, _ = run_cli(capsys, "verify", "--graph", str(graph_file),
                               "--mode", "exact")
        assert code == 0
        assert json.loads(out)["size"] == 2

    def test_verify_greedy(self, graph_file, capsys):
        code, out, _ = run_cli(capsys, "verify", "--graph", str(graph_file),
                               "--mode", "greedy")
        assert code == 0
        assert json.loads(out)["size"] >= 2

    def test_discover(self, graph_file, capsys):
        code, out, _ = run_cli(capsys, "discover", "--graph", str(graph_file),
                               "--seed", "3")
        assert code == 0
        trial = json.loads(out)["trials"][0]
        assert trial["edges"] == [[1, 2], [1, 3], [3, 4], [3, 5], [4, 6], [5, 6]]
        assert trial["competitive_ratio"] >= 1.0

    def test_discover_csv_single_trial(self, graph_file, capsys):
        # At the default --trials 1 a CSV report still gets one row per trial.
        code, out, err = run_cli(capsys, "discover", "--graph", str(graph_file),
                                 "--seed", "3", "--format", "csv")
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["seed"] == "3"
        assert json.loads(rows[0]["edges"]) == [[1, 2], [1, 3], [3, 4], [3, 5], [4, 6], [5, 6]]

    @pytest.mark.parametrize("argv", [["discover"], ["verify"]], ids=["discover", "verify"])
    def test_one_vertex_graph(self, argv, tmp_path, capsys):
        path = tmp_path / "g1.json"
        path.write_text(json.dumps({"n": 1, "edges": []}))
        code, out, err = run_cli(capsys, *argv, "--graph", str(path))
        assert code == 0 and err == ""
        doc = json.loads(out)
        if argv == ["verify"]:
            assert doc == {"mode": "exact", "query_set": [], "size": 0}
        else:
            assert doc["trials"][0]["edges"] == [] and doc["trials"][0]["valid"]

    def test_disconnected_graph_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 4, "edges": [[1, 2], [3, 4]]}))
        code, _, err = run_cli(capsys, "discover", "--graph", str(path))
        assert code == 1
        assert "not connected" in json.loads(err)["error"]

    def test_oversized_verification_rejected(self, tmp_path, capsys):
        path = tmp_path / "path820.json"
        path.write_text(json.dumps({"n": 820, "edges": [[v, v + 1] for v in range(1, 820)]}))
        code, out, err = run_cli(capsys, "verify", "--graph", str(path), "--mode", "greedy")
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["kind"] == "ValueError"
        assert "verification entries of 820 vertices is 275180110" in error["error"]


class TestSizeCap:
    """A size of 10**9 in a file or a flag is one JSON error and exit 1, before any allocation."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen-sets", "--model", "planted-cover", "--n", "1000000000", "--m", "4", "--k", "2"],
             "n is 1000000000; at most 1048576 are allowed"),
            (["gen-sets", "--model", "uniform-random", "--n", "4", "--m", "1000000000"],
             "m is 1000000000; at most 1048576 are allowed"),
            (["gen-sets", "--model", "uniform-random", "--n", "1048576", "--m", "1048576"],
             "n*m is 1099511627776; at most 268435456 are allowed"),
            (["gen-graph", "--model", "er-connected", "--n", "1000000000"],
             "n is 1000000000; at most 1048576 are allowed"),
            (["gen-graph", "--model", "complete", "--n", "2000"],
             "the number of vertex pairs of 2000 vertices is 1999000"),
            (["bench", "--trials", "1000000000"], "trials is 1000000000; at most 1048576"),
        ],
        ids=["gen-sets-n", "gen-sets-m", "gen-sets-entries", "gen-graph-n", "gen-graph-pairs",
             "bench-trials"],
    )
    def test_generator_size(self, argv, message, bounded_memory, capsys):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["kind"] == "ValueError" and message in error["error"]

    @pytest.mark.parametrize(
        "command, flag, text, message",
        [
            ("setcover", "--instance", '{"universe_size": 1000000000, "sets": [[1]]}',
             "universe_size is 1000000000; at most 1048576 are allowed"),
            ("discover", "--graph", '{"n": 1000000000, "edges": [[1, 2]]}',
             "the vertex count is 1000000000; at most 1048576 are allowed"),
        ],
        ids=["instance", "graph"],
    )
    def test_file_size(self, command, flag, text, message, bounded_memory, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(text)
        extra = ["--algo", "greedy"] if command == "setcover" else []
        code, out, err = run_cli(capsys, command, flag, str(path), *extra)
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["kind"] == "ValueError" and message in error["error"]

    # A count below 1 is named as the trial count, not as the empty seed list it would make.
    @pytest.mark.parametrize("command, flag, trials, message", [
        pytest.param("setcover", "--instance", "1000000000",
                     "trials is 1000000000; at most 1048576 are allowed", id="setcover---instance"),
        pytest.param("discover", "--graph", "1000000000",
                     "trials is 1000000000; at most 1048576 are allowed", id="discover---graph"),
        pytest.param("setcover", "--instance", "0", "trials must be an integer >= 1, got 0",
                     id="setcover-trials-0"),
        pytest.param("discover", "--graph", "0", "trials must be an integer >= 1, got 0",
                     id="discover-trials-0"),
        pytest.param("setcover", "--instance", "-3", "trials must be an integer >= 1, got -3",
                     id="setcover-trials-negative"),
        pytest.param("discover", "--graph", "-3", "trials must be an integer >= 1, got -3",
                     id="discover-trials-negative"),
    ])
    def test_trial_count(self, command, flag, trials, message, bounded_memory, tmp_path, capsys):
        path = tmp_path / "small.json"
        path.write_text('{"universe_size": 2, "sets": [[1, 2]], "n": 2, "edges": [[1, 2]]}')
        extra = ["--algo", "greedy"] if command == "setcover" else []
        code, out, err = run_cli(capsys, command, flag, str(path), *extra, "--trials", trials)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": message, "kind": "ValueError"}


class TestMalformedInput:
    """Bad files and constants end in one JSON error line and exit 1, not a traceback."""

    @pytest.mark.parametrize(
        "command, flag, doc, message",
        [
            ("discover", "--graph", {"n": 3, "edges": [[1, 2.0], [2, 3]]}, "not an integer"),
            ("discover", "--graph", [[1, 2], [2, 3]], "must be a JSON object"),
            ("setcover", "--instance", [[1, 2]], "must be a JSON object"),
            ("setcover", "--instance", {"universe_size": 2, "sets": [[True, 2]]},
             '"sets" must be a list of lists of integers'),
            ("setcover", "--instance", {"universe_size": 2}, 'no "sets" field'),
            ("setcover", "--instance", {"sets": [[1, 2]]}, 'no "universe_size" field'),
            ("discover", "--graph", {"edges": [[1, 2]]}, 'no "n" field'),
            ("discover", "--graph", {"n": 2}, 'no "edges" field'),
        ],
        ids=["float-endpoint", "list-graph", "list-instance", "bool-element",
             "no-sets", "no-universe-size", "no-n", "no-edges"],
    )
    def test_malformed_file(self, command, flag, doc, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        extra = ["--algo", "greedy"] if command == "setcover" else []
        code, out, err = run_cli(capsys, command, flag, str(path), *extra)
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["kind"] == "ValueError" and message in error["error"]

    @pytest.mark.parametrize("command, flag", [("setcover", "--instance"), ("discover", "--graph"),
                                               ("verify", "--graph")])
    def test_deeply_nested_file(self, command, flag, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        extra = ["--algo", "greedy"] if command == "setcover" else []
        code, out, err = run_cli(capsys, command, flag, str(path), *extra)
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["kind"] == "ValueError" and "nested too deeply" in error["error"]

    @pytest.fixture
    def instance(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps({"universe_size": 3, "sets": [[1, 2], [3]]}))
        return path

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["setcover", "--algo", "pseudo-greedy", "--alpha", "nan"], "alpha must be finite"),
            # A constant the algorithm does not read is checked too, before any trial runs.
            (["setcover", "--algo", "greedy", "--alpha", "nan"],
             "alpha must be finite and positive"),
            (["setcover", "--algo", "greedy", "--alpha-net", "-5"],
             "alpha_net must be finite and positive"),
            (["setcover", "--algo", "pseudo-greedy", "--theta", "0"],
             "theta must be finite and positive"),
            # theta is greedy's, but a config rejects theta > 1 whatever the algorithm.
            (["setcover", "--algo", "pseudo-greedy", "--theta", "5"],
             "theta must be a number in (0, 1], got 5.0"),
            (["setcover", "--algo", "epsnet", "--theta", "1.5"],
             "theta must be a number in (0, 1], got 1.5"),
            (["setcover", "--algo", "epsnet", "--alpha-net", "0"], "alpha_net must be finite"),
            (["setcover", "--algo", "epsnet", "--alpha-net", "1e12"], "alpha_net=1000000000000.0"),
            (["gen-graph", "--model", "er-connected", "--n", "6", "--p", "0"],
             "no connected sample"),
            (["gen-graph", "--model", "er-connected", "--n", "1448", "--p", "1e-9"],
             "no connected sample"),
            (["gen-sets", "--model", "uniform-random", "--n", "4", "--m", "2",
              "--density", "nan"], "density must be a number in [0, 1]"),
            (["bench", "--k", "1"], "at least two distinct k values"),
            (["bench", "--k", ",,"], "at least two distinct k values"),
            (["bench", "--trials", "0"], "trials must be an integer >= 1, got 0"),
            (["bench", "--trials", "-1"], "trials must be an integer >= 1, got -1"),
            (["lemma-test", "--alpha", "inf"], "alpha must be finite and positive"),
            (["lemma-test", "--alpha", "nan"], "alpha must be finite and positive"),
            (["lemma-test", "--log2-n", "nan"], "log2_n_total must be finite and positive"),
            (["lemma-test", "--log2-n", "-3"], "log2_n_total must be finite and positive"),
            (["lemma-test", "--s", "0"], "s_i must be a positive multiple of 8"),
            (["lemma-test", "--s", "-8"], "s_i must be a positive multiple of 8"),
            (["lemma-test", "--alpha", "1e300", "--log2-n", "1e10"],
             "alpha * log2_n_total must be finite"),
        ],
        ids=["setcover-alpha-nan", "greedy-alpha-nan", "greedy-alpha-net-negative",
             "pseudo-greedy-theta-0", "pseudo-greedy-theta-5", "epsnet-theta-1.5",
             "epsnet-alpha-net-0", "epsnet-alpha-net-1e12",
             "gen-graph-er-p-0", "gen-graph-er-p-tiny", "gen-sets-density-nan", "bench-one-k",
             "bench-no-k", "bench-trials-0",
             "bench-trials-negative", "lemma-alpha-inf", "lemma-alpha-nan",
             "lemma-log2-n-nan", "lemma-log2-n-negative", "lemma-s-0", "lemma-s-negative",
             "lemma-product-overflow"],
    )
    def test_bad_cover_constant(self, argv, message, instance, capsys):
        extra = ["--instance", str(instance)] if argv[0] == "setcover" else []
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 1 and out == ""
        error = json.loads(err)
        assert error["kind"] == "ValueError" and message in error["error"]

    def test_discover_alpha_nan(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]]}))
        code, out, err = run_cli(capsys, "discover", "--graph", str(path), "--alpha", "nan")
        assert code == 1 and out == ""
        assert "alpha must be finite" in json.loads(err)["error"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_output_is_an_error(self, fmt, capsys):
        args = argparse.Namespace(format=fmt, out=None)
        with pytest.raises(ValueError, match="Out of range float values"):
            _emit({"trials": [{"ratio": math.inf}]}, args)
        assert capsys.readouterr().out == ""


class TestStats:
    def test_lemma_test(self, capsys):
        code, out, _ = run_cli(capsys, "lemma-test")
        assert code == 0
        doc = json.loads(out)
        assert doc["crossing_rates"]["half"] >= 0.99
        assert doc["crossing_rates"]["eighth"] <= 0.01

    def test_bench_small(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--k", "1,2", "--n", "64",
                               "--m", "16", "--trials", "2")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["per_k"]) == 2

    def test_csv_rejected_without_trials(self, capsys):
        # Only setcover and discover print trials, so only they take --format.
        with pytest.raises(SystemExit) as exc:
            main(["gen-graph", "--model", "path", "--n", "4", "--format", "csv"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --format" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-sets", "--model", "skewed", "--n", "8", "--m", "4"],
            ["verify", "--graph", "g.json"],
            ["lemma-test"],
            ["bench", "--k", "1,2", "--n", "16", "--m", "8", "--trials", "1"],
        ],
        ids=["gen-sets", "verify", "lemma-test", "bench"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_is_only_on_setcover_and_discover(self, argv, fmt, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", fmt])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


def csv_digest(text: str) -> str:
    """sha256 of a CSV report's rows with the wall times blanked."""
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("runtime_s")
    for row in rows[1:]:
        row[col] = ""
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_trial_reports_print_the_same_csv(tmp_path, capsys):
    sets, graph = tmp_path / "s.json", tmp_path / "g.json"
    run_cli(capsys, "gen-sets", "--model", "planted-cover", "--n", "24", "--m", "8", "--k", "3",
            "--seed", "4", "--out", str(sets))
    graph.write_text(json.dumps({"n": 6, "edges": [[1, 2], [1, 3], [3, 4], [3, 5], [4, 6],
                                                   [5, 6]]}))
    code, out, _ = run_cli(capsys, "setcover", "--algo", "pseudo-greedy", "--instance", str(sets),
                           "--trials", "3", "--format", "csv")
    assert code == 0
    assert csv_digest(out) == "3b7f8fa861adf3168861ac30cee72adb32a5bae1838a899249c278f8b55032f6"
    code, out, _ = run_cli(capsys, "discover", "--graph", str(graph), "--seed", "3",
                           "--trials", "2", "--format", "csv")
    assert code == 0
    assert csv_digest(out) == "86a06eb379063669719fe18320b2b96832f4170d63097bc1ef11ae5f89555315"


def readme_cli_lines() -> list[list[str]]:
    """The argv of every ``covertsc`` line in the README's CLI block, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv and argv[0] == "covertsc"]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # In order: the generator lines write the files the later lines read.
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert len(lines) >= 10
    for argv in lines:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
