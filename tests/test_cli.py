import json

import pytest

from covert_setcover.cli import main


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
        assert "queries.total" in lines[0]

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
        doc = json.loads(out)
        assert doc["edges"] == [[1, 2], [1, 3], [3, 4], [3, 5], [4, 6], [5, 6]]
        assert doc["competitive_ratio"] >= 1.0

    def test_disconnected_graph_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 4, "edges": [[1, 2], [3, 4]]}))
        code, _, err = run_cli(capsys, "discover", "--graph", str(path))
        assert code == 1
        assert "not connected" in json.loads(err)["error"]


class TestMalformedInput:
    """Bad files and constants end in one JSON error line and exit 1, not a traceback."""

    @pytest.mark.parametrize(
        "command, flag, doc",
        [
            ("discover", "--graph", {"n": 3, "edges": [[1, 2.0], [2, 3]]}),
            ("discover", "--graph", [[1, 2], [2, 3]]),
            ("setcover", "--instance", [[1, 2]]),
            ("setcover", "--instance", {"universe_size": 2, "sets": [[True, 2]]}),
        ],
        ids=["float-endpoint", "list-graph", "list-instance", "bool-element"],
    )
    def test_malformed_file(self, command, flag, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        extra = ["--algo", "greedy"] if command == "setcover" else []
        code, out, err = run_cli(capsys, command, flag, str(path), *extra)
        assert code == 1 and out == ""
        assert json.loads(err)["kind"] == "ValueError"

    @pytest.fixture
    def instance(self, tmp_path):
        path = tmp_path / "sets.json"
        path.write_text(json.dumps({"universe_size": 3, "sets": [[1, 2], [3]]}))
        return path

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["setcover", "--algo", "pseudo-greedy", "--alpha", "nan"], "alpha must be finite"),
            (["setcover", "--algo", "epsnet", "--alpha-net", "0"], "alpha_net must be finite"),
        ],
        ids=["setcover-alpha-nan", "epsnet-alpha-net-0"],
    )
    def test_bad_cover_constant(self, argv, message, instance, capsys):
        code, out, err = run_cli(capsys, *argv, "--instance", str(instance))
        assert code == 1 and out == ""
        assert message in json.loads(err)["error"]

    def test_discover_alpha_nan(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]]}))
        code, out, err = run_cli(capsys, "discover", "--graph", str(path), "--alpha", "nan")
        assert code == 1 and out == ""
        assert "alpha must be finite" in json.loads(err)["error"]

    def test_lemma_test_negative_trials(self, capsys):
        code, out, err = run_cli(capsys, "lemma-test", "--trials", "-1")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "trials must be >= 1, got -1"


class TestStats:
    def test_lemma_test(self, capsys):
        code, out, _ = run_cli(capsys, "lemma-test", "--trials", "2000", "--seed", "1")
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
        code, _, err = run_cli(capsys, "gen-graph", "--model", "path", "--n", "4",
                               "--format", "csv")
        assert code == 1
        assert "trials" in json.loads(err)["error"]
