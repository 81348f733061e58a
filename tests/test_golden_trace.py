"""Golden traces: seeded runs whose JSON reports must stay bit-identical.

Each algorithm digest is the sha256 of
``json.dumps(result.to_json_dict(), sort_keys=True)`` and pins the cover (or
query set), the ledger with its per-phase split and the full round trace.
The greedy digests pin the picks of ``greedy_cover`` on one sparse instance.
The experiment-path digests pin what the harness and the CLI report: a
``run_experiment`` report without its timestamp and runtimes, a
``bench_planted_family`` report, and the stdout bytes of ``covertsc
discover``. A refactor that changes any of them must say why and update the
value here.
"""

import hashlib
import json

import pytest

from covert_setcover import CovertOracle, LayeredGraphOracle, run_network_discovery, run_pseudo_greedy
from covert_setcover.cli import main
from covert_setcover.generators import gen_graph, gen_set_system
from covert_setcover.graphs import graph_to_json_dict
from covert_setcover.harness import ExperimentConfig, bench_planted_family, run_experiment
from covert_setcover.setsystem import greedy_cover


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _digest(result) -> str:
    return _sha256(result.to_json_dict())


def test_pseudo_greedy_planted_512():
    system, _ = gen_set_system("planted-cover", n=512, m=512, seed=1, k=4)
    result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=1)
    assert _digest(result) == "fd3141ab2d2fdbff5b0cdb05bb8a0871de7a77c0de9d84ff06e4d23059fae7bd"


@pytest.mark.parametrize(
    "alpha, expected",
    [
        # alpha 8 goes straight to the base case; alpha 2 finishes in one sampled round.
        (8.0, "dfe5985cc0c16c0152c694f73bc105db90ef89dcbd83fce92a3837dfde2110ac"),
        (2.0, "f336ff697507e1476ee584d6be275a3b6b89ca534533baf8c59c056134e630a7"),
    ],
    ids=["alpha8", "alpha2"],
)
def test_discovery_er_16(alpha, expected):
    graph = gen_graph("er-connected", n=16, p=0.25, seed=1)
    result = run_network_discovery(LayeredGraphOracle(graph), alpha=alpha, rng_seed=1)
    assert _digest(result) == expected


def test_discovery_er_60_benchmark_instance():
    # The instance of the discover-er benchmark workload; this seed runs one sampled round.
    graph = gen_graph("er-connected", n=60, p=0.1, seed=1)
    result = run_network_discovery(LayeredGraphOracle(graph), alpha=8.0, rng_seed=1)
    assert _digest(result) == "bb1d9acaeb512a014be95ae41606dea62cfa005cca4faa59c2192b362cee5466"


@pytest.mark.parametrize(
    "theta, expected",
    [
        (1.0, "aecb54ee09f40a12d592d2e33070d4bf25fd190b09d9aed87c78523ca56de39b"),
        (0.5, "634d7b237ed7fad0aa002afe43343998f84146617a5d0ddb24d4affd2d5dbae6"),
    ],
)
def test_greedy_cover_sparse_1024_picks(theta, expected):
    # The instance of the greedy-sparse benchmark workload: 152 picks at theta 1, 192 at 0.5.
    system, _ = gen_set_system("uniform-random", n=1024, m=1024, seed=1, density=0.01)
    assert _sha256(list(greedy_cover(system, theta=theta).set_indices)) == expected


PLANTED = {"kind": "generate", "model": "planted-cover", "n": 32, "m": 10, "k": 3, "seed": 5}
ER_8 = {"kind": "generate", "model": "er-connected", "n": 8, "p": 0.3, "seed": 2}


@pytest.mark.parametrize(
    "algorithm, expected",
    [
        ("pseudo-greedy", "68fcb0cfc111643a6e2f70200bfc3ceb416f568d53c7dca4f7daa0b0fc95c2c9"),
        ("epsnet", "d336f594bddac549a7712187227692c04577e87bf9b7d0057cd5232f646a100b"),
        ("greedy", "67abda6ecafd12e622a66836efb2c3bc79c65c7b8ff7197ed059fb522276c268"),
        ("bruteforce", "9e9853910fa72e43ffaf71726cdf6ba7b90f80d84515c65119eb93f9e40988a0"),
        ("discover", "78d42e8a4934e1e5979651d0d209e1d0223382b5874a9c1614115103bbce0d8a"),
    ],
)
def test_experiment_report(algorithm, expected):
    source = dict(ER_8 if algorithm == "discover" else PLANTED)
    config = ExperimentConfig(algorithm=algorithm, seeds=[2, 0, 1], source=source,
                              compute_opt=True)
    report = run_experiment(config)
    report.pop("timestamp")
    for trial in report["trials"]:
        trial.pop("runtime_s")
    assert _sha256(report) == expected


def test_bench_planted_family_report():
    report = bench_planted_family([1, 2], seeds=[0, 1], n=64, m=16)
    assert _sha256(report) == "b837d62deae3c566609c26b2430853a3a341749d2391cb322ecc7a463bceb96f"


@pytest.mark.parametrize(
    "trials, expected",
    [
        ("1", "bc6790ca67bad43309357e06513d1264db011c71fd9e230162d7a2bc1f750b91"),
        ("3", "9aa4430c6f90147a879141f7d915bf5892e8694f77cee74eeeb37456aa7aad7d"),
    ],
)
def test_cli_discover_stdout(trials, expected, tmp_path, monkeypatch, capsys):
    # A relative path keeps the stdout of a multi-trial run, which echoes it, fixed.
    monkeypatch.chdir(tmp_path)
    graph = gen_graph("er-connected", n=8, p=0.3, seed=2)  # the ER_8 instance
    (tmp_path / "g.json").write_text(json.dumps(graph_to_json_dict(graph)))
    assert main(["discover", "--graph", "g.json", "--seed", "3", "--trials", trials]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected
