"""Golden traces: seeded runs whose JSON reports must stay bit-identical.

Each algorithm digest is the sha256 of
``json.dumps(result.to_json_dict(), sort_keys=True)`` and pins the cover (or
query set), the ledger with its per-phase split and the full round trace.
One discovery digest also pins the insertion order of ``statuses``.
The greedy digests pin the picks of ``greedy_cover`` on one sparse instance,
where many picks share each largest count, and on one planted instance, where
the largest count falls many levels between picks.
The generator digests pin the ``to_json_dict`` form of each set model at
n = m = 600, where the drawn elements go above CPython's small-int cache.
The experiment-path digests pin what the harness and the CLI report: a
``run_experiment`` report without its timestamp and runtimes, a
``bench_planted_family`` report, the same report printed by ``covertsc
discover``, and the stdout bytes of ``covertsc gen-sets`` (an instance
file). A refactor that changes any of them must say why and update the
value here.
"""

import hashlib
import json

import pytest

from covert_setcover import (
    CovertOracle,
    LayeredGraphOracle,
    run_network_discovery,
    run_pseudo_greedy,
    run_weighted_epsilon_net,
)
from covert_setcover.cli import main
from covert_setcover.generators import gen_graph, gen_set_system
from covert_setcover.graphs import graph_to_json_dict
from covert_setcover.harness import ExperimentConfig, bench_planted_family, run_experiment
from covert_setcover.setsystem import greedy_cover, to_json_dict


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _digest(result) -> str:
    return _sha256(result.to_json_dict())


def test_pseudo_greedy_planted_512():
    system, _ = gen_set_system("planted-cover", n=512, m=512, seed=1, k=4)
    result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=1)
    assert _digest(result) == "fd3141ab2d2fdbff5b0cdb05bb8a0871de7a77c0de9d84ff06e4d23059fae7bd"


def test_pseudo_greedy_planted_1024_repeated_round():
    # Rounds 2 and 3 both sample the same 274 elements and shortlist nothing, so
    # round 3 repeats round 2: its probes are charged and logged, its tally skipped.
    system, _ = gen_set_system("planted-cover", n=1024, m=1024, seed=1, k=8)
    result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=1)
    assert result.rounds[2].sample == result.rounds[3].sample
    assert _digest(result) == "92f9b8cdd8eda36878f5c6c131f8de4b352471b8ddf3f29f9aa4f5e8aceea68a"


@pytest.mark.parametrize(
    "model, params, expected",
    [
        ("uniform-random", {"density": 0.05},
         "5305eb07e96a62c0f8c5a5a5230c041a7becb9a43bbe5e4fe7955d457c9bf953"),
        ("planted-cover", {"k": 5},
         "12d93177bdd47996e204a7e524f7f32a72c0b688535a0dd054c43b55b32a18d0"),
        ("skewed", {}, "16620dfd664b45c8a7f5c44f1061e4bfe9b6a107dc66c71216036f740278a9ae"),
    ],
    ids=["uniform-random", "planted-cover", "skewed"],
)
def test_generated_set_system_600(model, params, expected):
    system, meta = gen_set_system(model, n=600, m=600, seed=3, **params)
    assert _sha256(to_json_dict(system, meta)) == expected


def test_epsnet_planted_4096_benchmark_instance():
    # The instance of the epsnet-planted benchmark workload; unlike the n = 32
    # report below, its missed elements lie well past find_uncovered's first window.
    system, _ = gen_set_system("planted-cover", n=4096, m=4096, seed=1, k=8)
    result = run_weighted_epsilon_net(CovertOracle(system), rng_seed=1)
    assert _digest(result) == "8a5366f16da4b4687cbdacbd85ef3370f6e40d49de2d89b4ba20ecd4e0c35ba8"


@pytest.mark.parametrize(
    "alpha, expected",
    [
        # Each finishes in one sampled round and never reaches the base case;
        # alpha 8 samples all 120 pairs.
        (8.0, "07400b45439a34dc994c7ec7720ea3eee4fb5574769a63222e8767f5417f7dba"),
        (2.0, "4274c5fb731d1af5be5709d0c242b95559503d64e2e72d62b70ad05aff2d27cf"),
    ],
    ids=["alpha8", "alpha2"],
)
def test_discovery_er_16(alpha, expected):
    graph = gen_graph("er-connected", n=16, p=0.25, seed=1)
    result = run_network_discovery(LayeredGraphOracle(graph), alpha=alpha, rng_seed=1)
    assert _digest(result) == expected


def test_discovery_statuses_order_er_100():
    # The digests above and perfbench's hash the sorted edges; this one also
    # pins the order in which the pairs entered ``statuses``.
    graph = gen_graph("er-connected", n=100, p=6 / 99, seed=1)
    result = run_network_discovery(LayeredGraphOracle(graph), alpha=8.0, rng_seed=1)
    statuses = [[u, v, s] for (u, v), s in result.statuses.items()]
    assert _sha256([statuses, result.to_json_dict()]) == (
        "ee608b4901625ba73d6539b85129d7b76593eb22a2b22d6199483b56f48099ac"
    )


def test_discovery_er_60_benchmark_instance():
    # The instance of the discover-er benchmark workload; this seed runs one sampled round.
    graph = gen_graph("er-connected", n=60, p=0.1, seed=1)
    result = run_network_discovery(LayeredGraphOracle(graph), alpha=8.0, rng_seed=1)
    assert _digest(result) == "e99909f5440358ea9fc6f911df8d7791e25303c5d8fae12e497be229bc8e03c4"


@pytest.mark.parametrize(
    "theta, expected",
    [
        (1.0, "aecb54ee09f40a12d592d2e33070d4bf25fd190b09d9aed87c78523ca56de39b"),
        (0.5, "634d7b237ed7fad0aa002afe43343998f84146617a5d0ddb24d4affd2d5dbae6"),
    ],
    ids=["1.0", "0.5"],
)
def test_greedy_cover_sparse_1024_picks(theta, expected):
    # The instance of the greedy-sparse benchmark workload: 152 picks at theta 1, 192 at 0.5.
    system, _ = gen_set_system("uniform-random", n=1024, m=1024, seed=1, density=0.01)
    assert _sha256(list(greedy_cover(system, theta=theta).set_indices)) == expected


@pytest.mark.parametrize(
    "theta, expected",
    [
        (1.0, "b17f028dd1e57bbcd1c6aee5e036bb38779ca2bd6679d193c20bf5e19406651a"),
        (0.5, "666ebf1cb8e54d1fd7aff718149b34e5049874aa9f4842e6ddf20834603f64f9"),
    ],
    ids=["1.0", "0.5"],
)
def test_greedy_cover_planted_512_picks(theta, expected):
    # Four picks: (76, 394, 361, 48) at theta 1 and (76, 48, 361, 394) at 0.5.
    system, _ = gen_set_system("planted-cover", n=512, m=512, k=4, seed=1)
    assert _sha256(list(greedy_cover(system, theta=theta).set_indices)) == expected


PLANTED = {"kind": "generate", "model": "planted-cover", "n": 32, "m": 10, "k": 3, "seed": 5}
ER_8 = {"kind": "generate", "model": "er-connected", "n": 8, "p": 0.3, "seed": 2}


@pytest.mark.parametrize(
    "algorithm, expected",
    [
        ("pseudo-greedy", "5a12890eacf3e2ad8e17e1d8ff6d5db33009a989e7387bd82729c0baa60516d7"),
        ("epsnet", "e99b20352396463667c0998d76c7269d2130716f621d0fd97e7a557479b549c9"),
        ("greedy", "8e80610520b59d65453180ccbd2e50b39121a6e2286c7e6427af92bd27da707e"),
        ("bruteforce", "547460db568ace71b551949afbc94ad3285f96f908d83b6ce0dfea6076f85720"),
        ("discover", "1d0f18a2fbab2422285760ba492a528555be9ae964cf6f1bac311a788b21d3fb"),
    ],
    ids=["pseudo-greedy", "epsnet", "greedy", "bruteforce", "discover"],
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
    assert _sha256(report) == "c6f9e5025a68c2e70d4958bb0bef70d68dc1e5662edb01f8dd0cc67f4919b1b8"


@pytest.mark.parametrize(
    "trials, expected",
    [
        ("1", "e29e46cd2a4c1833fa44da0fcbf5161ae26cff2808d4a8e5f9fe28296a837ea3"),
        ("3", "b60aae323d4f4aed885d9b0c084ec322fb01f7a9b0c5add4cf4acc44d70e1a76"),
    ],
    ids=["1", "3"],
)
def test_cli_discover_stdout(trials, expected, tmp_path, monkeypatch, capsys):
    # A relative path keeps the config echo of the report fixed.
    monkeypatch.chdir(tmp_path)
    graph = gen_graph("er-connected", n=8, p=0.3, seed=2)  # the ER_8 instance
    (tmp_path / "g.json").write_text(json.dumps(graph_to_json_dict(graph)))
    assert main(["discover", "--graph", "g.json", "--seed", "3", "--trials", trials]) == 0
    report = json.loads(capsys.readouterr().out)
    report.pop("timestamp")
    for trial in report["trials"]:
        trial.pop("runtime_s")
    assert _sha256(report) == expected


def test_cli_gen_sets_stdout(capsys):
    # The instance file a generated system serializes to, byte for byte.
    argv = ["gen-sets", "--model", "planted-cover", "--n", "300", "--m", "200", "--k", "4", "--seed", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a98066f692cf41611869ef6fd59eb0f0b805c017abb68f4f95333fb30953983f"
    )
