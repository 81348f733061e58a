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
    assert _digest(result) == "fa1a803074f0eb12d31b6fc49b871ddfa2dab75e0f1651dfcced919e5edad364"


def test_pseudo_greedy_planted_1024_repeated_round():
    # Round 2 samples its whole residue of 274 elements and shortlists nothing, so
    # every later round would redraw that sample: it ends the run as the base case,
    # finished from its own 274 answers.
    system, _ = gen_set_system("planted-cover", n=1024, m=1024, seed=1, k=8)
    result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=1)
    last = result.rounds[-1]
    assert (last.i, last.n_i, last.base_case, last.ledger_delta["hitting"]) == (2, 274, True, 274)
    assert _digest(result) == "4cc0bff9ba0a62d32989279b61d22788e27021042682abde118f5940947c9af0"


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
    assert _digest(result) == "f0b56b91f10be1b079c81b7f0058a14643c00efc2919512f8e5bdf71e51420cb"


@pytest.mark.parametrize(
    "alpha, expected",
    [
        # Each finishes in one sampled round and never reaches the base case;
        # alpha 8 samples all 120 pairs.
        (8.0, "361b9d6f483254dac684cab9d41237751be77b8cc9027b5cec771717d2d53b42"),
        (2.0, "861ffabaab0740935a3a7c12c2b99a753f649c81be4e7e702c7aad041bd79861"),
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
        "708f6d05c9c63574908f21454c13c7087ee54d0f67d998790a4ec0e453656bdb"
    )


def test_discovery_er_60_benchmark_instance():
    # The instance of the discover-er benchmark workload; this seed runs one sampled round.
    graph = gen_graph("er-connected", n=60, p=0.1, seed=1)
    result = run_network_discovery(LayeredGraphOracle(graph), alpha=8.0, rng_seed=1)
    assert _digest(result) == "8788d46d3924284a3052678b8d920335e8ad070a95fd91fbbd8af1351b744825"


def test_discovery_er_grid():
    # sampled_greedy ends the run at a full-sample round that shortlists nothing only if
    # the round's probes left len(uncovered) as it was. Discovery's side certificates
    # shrink the residue inside a round, so its reports must not change; without that
    # check Q grows on two of these runs (n = 8, alpha 4, seeds 1 and 2).
    reports = []
    for n, p in ((8, 0.3), (16, 0.25), (30, 0.15), (60, 0.1)):
        for alpha in (1.0, 2.0, 4.0, 8.0):
            for seed in range(3):
                graph = gen_graph("er-connected", n=n, p=p, seed=seed)
                result = run_network_discovery(LayeredGraphOracle(graph), alpha=alpha, rng_seed=seed)
                reports.append(result.to_json_dict())
    assert _sha256(reports) == "82d713b5891c7ef7d464eae369d7e0de727329c89f5e89970cb9f1078072d586"


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
        ("pseudo-greedy", "5a4b59aa98b7bc9e539400bdcd296e7a6d612a4dd1e72084097c2d8aecd7a603"),
        ("epsnet", "3f22e6b154b495e4d25532e90f88c1af72e9f0669340ac37fa878a41f7723b5c"),
        ("greedy", "c01adacd1178a0330f6cad80d7ffbe9ebf657804f7bc083f25018014c6021058"),
        ("bruteforce", "29b84499fb857a5ef9388795bc02a04f891e3e5fe1739c3b2281ea9047934647"),
        ("discover", "1a300c5a8ad9500f40884c4a8a95445ce4d4f6c8138d37df426da79ee318b149"),
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
    assert _sha256(report) == "8cb79505d743798eaf628b902879ba3bcaea2c374a173a47ece96f61e483d790"
    # The exponents are exact slopes rounded once, each one bit off the
    # statistics.linear_regression slopes of 3.10-3.12 (-0.022367813028454583 and
    # 0.700439718141092); every other field is as it was.
    exponents = [report.pop("pseudo_greedy_exponent"), report.pop("epsnet_exponent")]
    assert exponents == [-0.02236781302845458, 0.7004397181410918]
    assert _sha256(report) == "c43f60d96bfd0fb0beb585e6a26a42396e7a954c68af9d7a1c274fa5e1b6a7ba"


@pytest.mark.parametrize(
    "trials, expected",
    [
        ("1", "70d5626970192b9e64899458939859513f081ed993cb4ea36e1c7fd66be2cca7"),
        ("3", "963d0e9026bef4c999737b9c96987b67eb7d55f6e9a7f79a52eceed808823692"),
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
