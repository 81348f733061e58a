"""Golden traces: seeded runs whose JSON reports must stay bit-identical.

Each digest is the sha256 of ``json.dumps(result.to_json_dict(), sort_keys=True)``
and pins the cover (or query set), the ledger with its per-phase split and
the full round trace. A refactor that changes any of them must say why and
update the value here.
"""

import hashlib
import json

import pytest

from covert_setcover import CovertOracle, LayeredGraphOracle, run_network_discovery, run_pseudo_greedy
from covert_setcover.generators import gen_graph, gen_set_system


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_json_dict(), sort_keys=True).encode()).hexdigest()


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
