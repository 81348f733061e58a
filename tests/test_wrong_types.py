"""Every public parameter, given a value of the wrong type, returns or raises a typed error.

One table holds each entry point with arguments it runs on. The property test
replaces one argument by one of ``BAD_VALUES`` and accepts only a normal return
or one of the errors ``covertsc`` catches and prints as JSON (``CATCHABLE``):
anything else would be a traceback at the command line. The table covers the
functions of ``covert_setcover.__all__``, the oracles' constructors and
queries, a phase label followed by a query, ``Graph.from_edges``,
``run_experiment`` (each config field, and each key of a file and of a
generator source), ``bench_planted_family``, ``sampling_concentration_test``,
both generators and both JSON parsers (the document and each of its fields).
The plain result dataclasses hold what they are given and check nothing, so
they are not in it.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from covert_setcover import (
    CovertOracle,
    CovertSetCoverError,
    Graph,
    LayeredGraphOracle,
    brute_force_min_cover,
    build_set_system,
    certified_pairs,
    competitive_ratio,
    greedy_cover,
    hitting_set_H,
    layered_answer,
    offline_verification,
    run_network_discovery,
    run_pseudo_greedy,
    run_weighted_epsilon_net,
    verify_cover,
)
from covert_setcover.generators import gen_graph, gen_set_system
from covert_setcover.graphs import graph_from_json_dict
from covert_setcover.harness import (
    ExperimentConfig,
    bench_planted_family,
    run_experiment,
    sampling_concentration_test,
)
from covert_setcover.setsystem import from_json_dict

BAD_VALUES = (None, "x", 1.5, True, [1], {}, math.nan, -1, 0)
CATCHABLE = (ValueError, CovertSetCoverError, OSError)

SETS = [[1, 2], [2, 3]]
EDGES = [[1, 2], [2, 3]]


def _with_oracle(oracle_type, query):
    """``query(oracle, arg)`` on a fresh oracle over ``hidden`` with ``log_stream``."""
    def call(hidden, log_stream, arg):
        return query(oracle_type(hidden, log_stream), arg)
    return call


def _on_source(**source):
    return run_experiment(ExperimentConfig("greedy", [0], source))


def entry_points(instance_path):
    """name -> (callable, keyword arguments it runs on), built fresh for each call."""
    system = build_set_system(SETS, 3)
    graph = Graph.from_edges(3, EDGES)
    discovered = run_network_discovery(LayeredGraphOracle(graph))
    return {
        "brute_force_min_cover": (brute_force_min_cover, {"system": system}),
        "build_set_system": (build_set_system, {"sets": SETS, "universe_size": 3}),
        "certified_pairs": (certified_pairs, {"answer": layered_answer(graph, 1),
                                              "pairs": [(1, 2), (1, 3), (2, 3)]}),
        "competitive_ratio": (competitive_ratio, {"result": discovered, "opt_size": 1}),
        "greedy_cover": (greedy_cover, {"system": system, "theta": 1.0}),
        "hitting_set_H": (hitting_set_H, {"u": 1, "v": 3,
                                           "answer_of": LayeredGraphOracle(graph).layered_query}),
        "layered_answer": (layered_answer, {"graph": graph, "v": 1}),
        "offline_verification": (offline_verification, {"graph": graph, "mode": "exact"}),
        "run_network_discovery": (run_network_discovery, {
            "oracle": LayeredGraphOracle(graph), "alpha": 8.0, "rng_seed": 0}),
        "run_pseudo_greedy": (run_pseudo_greedy, {
            "oracle": CovertOracle(system), "alpha": 8.0, "rng_seed": 0}),
        "run_weighted_epsilon_net": (run_weighted_epsilon_net, {
            "oracle": CovertOracle(system), "alpha_net": 2.0, "rng_seed": 0}),
        "verify_cover": (verify_cover, {"system": system, "cover": [1, 2]}),
        "Graph.from_edges": (Graph.from_edges, {"n": 3, "edges": EDGES}),
        "CovertOracle.hitting_query": (
            _with_oracle(CovertOracle, CovertOracle.hitting_query),
            {"hidden": system, "log_stream": None, "arg": 2}),
        "CovertOracle.set_query": (
            _with_oracle(CovertOracle, CovertOracle.set_query),
            {"hidden": system, "log_stream": None, "arg": 1}),
        "CovertOracle.set_bits": (
            _with_oracle(CovertOracle, CovertOracle.set_bits),
            {"hidden": system, "log_stream": None, "arg": 1}),
        "MeteredOracle.mark_phase": (
            _with_oracle(CovertOracle, lambda oracle, label: (oracle.mark_phase(label),
                                                              oracle.hitting_query(2))),
            {"hidden": system, "log_stream": None, "arg": "round-0"}),
        "LayeredGraphOracle.layered_query": (
            _with_oracle(LayeredGraphOracle, LayeredGraphOracle.layered_query),
            {"hidden": graph, "log_stream": None, "arg": 1}),
        "run_experiment": (lambda **fields: run_experiment(ExperimentConfig(**fields)), {
            "algorithm": "greedy", "seeds": [0],
            "source": {"kind": "file", "path": instance_path},
            "alpha": 8.0, "theta": 1.0, "alpha_net": 2.0, "compute_opt": True}),
        "run_experiment file source": (_on_source, {"kind": "file", "path": instance_path}),
        "run_experiment generator source": (_on_source, {
            "kind": "generate", "model": "planted-cover", "n": 16, "m": 8, "k": 2, "seed": 0,
            "density": 0.3}),
        "bench_planted_family": (bench_planted_family, {
            "k_values": [1, 2], "seeds": [0], "n": 16, "m": 8, "alpha": 8.0, "alpha_net": 2.0}),
        "sampling_concentration_test": (sampling_concentration_test, {
            "alpha": 8.0, "log2_n_total": 20.0, "s_i": 1024}),
        "gen_graph": (gen_graph, {"model": "er-connected", "n": 6, "seed": 0, "p": 0.5,
                                  "rows": 0, "cols": 0}),
        "gen_set_system": (gen_set_system, {"model": "planted-cover", "n": 16, "m": 8,
                                            "seed": 0, "k": 2, "density": 0.3}),
        "from_json_dict": (from_json_dict, {"doc": {"universe_size": 3, "sets": SETS}}),
        "from_json_dict fields": (lambda **doc: from_json_dict(doc),
                                  {"universe_size": 3, "sets": SETS}),
        "graph_from_json_dict": (graph_from_json_dict, {"doc": {"n": 3, "edges": EDGES}}),
        "graph_from_json_dict fields": (lambda **doc: graph_from_json_dict(doc),
                                        {"n": 3, "edges": EDGES}),
    }


PARAMETERS = [(name, param) for name, (_, kwargs) in entry_points("").items() for param in kwargs]


def test_every_entry_point_runs_on_its_own_arguments(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"universe_size": 3, "sets": SETS}))
    for fn, kwargs in entry_points(str(path)).values():
        fn(**kwargs)


@settings(max_examples=4 * len(PARAMETERS) * len(BAD_VALUES))
@given(st.sampled_from(PARAMETERS), st.sampled_from(BAD_VALUES))
def test_wrong_typed_parameter_raises_a_catchable_error(tmp_path_factory, parameter, value):
    path = tmp_path_factory.getbasetemp() / "wrong-types-instance.json"
    if not path.exists():
        path.write_text(json.dumps({"universe_size": 3, "sets": SETS}))
    name, param = parameter
    fn, kwargs = entry_points(str(path))[name]
    kwargs[param] = value
    try:
        fn(**kwargs)
    except CATCHABLE:
        pass
