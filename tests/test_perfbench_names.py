"""Every library name the benchmark under ``perfbench/`` reads must still exist.

The traced run wraps the ``tracing.WRAPPED`` names, the workloads call the
``workloads.Lib.NAMES`` entry points and read fields of the results; a
refactor that drops or renames one of them would otherwise only show up in a
benchmark run, as an absent wrapper or a changed digest.
"""

import importlib
import os

import pytest

import covert_setcover as cs
from covert_setcover.generators import gen_graph, gen_set_system

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    # The benchmark modules import each other as top-level modules.
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_wrapped_names_are_callable(perfbench):
    tracing, _ = perfbench
    absent = [
        f"{module}.{name}"
        for module, names in tracing.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"covert_setcover.{module}"), name, None))
    ]
    assert absent == []


def test_workload_entry_points_are_reachable(perfbench):
    _, workloads = perfbench
    lib = workloads.Lib()
    assert all(callable(getattr(lib, name)) for name in workloads.Lib.NAMES)


def test_result_attributes_the_workloads_read(perfbench):
    # workloads._trace reads round fields with getattr(r, f, None), so a dropped
    # field would change the benchmark digest instead of failing.
    _, workloads = perfbench
    system, _ = gen_set_system("planted-cover", n=64, m=16, seed=1, k=2)
    greedy = cs.run_pseudo_greedy(cs.CovertOracle(system), rng_seed=1)
    epsnet = cs.run_weighted_epsilon_net(cs.CovertOracle(system), rng_seed=1)
    graph = gen_graph("er-connected", n=8, p=0.3, seed=2)
    discovery = cs.run_network_discovery(cs.LayeredGraphOracle(graph), rng_seed=1)
    ledger_fields = ("hitting_queries", "set_queries", "layered_queries", "phase_counts", "total")
    read = [
        *((r, workloads.ROUND_FIELDS) for r in greedy.rounds + discovery.rounds),
        *((g, workloads.GUESS_FIELDS) for g in epsnet.rounds),
        *((result.ledger, ledger_fields) for result in (greedy, epsnet, discovery)),
        *((result.cover, ("set_indices",)) for result in (greedy, epsnet)),
        (discovery, ("statuses", "edges", "query_set")),
    ]
    missing = [
        f"{type(obj).__name__}.{name}" for obj, names in read for name in names
        if not hasattr(obj, name)
    ]
    assert missing == []
    assert len(greedy.cover) == len(greedy.cover.set_indices)
    assert len(epsnet.cover) == len(epsnet.cover.set_indices)


def test_tracer_notes_still_read(perfbench):
    # Tracer.call turns an IndexError or TypeError from a note into None, so a changed
    # argument list or return shape would silently drop a per-layer metric.
    tracing, _ = perfbench
    tracer = tracing.Tracer()
    # Two sampled rounds that accept sets, then the base case.
    system, _ = gen_set_system("planted-cover", n=64, m=16, seed=1, k=4)
    graph = gen_graph("er-connected", n=16, p=0.25, seed=1)
    with tracing.Installed(tracer) as installed:
        greedy = cs.run_pseudo_greedy(cs.CovertOracle(system), alpha=1.0, rng_seed=1)
        cs.run_weighted_epsilon_net(cs.CovertOracle(system), rng_seed=1)
        cs.run_network_discovery(cs.LayeredGraphOracle(graph), alpha=2.0, rng_seed=1)
    assert installed.absent == []
    assert greedy.base_case_entered and any(r.chosen for r in greedy.rounds if not r.base_case)
    notes = {}
    for name, _, _, _, _, note in tracer.spans:
        notes.setdefault(name, []).append(note)
    # A span that never ran counts as a dropped note too.
    dropped = [name for name in tracing.NOTES if None in notes.get(name, [None])]
    assert dropped == []
