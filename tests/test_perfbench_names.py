"""Every library name the benchmark under ``perfbench/`` reads must still exist.

The traced run wraps the ``tracing.WRAPPED`` names and the workloads call the
``workloads.Lib.NAMES`` entry points; a refactor that drops or renames one
of them would otherwise only show up as an absent wrapper in a benchmark run.
"""

import importlib
import os

import pytest

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
