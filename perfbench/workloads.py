"""The four benchmark workloads: set-up, one trial, and the after-the-fact checks.

A trial is the per-trial body of ``harness.run_experiment``: a fresh oracle,
the algorithm, then a check against the hidden instance. Everything the
library sees is a generated input; nothing names the workload. The calls the
benchmark makes itself go through a ``Lib`` so the traced run can time them.

Sizes, the reasons for each workload and the layer predictions are in
``workloads.json`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import covert_setcover as cs
from covert_setcover import generators
from tracing import TracedCovertOracle, TracedLayeredGraphOracle

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.json")
ROUND_FIELDS = ("i", "n_i", "s_i", "sample", "shortlist", "chosen", "ledger_delta", "base_case")
GUESS_FIELDS = ("k", "net_size", "iterations", "iteration_cap", "succeeded", "ledger_delta")


class SetupError(Exception):
    """The generated instance cannot be used (for example, it is uncoverable)."""


class Lib:
    """The library names the benchmark calls directly, optionally traced."""

    NAMES = (
        "gen_set_system",
        "gen_graph",
        "build_set_system",
        "greedy_cover",
        "verify_cover",
        "run_pseudo_greedy",
        "run_weighted_epsilon_net",
        "run_network_discovery",
    )

    def __init__(self, tracer=None):
        for name in self.NAMES:
            fn = getattr(generators if name.startswith("gen_") else cs, name)
            setattr(self, name, fn if tracer is None else tracer.wrap(fn))
        if tracer is None:
            self.CovertOracle = cs.CovertOracle
            self.LayeredGraphOracle = cs.LayeredGraphOracle
        else:
            self.CovertOracle = lambda hidden: TracedCovertOracle(hidden, tracer)
            self.LayeredGraphOracle = lambda hidden: TracedLayeredGraphOracle(hidden, tracer)


@dataclass
class Outcome:
    """What the benchmark keeps of one trial, computed outside the timed region."""

    ok: bool
    reason: str
    queries: int
    cover_size: int
    record: dict
    counts: dict = field(default_factory=dict)


def _ledger(ledger) -> dict:
    return {
        "hitting": ledger.hitting_queries,
        "set": ledger.set_queries,
        "layered": ledger.layered_queries,
        "phases": ledger.phase_counts,
    }


def _trace(rounds, fields) -> list:
    return [{f: getattr(r, f, None) for f in fields} for r in rounds]


def digest(records: list[dict]) -> str:
    """sha256 over the canonical JSON of trial records, in trial order."""
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def _require_coverable(meta: dict) -> None:
    if not meta.get("coverable", False):
        raise SetupError(f"generated instance is uncoverable: {meta}")


class Planted:
    """Set-up shared by the two covert algorithms: one planted-cover instance."""

    def setup(self, lib, p):
        system, meta = lib.gen_set_system(
            "planted-cover", n=p["n"], m=p["m"], seed=p["instance_seed"], k=p["k"]
        )
        _require_coverable(meta)
        lib.CovertOracle(system)
        return system


class PgPlanted(Planted):
    """run_pseudo_greedy on one planted-cover instance; trials vary rng_seed."""

    def trial(self, lib, p, system, seed):
        result = lib.run_pseudo_greedy(lib.CovertOracle(system), alpha=p["alpha"], rng_seed=seed)
        return result, (not result.failed) and lib.verify_cover(system, result.cover)

    def outcome(self, p, system, result, valid):
        ledger = result.ledger
        sampled = sum(len(r.sample) for r in result.rounds if not r.base_case)
        residue = sum(r.n_i for r in result.rounds if r.base_case)
        accepted = sum(len(r.chosen) for r in result.rounds if not r.base_case)
        identity = ledger.hitting_queries == sampled + residue and ledger.set_queries == accepted
        reason = "" if valid else "invalid cover"
        if valid and not identity:
            reason = "ledger identity broken"
        return Outcome(
            ok=valid and identity,
            reason=reason,
            queries=ledger.total,
            cover_size=len(result.cover),
            record={
                "cover": result.cover.set_indices,
                "ledger": _ledger(ledger),
                "rounds": _trace(result.rounds, ROUND_FIELDS),
            },
            counts={"pseudo_greedy.rounds": len(result.rounds)},
        )


class EpsnetPlanted(Planted):
    """run_weighted_epsilon_net (defaults) on one planted-cover instance."""

    def trial(self, lib, p, system, seed):
        result = lib.run_weighted_epsilon_net(lib.CovertOracle(system), rng_seed=seed)
        return result, (not result.failed) and lib.verify_cover(system, result.cover)

    def outcome(self, p, system, result, valid):
        return Outcome(
            ok=valid,
            reason="" if valid else ("gave up" if result.failed else "invalid cover"),
            queries=result.ledger.total,
            cover_size=len(result.cover),
            record={
                "cover": result.cover.set_indices,
                "ledger": _ledger(result.ledger),
                "rounds": _trace(result.rounds, GUESS_FIELDS),
            },
            counts={"epsnet.guesses": len(result.rounds)},
        )


class GreedySparse:
    """Explicit greedy at two thetas on a sparse uniform-random instance.

    Greedy is deterministic, so every trial repeats the same work and the
    trial seed is unused. The explicit algorithm first reads the whole family through a fresh oracle
    (one set query per set): that full-information bill is what the covert
    algorithms avoid, and it keeps the trial body the same shape as theirs.
    """

    def setup(self, lib, p):
        system, meta = lib.gen_set_system(
            "uniform-random", n=p["n"], m=p["m"], seed=p["instance_seed"], density=p["density"]
        )
        _require_coverable(meta)
        lib.CovertOracle(system)
        return system

    def trial(self, lib, p, system, seed):
        oracle = lib.CovertOracle(system)
        family = [oracle.set_query(s) for s in range(1, oracle.n_sets + 1)]
        explicit = lib.build_set_system(family, universe_size=oracle.n_elements)
        covers = [lib.greedy_cover(explicit, theta=theta) for theta in p["thetas"]]
        valid = all([lib.verify_cover(system, c) for c in covers])
        return (oracle.ledger_snapshot(), covers), valid

    def outcome(self, p, system, result, valid):
        ledger, covers = result
        return Outcome(
            ok=valid,
            reason="" if valid else "invalid cover",
            queries=ledger.total,
            cover_size=len(covers[0]),
            record={"covers": [c.set_indices for c in covers], "ledger": _ledger(ledger)},
        )


class DiscoverEr:
    """run_network_discovery on one connected Erdos-Renyi graph; trials vary rng_seed."""

    def setup(self, lib, p):
        graph = lib.gen_graph("er-connected", n=p["n"], seed=p["instance_seed"], p=p["p"])
        lib.LayeredGraphOracle(graph)
        return graph, frozenset(graph.edges())

    def trial(self, lib, p, state, seed):
        graph, truth = state
        result = lib.run_network_discovery(
            lib.LayeredGraphOracle(graph), alpha=p["alpha"], rng_seed=seed
        )
        n = graph.n
        resolved = len(result.statuses) == n * (n - 1) // 2
        return result, resolved and set(result.edges) == truth

    def outcome(self, p, state, result, valid):
        ledger = result.ledger
        base = ledger.phase_counts.get("base-case", {}).get("layered", 0)
        return Outcome(
            ok=valid,
            reason="" if valid else "pairs unresolved or edges differ from the truth",
            queries=ledger.total,
            cover_size=len(result.query_set),
            record={
                "query_set": result.query_set,
                "edges": result.edges,
                "ledger": _ledger(ledger),
                "rounds": _trace(result.rounds, ROUND_FIELDS),
            },
            counts={
                "discovery.rounds": len(result.rounds),
                "discovery.base_case_layered": base,
                "discovery.layered": ledger.layered_queries,
                "discovery.pairs_resolved": len(result.statuses),
            },
        )


WORKLOADS = {
    "pg-planted": PgPlanted(),
    "epsnet-planted": EpsnetPlanted(),
    "greedy-sparse": GreedySparse(),
    "discover-er": DiscoverEr(),
}


def load_spec() -> dict:
    """The contents of workloads.json."""
    with open(SPEC_PATH) as fh:
        return json.load(fh)
