"""Seeded experiment runner, statistical checks, and benchmark comparisons.

Reports are plain dicts ready for JSON: a config echo, one record per
trial (sorted by seed), and aggregates recomputable from the records.
Wall-clock runtimes and the single timestamp field are the only
nondeterministic entries, so golden-file comparisons drop exactly those.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .discovery import (
    EXACT_VERIFICATION_VERTEX_CAP,
    LayeredGraphOracle,
    competitive_ratio,
    offline_verification,
    run_network_discovery,
)
from .epsnet import run_weighted_epsilon_net
from .errors import BruteForceCapExceededError
from .generators import gen_graph, gen_set_system
from .graphs import Graph, graph_from_json_dict
from .oracle import CovertOracle
from .pseudo_greedy import run_pseudo_greedy
from .setsystem import (
    BRUTE_FORCE_SET_CAP,
    SetSystem,
    brute_force_min_cover,
    from_json_dict,
    greedy_cover,
    verify_cover,
)

ALGORITHMS = ("pseudo-greedy", "epsnet", "greedy", "bruteforce")


@dataclass
class ExperimentConfig:
    """What to run: algorithm, instance source, constants, and seeds."""

    algorithm: str
    seeds: list[int]
    source: dict = field(default_factory=dict)
    alpha: float = 8.0
    theta: float = 1.0
    alpha_net: float = 2.0
    net_size_const: float = 4.0
    iter_cap_const: float = 4.0
    brute_cap: int = BRUTE_FORCE_SET_CAP
    compute_opt: bool = False

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS + ("discover",):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "seeds": list(self.seeds),
            "source": dict(self.source),
            "alpha": self.alpha,
            "theta": self.theta,
            "alpha_net": self.alpha_net,
            "net_size_const": self.net_size_const,
            "iter_cap_const": self.iter_cap_const,
            "brute_cap": self.brute_cap,
            "compute_opt": self.compute_opt,
        }


def resolve_system(source: dict) -> SetSystem:
    """Materialize the instance a config points at (file or generator description)."""
    kind = source.get("kind")
    if kind == "file":
        with open(source["path"]) as fh:
            return from_json_dict(json.load(fh))
    if kind == "generate":
        system, _ = gen_set_system(
            source["model"],
            n=source["n"],
            m=source["m"],
            seed=source.get("seed", 0),
            k=source.get("k", 0),
            density=source.get("density", 0.3),
        )
        return system
    raise ValueError(f"unsupported set-system source {source!r}")


def resolve_graph(source: dict) -> Graph:
    kind = source.get("kind")
    if kind == "file":
        with open(source["path"]) as fh:
            return graph_from_json_dict(json.load(fh))
    if kind == "generate":
        return gen_graph(
            source["model"],
            n=source.get("n", 0),
            seed=source.get("seed", 0),
            p=source.get("p", 0.25),
            rows=source.get("rows", 0),
            cols=source.get("cols", 0),
        )
    raise ValueError(f"unsupported graph source {source!r}")


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all trials of a config and assemble the report.

    Post-hoc validation is authoritative: a cover trial is valid iff
    verify_cover holds against the hidden instance, regardless of what the
    algorithm believed.
    """
    config.validate()
    if config.algorithm == "discover":
        return _run_discovery_experiment(config)
    system = resolve_system(config.source)
    opt_size = None
    if config.compute_opt and system.n_sets <= config.brute_cap:
        try:
            opt_size = len(brute_force_min_cover(system, cap=config.brute_cap))
        except BruteForceCapExceededError:
            opt_size = None

    trials = []
    for seed in sorted(config.seeds):
        t0 = time.perf_counter()
        record = {"seed": seed, "algorithm": config.algorithm}
        if config.algorithm == "pseudo-greedy":
            oracle = CovertOracle(system)
            result = run_pseudo_greedy(oracle, alpha=config.alpha, rng_seed=seed)
            record.update(_cover_record(system, result))
            if record["cover_size"]:
                # Measured constant of the total <= C * log2(N)^2 * |cover| bound.
                log2_n = math.log2(system.universe_size + system.n_sets)
                record["query_bound_constant"] = record["queries"]["total"] / (
                    log2_n**2 * record["cover_size"]
                )
        elif config.algorithm == "epsnet":
            oracle = CovertOracle(system)
            result = run_weighted_epsilon_net(
                oracle,
                alpha_net=config.alpha_net,
                rng_seed=seed,
                size_const=config.net_size_const,
                cap_const=config.iter_cap_const,
            )
            record.update(_cover_record(system, result))
            successes = [t for t in result.rounds if t.succeeded]
            record["iterations_at_success"] = (
                successes[0].iterations if successes else None
            )
        else:
            if config.algorithm == "greedy":
                cover = greedy_cover(system, theta=config.theta)
            else:
                cover = brute_force_min_cover(system, cap=config.brute_cap)
            record.update(
                cover_size=len(cover),
                cover=list(cover.set_indices),
                valid=verify_cover(system, cover),
                failed=False,
                queries={"hitting": 0, "set": 0, "layered": 0, "total": 0},
            )
        record["runtime_s"] = time.perf_counter() - t0
        if opt_size:
            record["opt_size"] = opt_size
            record["size_ratio"] = record["cover_size"] / opt_size if opt_size else None
        trials.append(record)

    return _report(config, trials)


def _cover_record(system: SetSystem, result) -> dict:
    ledger = result.ledger
    return {
        "cover_size": len(result.cover),
        "cover": list(result.cover.set_indices),
        "valid": verify_cover(system, result.cover),
        "failed": result.failed,
        "rounds": len(result.rounds),
        "queries": {
            "hitting": ledger.hitting_queries,
            "set": ledger.set_queries,
            "layered": ledger.layered_queries,
            "total": ledger.total,
        },
    }


def _run_discovery_experiment(config: ExperimentConfig) -> dict:
    graph = resolve_graph(config.source)
    opt_size = None
    if config.compute_opt and graph.n <= EXACT_VERIFICATION_VERTEX_CAP:
        _, opt_size = offline_verification(graph, mode="exact")
    truth = {p: True for p in graph.edges()}
    trials = []
    for seed in sorted(config.seeds):
        t0 = time.perf_counter()
        oracle = LayeredGraphOracle(graph)
        result = run_network_discovery(oracle, alpha=config.alpha, rng_seed=seed)
        discovered_edges = set(result.edges)
        correct = discovered_edges == set(truth)
        record = {
            "seed": seed,
            "algorithm": "discover",
            "valid": correct,
            "query_set_size": len(result.query_set),
            "rounds": len(result.rounds),
            "queries": {
                "hitting": 0,
                "set": 0,
                "layered": result.ledger.layered_queries,
                "total": result.ledger.total,
            },
            "runtime_s": time.perf_counter() - t0,
        }
        if opt_size:
            record["opt_size"] = opt_size
            record["competitive_ratio"] = competitive_ratio(result, opt_size)
        trials.append(record)
    return _report(config, trials)


def _report(config: ExperimentConfig, trials: list[dict]) -> dict:
    return {
        "config": config.to_json_dict(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "trials": trials,
        "aggregates": aggregate_cover_trials(trials),
    }


def aggregate_cover_trials(trials: list[dict]) -> dict:
    """Medians, 95th percentiles, and validity fraction over trial records."""
    if not trials:
        return {}
    agg: dict = {"trials": len(trials)}
    agg["valid_fraction"] = sum(1 for t in trials if t.get("valid")) / len(trials)
    for key in ("cover_size", "query_set_size"):
        values = [t[key] for t in trials if key in t]
        if values:
            agg[f"median_{key}"] = statistics.median(values)
            agg[f"p95_{key}"] = _p95(values)
    totals = [t["queries"]["total"] for t in trials if "queries" in t]
    if totals:
        agg["median_total_queries"] = statistics.median(totals)
        agg["p95_total_queries"] = _p95(totals)
    ratios = [t["size_ratio"] for t in trials if t.get("size_ratio") is not None]
    if ratios:
        agg["median_size_ratio"] = statistics.median(ratios)
    comp = [t["competitive_ratio"] for t in trials if t.get("competitive_ratio") is not None]
    if comp:
        agg["median_competitive_ratio"] = statistics.median(comp)
    constants = [
        t["query_bound_constant"] for t in trials
        if t.get("query_bound_constant") is not None
    ]
    if constants:
        agg["median_query_bound_constant"] = statistics.median(constants)
        agg["max_query_bound_constant"] = max(constants)
    iters = [
        t["iterations_at_success"] for t in trials
        if t.get("iterations_at_success") is not None
    ]
    if iters:
        agg["median_iterations_at_success"] = statistics.median(iters)
    return agg


def _p95(values: list) -> float:
    ordered = sorted(values)
    rank = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return float(ordered[rank])


def sampling_concentration_test(
    alpha: float, log2_n_total: float, s_i: int, trials: int, seed: int = 0
) -> dict:
    """Empirical threshold-crossing rates for the round-sampling guarantee.

    Simulates the per-round Bernoulli sampling on synthetic sets of sizes
    s_i/2, s_i, and s_i/8 and reports how often each crosses the
    alpha*log2(N) shortlist threshold. Large sets (>= s_i/2) should cross
    essentially always, small ones (s_i/8) essentially never.
    """
    if s_i % 8:
        raise ValueError(f"s_i must be divisible by 8, got {s_i}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    p = min(1.0, 4.0 * alpha * log2_n_total / s_i)
    threshold = alpha * log2_n_total
    rng = np.random.Generator(np.random.PCG64(seed))
    rates = {}
    for label, size in (("half", s_i // 2), ("full", s_i), ("eighth", s_i // 8)):
        hits = rng.binomial(size, p, size=trials)
        rates[label] = float(np.mean(hits >= threshold))
    return {
        "alpha": alpha,
        "log2_N": log2_n_total,
        "s_i": s_i,
        "p": p,
        "threshold": threshold,
        "trials": trials,
        "crossing_rates": rates,
    }


def fitted_query_exponent(k_values: list[int], medians: list[float]) -> float:
    """Least-squares slope of log(median queries) against log(planted k)."""
    logs_k = np.log(np.asarray(k_values, dtype=float))
    logs_q = np.log(np.asarray(medians, dtype=float))
    slope, _ = np.polyfit(logs_k, logs_q, 1)
    return float(slope)


def bench_planted_family(
    k_values: list[int],
    seeds: list[int],
    n: int = 512,
    m: int = 512,
    alpha: float = 8.0,
    alpha_net: float = 2.0,
) -> dict:
    """Head-to-head query growth of the two covert algorithms on planted instances.

    For each planted optimum k, runs both algorithms across the seeds,
    validates every cover post hoc, and reports median query totals plus the
    fitted exponent of queries in k. The explicit greedy size (and the exact
    optimum when the family is small enough) ride along as references.
    """
    per_k = []
    pg_medians = []
    net_medians = []
    for k in k_values:
        pg_queries, net_queries, pg_sizes, net_sizes = [], [], [], []
        greedy_sizes = []
        opt_sizes = []
        valid = True
        for seed in seeds:
            system, meta = gen_set_system("planted-cover", n=n, m=m, seed=seed, k=k)
            pg = run_pseudo_greedy(CovertOracle(system), alpha=alpha, rng_seed=seed)
            net = run_weighted_epsilon_net(
                CovertOracle(system), alpha_net=alpha_net, rng_seed=seed
            )
            valid &= verify_cover(system, pg.cover) and verify_cover(system, net.cover)
            pg_queries.append(pg.ledger.total)
            net_queries.append(net.ledger.total)
            pg_sizes.append(len(pg.cover))
            net_sizes.append(len(net.cover))
            greedy_sizes.append(len(greedy_cover(system)))
            if m <= BRUTE_FORCE_SET_CAP:
                opt_sizes.append(len(brute_force_min_cover(system)))
        entry = {
            "k": k,
            "all_valid": valid,
            "pseudo_greedy": {
                "median_queries": statistics.median(pg_queries),
                "median_cover_size": statistics.median(pg_sizes),
            },
            "epsnet": {
                "median_queries": statistics.median(net_queries),
                "median_cover_size": statistics.median(net_sizes),
            },
            "greedy_median_size": statistics.median(greedy_sizes),
        }
        if opt_sizes:
            entry["opt_median_size"] = statistics.median(opt_sizes)
        per_k.append(entry)
        pg_medians.append(statistics.median(pg_queries))
        net_medians.append(statistics.median(net_queries))
    return {
        "n": n,
        "m": m,
        "k_values": list(k_values),
        "seeds": list(seeds),
        "per_k": per_k,
        "pseudo_greedy_exponent": fitted_query_exponent(k_values, pg_medians),
        "epsnet_exponent": fitted_query_exponent(k_values, net_medians),
    }
