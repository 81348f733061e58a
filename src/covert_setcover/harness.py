"""Seeded experiment runner, statistical checks, and benchmark comparisons.

Reports are plain dicts ready for JSON: a config echo, one record per
trial (sorted by seed), and aggregates recomputable from the records.
Wall-clock runtimes and the single timestamp field are the only
nondeterministic entries, so golden-file comparisons drop exactly those.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
import statistics
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from .discovery import (
    EXACT_VERIFICATION_VERTEX_CAP,
    LayeredGraphOracle,
    competitive_ratio,
    offline_verification,
    run_network_discovery,
)
from .epsnet import DEFAULT_ALPHA_NET, run_weighted_epsilon_net
from .errors import require_run_constants
from .generators import gen_graph, gen_set_system
from .graphs import Graph, graph_from_json_dict
from .oracle import CovertOracle, QueryLedger
from .pseudo_greedy import DEFAULT_ALPHA, run_pseudo_greedy
from .setsystem import (
    BRUTE_FORCE_SET_CAP,
    SetSystem,
    brute_force_min_cover,
    from_json_dict,
    greedy_cover,
    verify_cover,
)


@dataclass
class ExperimentConfig:
    """What to run: algorithm, instance source, constants, and seeds."""

    algorithm: str
    seeds: list[int]
    source: dict = field(default_factory=dict)
    alpha: float = DEFAULT_ALPHA
    theta: float = 1.0
    alpha_net: float = DEFAULT_ALPHA_NET
    compute_opt: bool = False

    def validate(self) -> None:
        """Reject a field of the wrong type or value with a ``ValueError`` naming it."""
        if not isinstance(self.algorithm, str) or self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not (isinstance(self.seeds, list) and self.seeds
                and all(isinstance(s, int) and not isinstance(s, bool) for s in self.seeds)):
            raise ValueError(f"seeds must be a nonempty list of ints, got {self.seeds!r}")
        if not isinstance(self.source, dict):
            raise ValueError(f"source must be a dict, got {self.source!r}")
        if not isinstance(self.compute_opt, bool):
            raise ValueError(f"compute_opt must be a bool, got {self.compute_opt!r}")
        for name in ("alpha", "theta", "alpha_net"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")


def _resolve(source: dict, parse, generate):
    """Materialize the instance a config points at: a JSON file or a generator call.

    A file source needs a "path"; a generator source passes its keys other
    than "kind" to ``generate`` as keyword arguments. A missing, unknown or
    misspelled key raises ``ValueError`` naming it.
    """
    kind = source.get("kind")
    if kind == "file":
        if "path" not in source:
            raise ValueError(f'a file instance source needs a "path" key, got {source!r}')
        with open(source["path"]) as fh:
            return parse(json.load(fh))
    if kind == "generate":
        params = {key: value for key, value in source.items() if key != "kind"}
        try:
            inspect.signature(generate).bind(**params)
        except TypeError as exc:
            raise ValueError(f"generator source {source!r}: {exc}") from None
        return generate(**params)
    raise ValueError(f"unsupported instance source {source!r}")


def resolve_system(source: dict) -> SetSystem:
    # gen_set_system returns (system, meta); a parsed file gets the same shape.
    return _resolve(source, lambda doc: (from_json_dict(doc), None), gen_set_system)[0]


def resolve_graph(source: dict) -> Graph:
    return _resolve(source, graph_from_json_dict, gen_graph)


def _cover_optimum(system: SetSystem) -> int | None:
    """Exact optimum size, or None when the family is over the brute-force cap."""
    if system.n_sets > BRUTE_FORCE_SET_CAP:
        return None
    return len(brute_force_min_cover(system))


def _discovery_optimum(graph: Graph) -> int | None:
    if graph.n > EXACT_VERIFICATION_VERTEX_CAP:
        return None
    return offline_verification(graph, mode="exact")[1]


def _queries(ledger: QueryLedger) -> dict:
    return {**ledger.counts, "total": ledger.total}


def _cover_record(
    system: SetSystem, cover, ledger: QueryLedger, opt: int | None, **fields
) -> dict:
    """Size, indices, post-hoc validity and query bill of a cover, plus its ratio to ``opt``."""
    record = {
        "cover_size": len(cover),
        "cover": list(cover.set_indices),
        "valid": verify_cover(system, cover),
        **fields,
        "queries": _queries(ledger),
    }
    if opt:
        record["opt_size"] = opt
        record["size_ratio"] = len(cover) / opt
    return record


def _pseudo_greedy_trial(system: SetSystem, config: ExperimentConfig, seed: int, opt):
    result = run_pseudo_greedy(CovertOracle(system), alpha=config.alpha, rng_seed=seed)
    record = _cover_record(system, result.cover, result.ledger, opt,
                           failed=result.failed, rounds=len(result.rounds))
    if record["cover_size"]:
        # Measured constant of the total <= C * log2(N)^2 * |cover| bound.
        log2_n = math.log2(system.universe_size + system.n_sets)
        record["query_bound_constant"] = record["queries"]["total"] / (
            log2_n**2 * record["cover_size"]
        )
    return record, result


def _epsnet_trial(system: SetSystem, config: ExperimentConfig, seed: int, opt):
    result = run_weighted_epsilon_net(CovertOracle(system), alpha_net=config.alpha_net,
                                      rng_seed=seed)
    record = _cover_record(system, result.cover, result.ledger, opt,
                           failed=result.failed, rounds=len(result.rounds))
    successes = [t for t in result.rounds if t.succeeded]
    record["iterations_at_success"] = successes[0].iterations if successes else None
    return record, result


def _greedy_trial(system: SetSystem, config: ExperimentConfig, seed: int, opt):
    cover = greedy_cover(system, theta=config.theta)
    return _cover_record(system, cover, QueryLedger(), opt, failed=False), cover


def _bruteforce_trial(system: SetSystem, config: ExperimentConfig, seed: int, opt):
    cover = brute_force_min_cover(system)
    return _cover_record(system, cover, QueryLedger(), opt, failed=False), cover


def _discover_trial(graph: Graph, config: ExperimentConfig, seed: int, opt):
    result = run_network_discovery(LayeredGraphOracle(graph), alpha=config.alpha, rng_seed=seed)
    record = {
        "valid": result.edges == graph.edges(),
        "query_set_size": len(result.query_set),
        "rounds": len(result.rounds),
        "queries": _queries(result.ledger),
    }
    if opt:
        record["opt_size"] = opt
        record["competitive_ratio"] = competitive_ratio(result, opt)
    return record, result


# name -> (resolve the source to an instance, exact optimum or None, one trial).
# A trial runs one seed on the instance and returns (record, result); the
# record's validity is checked against the hidden instance, whatever the
# algorithm believed.
ALGORITHMS = {
    "pseudo-greedy": (resolve_system, _cover_optimum, _pseudo_greedy_trial),
    "epsnet": (resolve_system, _cover_optimum, _epsnet_trial),
    "greedy": (resolve_system, _cover_optimum, _greedy_trial),
    "bruteforce": (resolve_system, _cover_optimum, _bruteforce_trial),
    "discover": (resolve_graph, _discovery_optimum, _discover_trial),
}


def run_trials(config: ExperimentConfig):
    """Yield (record, result) for each seed of a config, in sorted seed order.

    The instance is resolved and, with ``compute_opt``, its optimum computed
    once; each record carries the seed, the algorithm and the trial's wall
    time next to what the algorithm's trial put in it.
    """
    config.validate()
    resolve, optimum, trial = ALGORITHMS[config.algorithm]
    instance = resolve(config.source)
    opt = optimum(instance) if config.compute_opt else None
    for seed in sorted(config.seeds):
        t0 = time.perf_counter()
        record, result = trial(instance, config, seed, opt)
        runtime = time.perf_counter() - t0
        yield {"seed": seed, "algorithm": config.algorithm, **record, "runtime_s": runtime}, result


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all trials of a config and assemble the report."""
    trials = [record for record, _ in run_trials(config)]
    return {
        "config": asdict(config),
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
    optional = ("size_ratio", "competitive_ratio", "query_bound_constant", "iterations_at_success")
    for key in optional:
        values = [t[key] for t in trials if t.get(key) is not None]
        if values:
            agg[f"median_{key}"] = statistics.median(values)
            if key == "query_bound_constant":
                agg["max_query_bound_constant"] = max(values)
    return agg


def _p95(values: list) -> float:
    ordered = sorted(values)
    rank = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return float(ordered[rank])


def binomial_tail(size: int, p: float, threshold: float) -> float:
    """P[Binom(size, p) >= threshold], exact up to float rounding.

    Weights the counts in mean +- (40 sd + 40) by the pmf's ratio recurrence
    outward from the mode and returns the weight at or above the threshold
    over the total. Bernstein's inequality leaves under 2 * e**-60 of the
    mass outside that window (40 sd alone can miss 2e-7 when the variance
    is tiny), so a threshold past either end is 0 or 1 with no sum. Unlike
    ``math.lgamma`` terms, the ratios keep full precision at any size.
    """
    if threshold > size:
        return 0.0
    k_min = math.ceil(threshold)
    if k_min <= 0 or p >= 1.0:
        return 1.0
    mean = size * p
    reach = 40.0 * math.sqrt(mean * (1.0 - p)) + 40.0
    if k_min > mean + reach:
        return 0.0
    if k_min <= mean - reach:
        return 1.0
    lo, hi = max(0, math.floor(mean - reach)), min(size, math.ceil(mean + reach))
    mode, odds = min(size, math.floor((size + 1) * p)), p / (1.0 - p)
    weights = {mode: 1.0}
    for k in range(mode, hi):
        weights[k + 1] = weights[k] * (size - k) / (k + 1) * odds
    for k in range(mode, lo, -1):
        weights[k - 1] = weights[k] * k / ((size - k + 1) * odds)
    tail = math.fsum(w for k, w in weights.items() if k >= k_min)
    return tail / math.fsum(weights.values())


def sampling_concentration_test(alpha: float, log2_n_total: float, s_i: int) -> dict:
    """Exact threshold-crossing rates for the round-sampling guarantee.

    A set with ``size`` uncovered elements, each sampled with the round's
    probability p = min(1, 4*alpha*log2(N)/s_i), crosses the alpha*log2(N)
    shortlist threshold with probability P[Binom(size, p) >= threshold].
    Reports that tail for sizes s_i/2, s_i and s_i/8: large sets
    (>= s_i/2) should cross essentially always, small ones (s_i/8)
    essentially never. ``alpha`` and ``log2_n_total`` must be finite and
    positive reals, not bools, whose product is finite, and ``s_i`` an int
    and a positive multiple of 8.
    """
    require_run_constants(alpha=alpha, log2_n_total=log2_n_total)
    if not isinstance(s_i, int) or s_i < 8 or s_i % 8:
        raise ValueError(f"s_i must be a positive multiple of 8, got {s_i}")
    threshold = alpha * log2_n_total
    if not math.isfinite(threshold):
        raise ValueError(f"alpha * log2_n_total must be finite, got {alpha!r} * {log2_n_total!r}")
    p = min(1.0, 4.0 * threshold / s_i)
    sizes = (("half", s_i // 2), ("full", s_i), ("eighth", s_i // 8))
    return {
        "alpha": alpha,
        "log2_N": log2_n_total,
        "s_i": s_i,
        "p": p,
        "threshold": threshold,
        "crossing_rates": {label: binomial_tail(size, p, threshold) for label, size in sizes},
    }


def fitted_query_exponent(k_values: list[int], medians: list[float]) -> float:
    """Least-squares slope of log(median queries) against log(planted k)."""
    logs_k, logs_q = [math.log(k) for k in k_values], [math.log(q) for q in medians]
    return statistics.linear_regression(logs_k, logs_q).slope


def bench_planted_family(
    k_values: list[int],
    seeds: list[int],
    n: int = 512,
    m: int = 512,
    alpha: float = DEFAULT_ALPHA,
    alpha_net: float = DEFAULT_ALPHA_NET,
) -> dict:
    """Head-to-head query growth of the two covert algorithms on planted instances.

    For each planted optimum k, generates each seed's instance once, runs the
    table's pseudo-greedy, epsnet and greedy trials on it, and reports median
    query totals plus the fitted exponent of queries in k. The explicit
    greedy size (and the exact optimum when the family is small enough) ride
    along as references; ``all_valid`` covers every trial. The exponents
    need at least two distinct k values and at least one seed.
    """
    if len(set(k_values)) < 2:
        raise ValueError(f"need at least two distinct k values to fit an exponent, got {k_values}")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    # The trials read only the constants; each is called by name below.
    config = ExperimentConfig(algorithm="pseudo-greedy", seeds=list(seeds),
                              alpha=alpha, alpha_net=alpha_net)
    per_k = []
    for k in k_values:
        records = {"pseudo-greedy": [], "epsnet": [], "greedy": []}
        for seed in seeds:
            system, _ = gen_set_system("planted-cover", n=n, m=m, seed=seed, k=k)
            opt = _cover_optimum(system)
            for name, runs in records.items():
                _, _, trial = ALGORITHMS[name]
                runs.append(trial(system, config, seed, opt)[0])
        opt_sizes = [r["opt_size"] for r in records["greedy"] if "opt_size" in r]

        def medians(name):
            runs = records[name]
            return {
                "median_queries": statistics.median(r["queries"]["total"] for r in runs),
                "median_cover_size": statistics.median(r["cover_size"] for r in runs),
            }

        entry = {
            "k": k,
            "all_valid": all(r["valid"] for runs in records.values() for r in runs),
            "pseudo_greedy": medians("pseudo-greedy"),
            "epsnet": medians("epsnet"),
            "greedy_median_size": statistics.median(r["cover_size"] for r in records["greedy"]),
        }
        if opt_sizes:
            entry["opt_median_size"] = statistics.median(opt_sizes)
        per_k.append(entry)
    return {
        "n": n,
        "m": m,
        "k_values": list(k_values),
        "seeds": list(seeds),
        "per_k": per_k,
        "pseudo_greedy_exponent": fitted_query_exponent(
            k_values, [e["pseudo_greedy"]["median_queries"] for e in per_k]
        ),
        "epsnet_exponent": fitted_query_exponent(
            k_values, [e["epsnet"]["median_queries"] for e in per_k]
        ),
    }
