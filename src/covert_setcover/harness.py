"""Seeded experiment runner, statistical checks, and benchmark comparisons.

Reports are plain dicts ready for JSON: a config echo, one record per
trial (sorted by seed), and aggregates recomputable from the records. A
record is the result's own ``to_json_dict()`` (cover or query set, round
trace, ledger) plus the seed, the algorithm, the wall time and the
harness's judgements: post-hoc validity, the optimum and the ratio to it,
and the algorithm's measured constant. Wall-clock runtimes and the single
timestamp field are the only nondeterministic entries, so golden-file
comparisons drop exactly those.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from fractions import Fraction

from .discovery import (
    EXACT_VERIFICATION_VERTEX_CAP,
    LayeredGraphOracle,
    competitive_ratio,
    offline_verification,
    run_network_discovery,
)
from .epsnet import DEFAULT_ALPHA_NET, run_weighted_epsilon_net
from .errors import _require, require_count, require_instance, require_run_constants, require_theta
from .generators import gen_graph, gen_set_system
from .graphs import Graph, graph_from_json_dict
from .oracle import CovertOracle
from .pseudo_greedy import DEFAULT_ALPHA, run_pseudo_greedy
from .results import CoverResult
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
                and all(type(s) is int for s in self.seeds)):
            raise ValueError(f"seeds must be a nonempty list of ints, got {self.seeds!r}")
        require_instance("source", self.source, dict)
        require_instance("compute_opt", self.compute_opt, bool)
        require_run_constants(alpha=self.alpha, alpha_net=self.alpha_net)
        require_theta(self.theta)


def _resolve(source: dict, parse, generate):
    """Materialize the instance a config points at: a JSON file or a generator call.

    A file source needs a str "path" (``open`` takes an int as a descriptor);
    a generator source passes its keys other than "kind" to ``generate`` as
    keyword arguments. A bad, missing, unknown or misspelled key, or a file
    nested too deeply for ``json.load``, raises ``ValueError``.
    """
    kind = source.get("kind")
    if kind == "file":
        if not isinstance(source.get("path"), str):
            raise ValueError(f'a file instance source needs a str "path", got {source!r}')
        with open(source["path"]) as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError(f"{source['path']} is nested too deeply to parse") from None
        return parse(doc)
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


def _cover_record(system: SetSystem, result: CoverResult, opt: int | None) -> dict:
    """The result's report plus its post-hoc validity and its size's ratio to ``opt``."""
    record = {**result.to_json_dict(), "valid": verify_cover(system, result.cover)}
    if opt:
        record["opt_size"] = opt
        record["size_ratio"] = len(result.cover) / opt
    return record


def _pseudo_greedy_trial(system: SetSystem, config: ExperimentConfig, seed: int, opt):
    result = run_pseudo_greedy(CovertOracle(system), alpha=config.alpha, rng_seed=seed)
    record = _cover_record(system, result, opt)
    if result.cover:
        # Measured constant of the total <= C * log2(N)^2 * |cover| bound.
        log2_n = math.log2(system.universe_size + system.n_sets)
        record["query_bound_constant"] = result.ledger.total / (log2_n**2 * len(result.cover))
    return record


def _epsnet_trial(system: SetSystem, config: ExperimentConfig, seed: int, opt):
    result = run_weighted_epsilon_net(CovertOracle(system), alpha_net=config.alpha_net,
                                      rng_seed=seed)
    record = _cover_record(system, result, opt)
    successes = [t for t in result.rounds if t.succeeded]
    record["iterations_at_success"] = successes[0].iterations if successes else None
    return record


def _offline_trial(solve):
    """A trial of an offline algorithm ``solve(system, config) -> Cover``: no rounds, no bill."""
    def trial(system: SetSystem, config: ExperimentConfig, seed: int, opt):
        return _cover_record(system, CoverResult(cover=solve(system, config)), opt)
    return trial


def _discover_trial(graph: Graph, config: ExperimentConfig, seed: int, opt):
    result = run_network_discovery(LayeredGraphOracle(graph), alpha=config.alpha, rng_seed=seed)
    record = {**result.to_json_dict(), "valid": result.edges == graph.edges()}
    if opt:
        record["opt_size"] = opt
        record["competitive_ratio"] = competitive_ratio(result, opt)
    return record


# name -> (resolve the source to an instance, exact optimum or None, one trial).
# A trial runs one seed on the instance and returns its record; the record's
# validity is checked against the hidden instance, whatever the algorithm
# believed.
ALGORITHMS = {
    "pseudo-greedy": (resolve_system, _cover_optimum, _pseudo_greedy_trial),
    "epsnet": (resolve_system, _cover_optimum, _epsnet_trial),
    "greedy": (resolve_system, _cover_optimum,
               _offline_trial(lambda system, config: greedy_cover(system, theta=config.theta))),
    "bruteforce": (resolve_system, _cover_optimum,
                   _offline_trial(lambda system, config: brute_force_min_cover(system))),
    "discover": (resolve_graph, _discovery_optimum, _discover_trial),
}


def run_trials(config: ExperimentConfig, instance, opt):
    """Yield the record of each seed of a config on its resolved instance, in sorted seed order.

    ``opt`` is the instance's exact optimum, or None; each record carries the
    seed, the algorithm and the trial's wall time next to what the
    algorithm's trial put in it.
    """
    trial = ALGORITHMS[config.algorithm][2]
    for seed in sorted(config.seeds):
        t0 = time.perf_counter()
        record = trial(instance, config, seed, opt)
        runtime = time.perf_counter() - t0
        yield {"seed": seed, "algorithm": config.algorithm, **record, "runtime_s": runtime}


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute all trials of a config and assemble the report.

    The instance is resolved and, with ``compute_opt``, its optimum computed
    once, then shared by every seed's trial.
    """
    config.validate()
    resolve, optimum, _ = ALGORITHMS[config.algorithm]
    instance = resolve(config.source)
    opt = optimum(instance) if config.compute_opt else None
    trials = list(run_trials(config, instance, opt))
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
    columns = {
        "cover_size": [t["cover_size"] for t in trials if "cover_size" in t],
        "query_set_size": [len(t["query_set"]) for t in trials if "query_set" in t],
        "total_queries": [t["ledger"]["total"] for t in trials],
    }
    for key, values in columns.items():
        if values:
            agg[f"median_{key}"] = statistics.median(values)
            agg[f"p95_{key}"] = _p95(values)
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
    """Least-squares slope of log(median queries) against log(planted k).

    Exact over the float logs and rounded once, so every Python gives the same float.
    """
    _require(len(set(k_values)) >= 2 and len(medians) == len(k_values),
             f"need two distinct k values and one median each, got {k_values} and {medians}")
    xs, ys = [Fraction(math.log(k)) for k in k_values], [Fraction(math.log(q)) for q in medians]
    x_bar = sum(xs) / len(xs)
    dxs = [x - x_bar for x in xs]  # they sum to 0 exactly, so ys need no centring
    return float(sum(dx * y for dx, y in zip(dxs, ys)) / sum(dx * dx for dx in dxs))


def bench_planted_family(
    k_values: list[int],
    seeds: list[int],
    n: int = 512,
    m: int = 512,
    alpha: float = DEFAULT_ALPHA,
    alpha_net: float = DEFAULT_ALPHA_NET,
) -> dict:
    """Head-to-head query growth of the two covert algorithms on planted instances.

    For each planted optimum k, generates each seed's instance and its exact
    optimum once and runs one single-seed config per algorithm (pseudo-greedy,
    epsnet, greedy) on it through :func:`run_trials`. Each ``per_k`` entry
    holds each algorithm's ``aggregate_cover_trials`` over the seeds, plus
    the median optimum when every instance has one; the exponents are fitted
    on median total queries and need a list of at least two distinct k
    values, each a count listed once, and a nonempty list of seeds.
    """
    require_instance("k_values", k_values, list)
    require_instance("seeds", seeds, list)
    for k in k_values:
        require_count("k", k)
    if not 2 <= len(set(k_values)) == len(k_values):
        raise ValueError(f"need at least two distinct k values, none repeated, got {k_values}")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    per_k = []
    for k in k_values:
        trials = {"pseudo-greedy": [], "epsnet": [], "greedy": []}
        opt_sizes = []
        for seed in seeds:
            source = {"kind": "generate", "model": "planted-cover", "n": n, "m": m, "k": k,
                      "seed": seed}
            system = resolve_system(source)
            opt = _cover_optimum(system)
            opt_sizes.append(opt)
            for name, runs in trials.items():
                config = ExperimentConfig(name, [seed], source, alpha=alpha, alpha_net=alpha_net,
                                          compute_opt=True)
                runs.extend(run_trials(config, system, opt))
        entry = {"k": k, **{name: aggregate_cover_trials(runs) for name, runs in trials.items()}}
        if None not in opt_sizes:
            entry["opt_median_size"] = statistics.median(opt_sizes)
        per_k.append(entry)
    return {
        "n": n,
        "m": m,
        "k_values": list(k_values),
        "seeds": list(seeds),
        "per_k": per_k,
        "pseudo_greedy_exponent": fitted_query_exponent(
            k_values, [e["pseudo-greedy"]["median_total_queries"] for e in per_k]
        ),
        "epsnet_exponent": fitted_query_exponent(
            k_values, [e["epsnet"]["median_total_queries"] for e in per_k]
        ),
    }
