"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here in the assertions; nothing is deferred.
"""

import json
import math
import statistics
import time
from fractions import Fraction

import pytest

from covert_setcover.discovery import (
    LayeredGraphOracle,
    competitive_ratio,
    hitting_set_H,
    offline_verification,
    run_network_discovery,
)
from covert_setcover.epsnet import iteration_cap, run_weighted_epsilon_net
from covert_setcover.generators import gen_graph, gen_set_system
from covert_setcover.graphs import Graph, all_pairs, certified_pairs, layered_answer
from covert_setcover.harness import (
    bench_planted_family,
    sampling_concentration_test,
)
from covert_setcover.oracle import CovertOracle
from covert_setcover.pseudo_greedy import run_pseudo_greedy
from covert_setcover.setsystem import (
    brute_force_min_cover,
    greedy_cover,
    verify_cover,
)

from oracles import apportioned_weights, full_info_cover_trace, harmonic

G6 = Graph.from_edges(6, [(1, 2), (1, 3), (3, 4), (3, 5), (4, 6), (5, 6)])


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def _mixed_small_instance(seed, max_m=12):
    model = ["uniform-random", "planted-cover", "skewed"][seed % 3]
    n = 4 + seed % 13
    m = 2 + seed % (max_m - 1)
    if model == "planted-cover":
        k = 1 + seed % min(4, n, m)
        return gen_set_system(model, n=n, m=m, seed=seed, k=k)
    return gen_set_system(model, n=n, m=m, seed=seed, density=0.15 + (seed % 5) * 0.1)


@pytest.fixture(scope="module")
def small_greedy_runs():
    """200 seeded instances with n' <= 16, m' <= 12: greedy cover + exact optimum."""
    t0 = time.perf_counter()
    runs = []
    for seed in range(200):
        system, meta = _mixed_small_instance(seed)
        if not meta["coverable"]:
            continue
        runs.append((system, greedy_cover(system), brute_force_min_cover(system)))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_1_greedy_harmonic_bound(small_greedy_runs):
    runs, elapsed = small_greedy_runs
    within = sum(
        Fraction(len(cover)) <= harmonic(system.universe_size) * len(opt)
        for system, cover, opt in runs
    )
    ok = within == len(runs) and len(runs) >= 100 and elapsed < 10.0
    _report(
        1,
        "greedy cover within H(n') x optimum on every coverable instance",
        ok,
        f"{within}/{len(runs)} within bound, {elapsed:.2f}s",
    )


def test_criterion_2_apportionment_identity(small_greedy_runs):
    runs, _ = small_greedy_runs
    exact = sum(
        sum(apportioned_weights(system, cover).values()) == len(cover)
        for system, cover, _ in runs
    )
    _report(
        2,
        "apportioned weights sum exactly to the cover size",
        exact == len(runs),
        f"{exact}/{len(runs)} exact",
    )


def test_criterion_3_pseudo_greedy_validity_at_scale():
    t0 = time.perf_counter()
    runs = 200
    valid = 0
    undetected_failures = 0
    for seed in range(runs):
        system, _ = gen_set_system("planted-cover", n=512, m=64, seed=seed, k=4)
        result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=seed)
        post_hoc_valid = verify_cover(system, result.cover)
        # Independent coverage recomputation: post-hoc validation must flag
        # exactly the runs whose union falls short of the universe.
        union = set()
        for s in result.cover.set_indices:
            union.update(system.sets[s - 1])
        truly_valid = len(union) == system.universe_size
        valid += truly_valid
        if not truly_valid and post_hoc_valid:
            undetected_failures += 1
    elapsed = time.perf_counter() - t0
    ok = valid >= 0.95 * runs and undetected_failures == 0 and elapsed < 30.0
    _report(
        3,
        "covert covers on n'=512 instances valid in at least 95% of 200 runs",
        ok,
        f"{valid}/{runs} valid, {undetected_failures} undetected failures, {elapsed:.2f}s",
    )


def test_criterion_4_pseudo_greedy_approximation():
    within = 0
    runs = 50
    for seed in range(runs):
        system, meta = _mixed_small_instance(seed, max_m=10)
        if not meta["coverable"]:
            within += 1  # only coverable instances are scored
            continue
        result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=seed)
        opt = len(brute_force_min_cover(system))
        bound = 8 * harmonic(system.universe_size) * opt
        if verify_cover(system, result.cover) and Fraction(len(result.cover)) <= bound:
            within += 1
    ok = within >= 0.95 * runs
    _report(
        4,
        "covert cover within 8 x H(n') x optimum in at least 95% of 50 runs",
        ok,
        f"{within}/{runs} within bound",
    )


def test_criterion_5_full_sample_degeneracy():
    mismatches = 0
    checked = 0
    for seed in range(20):
        k = (2, 3, 4, 6, 8)[seed % 5]
        system, _ = gen_set_system("planted-cover", n=128, m=32, seed=seed, k=k)
        sets = [sorted(s) for s in system.sets]
        ref_rounds, ref_cover = full_info_cover_trace(sets, 128, alpha=8.0)
        result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=seed)
        checked += 1
        got = [
            {
                "i": r.i,
                "n_i": r.n_i,
                "s_i": r.s_i,
                "sample": r.sample,
                "shortlist": r.shortlist,
                "chosen": r.chosen,
                "base_case": r.base_case,
            }
            for r in result.rounds
        ]
        want = [
            {
                "i": r["i"],
                "n_i": r["n_i"],
                "s_i": r["s_i"],
                "sample": tuple(r["sample"]),
                "shortlist": tuple(r["shortlist"]),
                "chosen": tuple(r["chosen"]),
                "base_case": r["base_case"],
            }
            for r in ref_rounds
        ]
        if got != want or list(result.cover.set_indices) != ref_cover:
            mismatches += 1
    _report(
        5,
        "clipped-sampling runs equal the deterministic threshold-pass trace",
        mismatches == 0 and checked == 20,
        f"{checked - mismatches}/{checked} traces identical",
    )


def test_criterion_6_sampling_concentration():
    t0 = time.perf_counter()
    stats = sampling_concentration_test(alpha=8.0, log2_n_total=20.0, s_i=1024)
    elapsed = time.perf_counter() - t0
    rates = stats["crossing_rates"]
    ok = rates["half"] >= 0.99 and rates["eighth"] <= 0.01 and elapsed < 5.0
    _report(
        6,
        "threshold crossing: size s/2 in >= 99% of trials, size s/8 in <= 1%",
        ok,
        f"half={rates['half']:.4f}, eighth={rates['eighth']:.4f}, {elapsed:.2f}s",
    )


def test_criterion_7_query_accounting():
    bad = 0
    runs = 0
    configs = [
        dict(n=512, m=64, k=4),
        dict(n=256, m=32, k=3),
        dict(n=128, m=16, k=2),
    ]
    for cfg in configs:
        for seed in range(10):
            system, _ = gen_set_system("planted-cover", seed=seed, **cfg)
            result = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=seed)
            runs += 1
            hitting = sum(
                r.n_i if r.base_case else len(r.sample) for r in result.rounds
            )
            set_q = sum(0 if r.base_case else len(r.chosen) for r in result.rounds)
            if (
                result.ledger.hitting_queries != hitting
                or result.ledger.set_queries != set_q
                or result.ledger.total != hitting + set_q
            ):
                bad += 1
    _report(
        7,
        "ledger totals reconstruct exactly from the round trace",
        bad == 0,
        f"{runs - bad}/{runs} exact",
    )


def test_criterion_8_network_fixtures():
    t0 = time.perf_counter()
    result = run_network_discovery(LayeredGraphOracle(G6), alpha=8.0, rng_seed=0)
    g6_exact = result.edges == G6.edges() and len(result.non_edges) == 9
    _, g6_opt = offline_verification(G6, mode="exact")
    complete_ok = all(
        offline_verification(gen_graph("complete", n=n), mode="exact")[1] == n - 1
        for n in range(4, 9)
    )
    path_ok = all(
        offline_verification(gen_graph("path", n=n), mode="exact")[1] == 1
        for n in range(4, 11)
    )
    elapsed = time.perf_counter() - t0
    ok = g6_exact and g6_opt == 2 and complete_ok and path_ok and elapsed < 10.0
    _report(
        8,
        "fixtures: six-vertex graph rediscovered with optimum 2; complete n-1; path 1",
        ok,
        f"g6_opt={g6_opt}, {elapsed:.2f}s",
    )


def _duality_fixture_graphs():
    graphs = [G6]
    graphs += [gen_graph("complete", n=n) for n in range(4, 9)]
    graphs += [gen_graph("path", n=n) for n in range(4, 11)]
    graphs += [gen_graph("star", n=7), gen_graph("cycle", n=8)]
    graphs += [gen_graph("grid", rows=2, cols=4), gen_graph("grid", rows=3, cols=3)]
    graphs += [gen_graph("er-connected", n=10, p=0.3, seed=s) for s in range(3)]
    return [g for g in graphs if g.n <= 10]


def test_criterion_9_hitting_set_duality():
    violations = 0
    triples = 0
    for graph in _duality_fixture_graphs():
        answers = {x: certified_pairs(layered_answer(graph, x)) for x in range(1, graph.n + 1)}
        oracle = LayeredGraphOracle(graph)
        for u, v in all_pairs(graph.n):
            hset = hitting_set_H(u, v, oracle.layered_query)
            for x in range(1, graph.n + 1):
                triples += 1
                if (x in hset) != ((u, v) in answers[x]):
                    violations += 1
    _report(
        9,
        "x in H(u,v) exactly when a query at x certifies {u,v}",
        violations == 0,
        f"{triples} triples checked, {violations} violations",
    )


def test_criterion_10_competitive_trend():
    details = []
    ok = True
    for n in (8, 10, 12):
        ratios = []
        for seed in range(34):
            graph = gen_graph("er-connected", n=n, p=0.35, seed=seed)
            result = run_network_discovery(LayeredGraphOracle(graph), alpha=8.0, rng_seed=seed)
            _, opt = offline_verification(graph, mode="exact")
            ratios.append(competitive_ratio(result, opt))
        median = statistics.median(ratios)
        bound = 16 * math.log2(n) ** 2
        details.append(f"n={n}: median={median:.1f} bound={bound:.0f}")
        ok &= math.isfinite(median) and median <= bound
    _report(10, "median competitive ratio within 16 x log2(n)^2", ok, "; ".join(details))


def test_criterion_11_epsnet_baseline():
    all_valid = True
    caps_respected = True
    for seed in range(100):
        system, _ = gen_set_system("planted-cover", n=16, m=8, seed=seed, k=3)
        result = run_weighted_epsilon_net(CovertOracle(system), rng_seed=seed)
        all_valid &= (not result.failed) and verify_cover(system, result.cover)
        caps_respected &= all(
            t.iterations <= t.iteration_cap == iteration_cap(t.k, 8)
            for t in result.rounds
        )
    bench = bench_planted_family([1, 2, 4, 8], seeds=[0, 1, 2, 3, 4], n=512, m=512)
    exponent = bench["epsnet_exponent"]
    ok = all_valid and caps_respected and exponent >= 1.5
    _report(
        11,
        "baseline valid with capped iterations; query growth superlinear in optimum",
        ok,
        f"epsnet exponent={exponent:.2f} vs sampled covert {bench['pseudo_greedy_exponent']:.2f}",
    )


def test_criterion_12_determinism():
    system, _ = gen_set_system("planted-cover", n=512, m=64, seed=9, k=4)
    pg_a = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=9)
    pg_b = run_pseudo_greedy(CovertOracle(system), alpha=8.0, rng_seed=9)
    pg_same = (
        pg_a.cover == pg_b.cover
        and pg_a.rounds == pg_b.rounds
        and pg_a.ledger.to_json_dict() == pg_b.ledger.to_json_dict()
    )

    small, _ = gen_set_system("planted-cover", n=16, m=8, seed=9, k=3)
    net_a = run_weighted_epsilon_net(CovertOracle(small), rng_seed=9)
    net_b = run_weighted_epsilon_net(CovertOracle(small), rng_seed=9)
    net_same = (
        net_a.cover == net_b.cover
        and net_a.rounds == net_b.rounds
        and net_a.ledger.to_json_dict() == net_b.ledger.to_json_dict()
    )

    graph = gen_graph("er-connected", n=10, p=0.3, seed=9)
    d_a = run_network_discovery(LayeredGraphOracle(graph), alpha=8.0, rng_seed=9)
    d_b = run_network_discovery(LayeredGraphOracle(graph), alpha=8.0, rng_seed=9)
    d_same = (
        d_a.statuses == d_b.statuses
        and d_a.query_set == d_b.query_set
        and d_a.rounds == d_b.rounds
        and json.dumps(d_a.to_json_dict(), sort_keys=True)
        == json.dumps(d_b.to_json_dict(), sort_keys=True)
    )
    _report(
        12,
        "seeded reruns reproduce covers, traces, and ledgers bit for bit",
        pg_same and net_same and d_same,
        f"pg={pg_same}, epsnet={net_same}, discovery={d_same}",
    )
