"""Seeded instance and graph generators for experiments and fixtures.

Every generator is deterministic per (model, params, seed): one
``random.Random(seed)`` drives all draws in a fixed order.
"""

from __future__ import annotations

import random
from functools import partial
from itertools import repeat
from math import ceil, log
from operator import getitem, gt
from typing import Sequence

from .errors import MAX_INSTANCE_ENTRIES, _require, _require_ints, require_count, require_size
from .graphs import Graph, all_pairs
from .setsystem import SetSystem, build_set_system

GRAPH_MODELS = ("path", "cycle", "complete", "star", "er-connected", "grid")
SET_MODELS = ("uniform-random", "planted-cover", "skewed")

ER_RETRY_BUDGET = 1000
# er-connected refuses a p at which the budget's draws find a connected sample
# with probability below this (a Chernoff bound on the edge count, or an
# estimate from the expected number of isolated vertices).
ER_SUCCESS_FLOOR = 1e-9


def gen_graph(model: str, n: int = 0, seed: int = 0, p: float = 0.25,
              rows: int = 0, cols: int = 0) -> Graph:
    """Build a named-family or random connected graph.

    ``er-connected`` resamples an Erdos-Renyi graph until it is connected (at
    most ER_RETRY_BUDGET attempts, then ValueError). It raises before any draw
    at p = 0, or where a connected draw has probability below ER_SUCCESS_FLOOR
    by a Chernoff bound on the n - 1 edges it needs, or by e^-mu, the chance of
    no isolated vertex for mu = n (1 - p)^(n - 1). ``grid`` takes rows x cols,
    numbered row-major. Every parameter is checked, whatever the model, and
    the vertex count may be at most ``MAX_INSTANCE_SIZE``.
    """
    _require_ints(n=n, seed=seed, rows=rows, cols=cols)
    require_size("n", n)
    require_size("rows*cols", rows * cols)
    _require_probability("p", p)
    if model == "path":
        _require(n >= 2, "path needs n >= 2")
        return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])
    if model == "cycle":
        _require(n >= 3, "cycle needs n >= 3")
        return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])
    if model == "complete":
        _require(n >= 2, "complete needs n >= 2")
        return Graph.from_edges(n, all_pairs(n))
    if model == "star":
        _require(n >= 2, "star needs n >= 2")
        return Graph.from_edges(n, [(1, i) for i in range(2, n + 1)])
    if model == "grid":
        _require(rows >= 1 and cols >= 1 and rows * cols >= 2, "grid needs rows*cols >= 2")
        edges = []
        for r in range(rows):
            for c in range(cols):
                v = r * cols + c + 1
                if c + 1 < cols:
                    edges.append((v, v + 1))
                if r + 1 < rows:
                    edges.append((v, v + cols))
        return Graph.from_edges(rows * cols, edges)
    if model == "er-connected":
        _require(n >= 2, "er-connected needs n >= 2")
        _require(p > 0, f"er-connected at p = 0 there is no connected sample, got n={n}, p={p}")
        # With mean edge count mu < t = n - 1, P[edges >= t] <= e^-mu (e mu / t)^t.
        mu, t = p * (n * (n - 1) // 2), n - 1
        isolated = n * (1 - p) ** (n - 1)
        _require((mu >= t or log(ER_RETRY_BUDGET) - mu + t * (1 + log(mu) - log(t))
                  >= log(ER_SUCCESS_FLOOR))
                 and isolated <= log(ER_RETRY_BUDGET / ER_SUCCESS_FLOOR),
                 f"er-connected at n={n}, p={p}: no connected sample expected, since"
                 f" {ER_RETRY_BUDGET} tries find one with probability below about"
                 f" {ER_SUCCESS_FLOOR} (a connected graph needs n - 1 edges and no isolated"
                 f" vertex, a draw has {mu:.3g} edges and {isolated:.3g} isolated vertices"
                 f" on average)")
        rng = random.Random(seed)
        pairs = all_pairs(n)
        for _ in range(ER_RETRY_BUDGET):
            edges = [pq for pq in pairs if rng.random() < p]
            try:
                return Graph.from_edges(n, edges)
            except ValueError:
                pass  # the edges are valid, so the sample is disconnected: draw again
        raise ValueError(
            f"no connected sample in {ER_RETRY_BUDGET} tries (n={n}, p={p}, seed={seed})"
        )
    raise ValueError(f"unknown graph model {model!r}; choose from {GRAPH_MODELS}")


def _require_probability(name: str, value) -> None:
    # A bool is an int, and NaN fails every comparison.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    _require(number and 0.0 <= value <= 1.0, f"{name} must be a number in [0, 1], got {value!r}")


def _sorted_sample(population: Sequence[int], k: int, rng: random.Random) -> list[int]:
    """``sorted(rng.sample(population, k))``, with the same draws from ``rng``'s stream.

    ``random.sample``'s pool branch (``len(population) <= setsize``) and every
    error are left to it. Otherwise its ``getrandbits(n.bit_length())`` draws,
    less values >= n or already held, come in chunks of k - len(selected), so
    the k-th new position is its chunk's last draw and no extra value is taken.
    """
    n = len(population)
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    if n <= setsize or not 0 <= k <= n:
        return sorted(rng.sample(population, k))
    below_n = partial(gt, n)
    bits = n.bit_length()
    selected: set[int] = set()
    while (need := k - len(selected)) > 0:
        selected.update(filter(below_n, map(rng.getrandbits, repeat(bits, need))))
    return sorted(map(getitem, repeat(population), selected))


def gen_set_system(
    model: str,
    n: int,
    m: int,
    seed: int = 0,
    k: int = 0,
    density: float = 0.3,
) -> tuple[SetSystem, dict]:
    """Build a set-system instance plus metadata describing it.

    Models: ``uniform-random`` puts each element in each set with probability
    ``density`` and may not cover; ``planted-cover`` hides ``k`` blocks that
    split the universe among m - k smaller decoys, so OPT <= k; ``skewed``
    gives the sets sizes n, n/2, n/4, ... at random. Returns (system, meta):
    the model, its parameters, whether the family covers, and for
    planted-cover the planted indices. Every parameter is checked, whatever
    the model; n and m may be at most ``MAX_INSTANCE_SIZE`` and n * m at most
    ``MAX_INSTANCE_ENTRIES``. The system holds one int object per element value.
    """
    require_count("n", n)
    require_count("m", m)
    _require_ints(seed=seed, k=k)
    _require_probability("density", density)
    require_size("n*m", n * m, MAX_INSTANCE_ENTRIES)
    _require(model in SET_MODELS, f"unknown set model {model!r}; choose from {SET_MODELS}")
    rng = random.Random(seed)
    meta: dict = {"model": model, "n": n, "m": m, "seed": seed}
    universe = tuple(range(1, n + 1))

    if model == "uniform-random":
        sets = [tuple([e for e in universe if rng.random() < density]) for _ in range(m)]
        meta["density"] = density
    elif model == "planted-cover":
        _require(1 <= k <= min(n, m), "planted-cover needs 1 <= k <= min(n, m)")
        elements = list(universe)
        rng.shuffle(elements)
        cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
        blocks = []
        prev = 0
        for cut in cuts + [n]:
            blocks.append(tuple(sorted(elements[prev:cut])))
            prev = cut
        decoy_cap = max(1, n // (2 * k))
        decoys = [
            tuple(_sorted_sample(universe, rng.randint(1, decoy_cap), rng)) for _ in range(m - k)
        ]
        sets = blocks + decoys
        order = list(range(m))
        rng.shuffle(order)
        sets = [sets[j] for j in order]
        planted = sorted(order.index(j) + 1 for j in range(k))
        meta["k"] = k
        meta["planted_indices"] = planted
    else:  # skewed
        sizes = []
        for _ in range(m):
            scale = rng.randint(0, max(0, n.bit_length() - 1))
            sizes.append(max(1, n >> scale))
        sets = [tuple(_sorted_sample(universe, size, rng)) for size in sizes]

    system = build_set_system(sets, universe_size=n)
    meta["coverable"] = all(system.element_to_sets)
    return system, meta
