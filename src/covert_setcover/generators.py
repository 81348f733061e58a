"""Seeded instance and graph generators for experiments and fixtures.

Every generator is deterministic per (model, params, seed): one
``random.Random(seed)`` drives all draws in a fixed order.
"""

from __future__ import annotations

import math
import random
from numbers import Real

from .graphs import Graph, all_pairs
from .setsystem import SetSystem, build_set_system

GRAPH_MODELS = ("path", "cycle", "complete", "star", "er-connected", "grid")
SET_MODELS = ("uniform-random", "planted-cover", "skewed")

ER_RETRY_BUDGET = 1000


def gen_graph(model: str, n: int = 0, seed: int = 0, p: float = 0.25,
              rows: int = 0, cols: int = 0) -> Graph:
    """Build a named-family or random connected graph.

    ``er-connected`` resamples an Erdos-Renyi graph until it is connected
    (at most ER_RETRY_BUDGET attempts, then ValueError); ``grid`` takes rows x cols with
    vertices numbered row-major. Every parameter is checked, whatever the model.
    """
    _require_ints(n=n, seed=seed, rows=rows, cols=cols)
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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_ints(**values) -> None:
    for name, value in values.items():
        _require(type(value) is int, f"{name} must be an integer, got {value!r}")


def _require_probability(name: str, value) -> None:
    # A bool is an int, and NaN fails every comparison.
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    _require(number and 0.0 <= value <= 1.0, f"{name} must be a number in [0, 1], got {value!r}")


def require_run_constants(rng_seed, **constants) -> None:
    """Check an algorithm's entry: an int ``rng_seed`` and finite positive real constants.

    A bool is neither a seed nor a constant. A failure raises ``ValueError``
    naming the parameter, before the run issues any query.
    """
    _require_ints(rng_seed=rng_seed)
    for name, value in constants.items():
        real = isinstance(value, Real) and not isinstance(value, bool)
        _require(real and math.isfinite(value) and value > 0,
                 f"{name} must be finite and positive, got {value!r}")


def gen_set_system(
    model: str,
    n: int,
    m: int,
    seed: int = 0,
    k: int = 0,
    density: float = 0.3,
) -> tuple[SetSystem, dict]:
    """Build a set-system instance plus metadata describing it.

    Models:
      uniform-random: each set contains each element with prob ``density``;
        may be uncoverable, which the metadata flags.
      planted-cover: the universe is split into ``k`` blocks hidden at random
        positions among m - k smaller decoy sets, so the optimum is at most k.
      skewed: set sizes follow a halving scale (n, n/2, n/4, ...) assigned at
        random, echoing instances with a few dominant sets.

    Returns (system, meta); meta records the model, parameters, whether the
    family covers the universe, and for planted-cover the planted indices.
    Every parameter is checked, whatever the model.

    Every model draws its elements from one ``universe = tuple(range(1, n + 1))``,
    so the system holds one int object per element value: indexing a ``range``
    makes a fresh 28-byte int for every value above 256, once per (set, element)
    entry. The draws are the same as from the range: ``random.sample`` chooses
    positions from the population's length alone and then reads
    ``population[j]``, so the tuple yields the same values from the same
    random stream, and every set, digest and trace is unchanged.
    """
    _require_ints(n=n, m=m, seed=seed, k=k)
    _require_probability("density", density)
    _require(n >= 1, "need n >= 1 elements")
    _require(m >= 1, "need m >= 1 sets")
    _require(model in SET_MODELS, f"unknown set model {model!r}; choose from {SET_MODELS}")
    rng = random.Random(seed)
    meta: dict = {"model": model, "n": n, "m": m, "seed": seed}
    universe = tuple(range(1, n + 1))

    if model == "uniform-random":
        sets = [[e for e in universe if rng.random() < density] for _ in range(m)]
        meta["density"] = density
    elif model == "planted-cover":
        _require(1 <= k <= min(n, m), "planted-cover needs 1 <= k <= min(n, m)")
        elements = list(universe)
        rng.shuffle(elements)
        cuts = sorted(rng.sample(range(1, n), k - 1)) if k > 1 else []
        blocks = []
        prev = 0
        for cut in cuts + [n]:
            blocks.append(sorted(elements[prev:cut]))
            prev = cut
        decoy_cap = max(1, n // (2 * k))
        decoys = [
            sorted(rng.sample(universe, rng.randint(1, decoy_cap)))
            for _ in range(m - k)
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
        sets = [sorted(rng.sample(universe, size)) for size in sizes]

    system = build_set_system(sets, universe_size=n)
    meta["coverable"] = all(system.element_to_sets)
    return system, meta
