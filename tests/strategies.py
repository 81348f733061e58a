"""Random instances shared by the tests: a seeded set-system builder and hypothesis strategies."""

from hypothesis import strategies as st

from covert_setcover.graphs import Graph, all_pairs
from covert_setcover.setsystem import build_set_system


def random_system(rng, max_n=16, max_m=12, coverable=True):
    n = rng.randint(2, max_n)
    m = rng.randint(2, max_m)
    sets = [
        [e for e in range(1, n + 1) if rng.random() < rng.uniform(0.1, 0.6)]
        for _ in range(m)
    ]
    if coverable:
        missing = set(range(1, n + 1)) - set().union(*map(set, sets))
        for e in sorted(missing):
            sets[rng.randrange(m)].append(e)
    return build_set_system(sets, n), sets


class Draws:
    """A stand-in for ``st.data()`` in an ``@example``: its draws return ``values`` in order."""

    def __init__(self, *values):
        self.values = values
        self._next = iter(values)

    def __repr__(self):
        return f"Draws{self.values!r}"

    def draw(self, strategy, label=None):
        return next(self._next)


@st.composite
def families(draw, max_n=24, max_m=8):
    """(n, sets): any family of subsets of 1..n; some elements may have no home set."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    return n, [draw(st.sets(st.integers(1, n))) for _ in range(m)]


@st.composite
def coverable_families(draw, max_n=24, max_m=8):
    """(n, sets): a family over 1..n in which every element has a home set."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    sets = [draw(st.sets(st.integers(1, n))) for _ in range(m)]
    for e in range(1, n + 1):
        sets[draw(st.integers(0, m - 1))].add(e)
    return n, sets


@st.composite
def connected_graphs(draw):
    """A random spanning tree over a shuffled vertex order plus random extra edges."""
    n = draw(st.integers(2, 9))
    order = draw(st.permutations(range(1, n + 1)))
    edges = [(order[draw(st.integers(0, j - 1))], order[j]) for j in range(1, n)]
    edges += draw(st.lists(st.sampled_from(all_pairs(n)), max_size=n * (n - 1) // 2))
    return Graph.from_edges(n, edges)
