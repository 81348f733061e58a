"""Random set-system instances shared by the tests: a seeded builder and hypothesis strategies."""

from hypothesis import strategies as st

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
