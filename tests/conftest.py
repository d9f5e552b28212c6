"""Shared strategies and helpers for the test suite."""

import random

from hypothesis import strategies as st

from hodgekit.bigraded import EquivHodgeTable, HodgeTable
from hodgekit.group import GroupElement, SignedCycleType


def _dimension_for(support):
    # smallest dimension satisfying the p, q <= 2*dim storage bound
    top = max((max(p, q) for p, q in support), default=0)
    return (top + 1) // 2


@st.composite
def hodge_tables(draw, even_only=True, max_degree=4, max_dim=5, max_entries=4):
    """Small random tables with exact integer entries."""
    degrees = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree))
    if even_only:
        degrees = degrees.filter(lambda pq: (pq[0] + pq[1]) % 2 == 0)
    entries = draw(st.dictionaries(degrees, st.integers(1, max_dim),
                                   max_size=max_entries))
    return HodgeTable(entries, _dimension_for(entries))


@st.composite
def surfaces(draw, max_dim=5):
    """Random tables a surface can have: even degrees with h^{0,0} = h^{2,2}
    and h^{2,0} = h^{0,2}, all that Hodge symmetry and Serre duality leave
    free in dimension 2 besides h^{1,1}."""
    ends, h11, h20 = (draw(st.integers(0, max_dim)) for _ in range(3))
    return HodgeTable({(0, 0): ends, (1, 1): h11, (2, 2): ends,
                       (2, 0): h20, (0, 2): h20}, 2)


@st.composite
def equiv_tables(draw, max_degree=3, max_dim=3, max_entries=3):
    """Small random involution-split tables, even degrees only."""
    degrees = st.tuples(st.integers(0, max_degree), st.integers(0, max_degree))
    degrees = degrees.filter(lambda pq: (pq[0] + pq[1]) % 2 == 0)
    pairs = st.tuples(st.integers(0, max_dim), st.integers(0, max_dim)).filter(
        lambda dd: dd[0] + dd[1] > 0
    )
    entries = draw(st.dictionaries(degrees, pairs, min_size=1,
                                   max_size=max_entries))
    return EquivHodgeTable(entries, _dimension_for(entries))


def seeded_equiv_tables(count, seed=20240801, max_degree=3, max_dim=3):
    """Deterministic list of small equivariant tables for oracle runs."""
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        entries = {}
        for _ in range(rng.randint(1, 4)):
            p = rng.randint(0, max_degree)
            q_choices = [q for q in range(max_degree + 1) if (p + q) % 2 == 0]
            q = rng.choice(q_choices)
            d_plus, d_minus = rng.randint(0, max_dim), rng.randint(0, max_dim)
            if d_plus + d_minus == 0:
                d_plus = 1
            entries[(p, q)] = (d_plus, d_minus)
        tables.append(EquivHodgeTable(entries, _dimension_for(entries)))
    return tables


def is_symmetric(table):
    """Hodge symmetry: h^{p,q} = h^{q,p} at every entry."""
    return all(table[q, p] == d for (p, q), d in table.items())


def satisfies_duality(table):
    """Serre duality against the declared complex dimension n:
    h^{p,q} = h^{n-p,n-q} at every entry."""
    n = table.dimension
    return all(table[n - p, n - q] == d for (p, q), d in table.items())


def corrupt_second_term(monkeypatch, module):
    """Make ``module``'s Newton term builder add one class at (0, 0) to T_2,
    so 2 * X_2 there is off by one from an honest sum."""
    honest = module._power_terms

    def corrupted(seeds, n):
        terms = honest(seeds, n)
        if n >= 2:
            terms[1][0, 0] = terms[1].get((0, 0), 0) + 1
        return terms

    monkeypatch.setattr(module, "_power_terms", corrupted)


def identity(n):
    """The identity of the signed-permutation group on n slots."""
    return GroupElement(tuple(range(n)), (0,) * n)


def signed_cycle_type(g):
    """The signed cycle type of g, found independently of the census: walk
    each cycle of the permutation from its smallest slot and XOR the twists
    met on the way."""
    unvisited = set(range(g.n))
    parts = []
    while unvisited:
        start = slot = min(unvisited)
        length = parity = 0
        while True:
            unvisited.remove(slot)
            length += 1
            parity ^= g.twist[slot]
            slot = g.perm[slot]
            if slot == start:
                break
        parts.append((length, parity))
    return SignedCycleType(tuple(parts))
