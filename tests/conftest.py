"""Shared strategies and helpers for the test suite."""

import random
from dataclasses import dataclass

from hypothesis import strategies as st

from hodgekit import group
from hodgekit.bigraded import EquivHodgeTable, HodgeTable


def _dimension_for(support):
    # smallest dimension whose diamond holds every entry: p, q <= dimension
    return max((max(p, q) for p, q in support), default=0)


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


def evaluate(poly, u, v):
    """A sparse polynomial {(p, q): c} in u^p v^q at the integers u, v: an
    independent witness for products, which evaluation turns into products
    of integers."""
    return sum(c * u ** p * v ** q for (p, q), c in poly.items())


def fock_diamond(odd, even, n):
    """A basis count of the degree-n part of the Fock space of Nakajima and
    Grojnowski, witness for every Goettsche-type series entry by entry.

    Generators are q_k(alpha), 1 <= k <= n, with alpha running over a basis
    of ``odd`` at odd k and of ``even`` at even k (plain tables of even
    degrees, so every generator is bosonic), of bidegree deg alpha +
    (k - 1, k - 1).  Each monomial q_k1(alpha_1)...q_kr(alpha_r)|0> with
    k_1 + ... + k_r = n is visited once, as a multiset of generators in
    sorted order, and tallied at the sum of their bidegrees.  H*(S^[n]) is
    fock_diamond(S, S, n); the twisted part of the double cover of E^[n] is
    fock_diamond(V_-, V_+, n).  Counting only, no division and no product:
    raises group.TooLarge past group.WORK_GUARD monomials."""
    gens = sorted((k, p + k - 1, q + k - 1) for k in range(1, n + 1)
                  for (p, q), d in (odd if k % 2 else even).items() for _ in range(d))
    counts, visited = {}, [0]

    def walk(first, left, p, q):
        if not left:
            counts[p, q] = counts.get((p, q), 0) + 1
            visited[0] += 1
            if visited[0] > group.WORK_GUARD:
                raise group.TooLarge(f"more than {group.WORK_GUARD} monomials at n = {n}")
            return
        for i in range(first, len(gens)):
            k, a, b = gens[i]
            if k > left:
                break
            walk(i, left - k, p + a, q + b)

    walk(0, n, 0, 0)
    return HodgeTable(counts, 2 * n)


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


@dataclass(frozen=True, slots=True)
class GroupElement:
    """An element (perm, twist) of (Z/2)^n semidirect S_n, the validated
    object witness for the (perm, mask) pairs the package runs on.

    ``perm`` maps slot m to slot perm[m] (0-based); ``twist[m] = 1`` means the
    involution is applied in slot m before permuting.  The product law,
    derived from the action on tuples, is

        (a * b).twist[j] = b.twist[j] XOR a.twist[b.perm[j]].
    """

    perm: tuple[int, ...]
    twist: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {self.perm!r}")
        if len(self.twist) != n or any(t not in (0, 1) for t in self.twist):
            raise ValueError(f"twist must be a 0/1 vector of length {n}")

    @property
    def n(self):
        return len(self.perm)

    @property
    def pair(self):
        """The (perm, mask) pair of the package: bit m of mask is twist[m]."""
        return self.perm, sum(t << m for m, t in enumerate(self.twist))

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("mismatched degrees")
        perm = tuple(self.perm[other.perm[j]] for j in range(self.n))
        twist = tuple(other.twist[j] ^ self.twist[other.perm[j]]
                      for j in range(self.n))
        return GroupElement(perm, twist)

    def twist_parity(self):
        """Total twist count mod 2; the homomorphism to Z/2 with kernel H."""
        return sum(self.twist) % 2


def transposition(n, i, j):
    """Swap of slots i and j (0-based)."""
    perm = list(range(n))
    perm[i], perm[j] = perm[j], perm[i]
    return GroupElement(tuple(perm), (0,) * n)


def slot_twist(n, slots):
    """Pure twist in the given 0-based slots, no permutation."""
    twist = [0] * n
    for s in slots:
        twist[s] = 1
    return GroupElement(tuple(range(n)), tuple(twist))


def enumerate_group(n, which):
    """Every element of G, H or S_n, validated as GroupElement, in the order
    of the package's walk of G and refused by its work guard.  Membership is
    read off the twist count here, not by the package's own rule, so that
    tests can compare the two."""
    keep = {"G": lambda twists: True, "H": lambda twists: twists % 2 == 0,
            "Sn": lambda twists: twists == 0}[which]
    return [GroupElement(perm, tuple(mask >> m & 1 for m in range(n)))
            for perm in group._elements(n) for mask in range(1 << n)
            if keep(mask.bit_count())]


def identity(n):
    """The identity of the signed-permutation group on n slots."""
    return GroupElement(tuple(range(n)), (0,) * n)


def signed_cycle_type(g):
    """The signed cycle type of g, found independently of the census: walk
    each cycle of the permutation from its smallest slot and XOR the twists
    met on the way; the (length, parity) cycles sorted by descending length,
    then parity."""
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
    return tuple(sorted(parts, key=lambda part: (-part[0], part[1])))
