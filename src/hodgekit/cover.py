"""The Calabi-Yau double cover X of the Hilbert scheme of an Enriques surface.

X covers E^[n] through the 2-torsion local system L of K_E and is Calabi-Yau
for n >= 2 (Oguiso-Schroer); its deck involution splits H*(X) = H*(E^[n])
(+) H*(E^[n], L).  :func:`cover_series` reads both off Goettsche's product in
:mod:`.hilbert`, with V_+, V_- the eigenspaces of the K3 cover: the + part
with seeds V_+ (uv)^(k-1), the - part (de Cataldo-Migliorini, Adv. Math. 151,
2000) with W_k (uv)^(k-1), W_k = V_- at odd k and V_+ at even k.

The n = 2 audit, :func:`cover_diamond_n2`, blows up the even-twist quotient of
the K3 square, from the class-sum average, along two centers.  The orbits of
the exceptional classes under the deck group, as (perm, mask) pairs of
:mod:`hodgekit.group`, give b_2 of X for every n: the quotient's b_2 plus
their count, as check 062 of ``verify-paper`` reads it.
"""

from __future__ import annotations

from .bigraded import (
    EquivHodgeTable,
    HodgeTable,
    _require_split,
    _require_surface,
    direct_sum,
    k3_enriques,
    tensor,
)
from .hilbert import _goettsche
from .invariants import class_sum_dims


def center_labels(n: int) -> list[tuple[int, int, int]]:
    """The 2 * C(n, 2) exceptional classes (i, j, kind) of the n-fold product:
    0-based slots i < j, kind 0 for the equal-points locus, 1 for the twisted."""
    return [(i, j, kind) for i in range(n) for j in range(i + 1, n)
            for kind in (0, 1)]


def _class_image(g: tuple[tuple[int, ...], int],
                 label: tuple[int, int, int]) -> tuple[int, int, int]:
    """Image of a class under g = (perm, mask): the twist acts first, so the
    kind toggles exactly when one slot of the pair is twisted; then the
    slots move."""
    perm, mask = g
    i, j, kind = label
    a, b = perm[i], perm[j]
    return min(a, b), max(a, b), kind ^ (mask >> i & 1) ^ (mask >> j & 1)


def exceptional_orbits(n: int) -> int:
    """Orbits of the exceptional classes under the even-twist deck group.

    Flood fill over generators of H: the adjacent transpositions and the
    twist in slots 0 and 1.  For n = 2 the two kinds stay separate; from
    n = 3 on everything merges into a single orbit.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    identity = tuple(range(n))
    generators = [(identity[:a] + (a + 1, a) + identity[a + 2:], 0)
                  for a in range(n - 1)]
    generators.append((identity, 0b11))
    unseen = set(center_labels(n))
    orbits = 0
    while unseen:
        orbits += 1
        frontier = {unseen.pop()}
        while frontier:
            frontier = {_class_image(g, c) for g in generators for c in frontier} & unseen
            unseen -= frontier
    return orbits


def cover_diamond_n2(surface: EquivHodgeTable | None = None) -> HodgeTable:
    """Full Hodge diamond of the double cover X for n = 2.

    The base is the quotient of the 2-fold product by the even-twist group,
    taken as the class-sum average, so no production kernel runs here; the
    two blow-up centers are copies of the involution quotient (for the K3
    preset: two Enriques surfaces), each times uv.  Raises ValueError, before
    any work, for a table that is not a surface: dimension 2, and Hodge
    symmetry and Serre duality in each eigenspace.
    """
    table = k3_enriques() if surface is None else surface
    _require_split(table)
    _require_surface(table, "the n = 2 cover needs a surface", 2)
    return direct_sum(class_sum_dims(table, 2, "H"),
                      tensor(HodgeTable({(1, 1): 2}, 1), table.plus_part()))


def cover_series(table: EquivHodgeTable, n_max: int) -> list[EquivHodgeTable]:
    """X over Hilb^0..Hilb^n_max of the quotient, split as the module says (n = 1
    gives the table, n = 0 two points).  Raises TypeError for a plain table and
    ValueError, before any term is built, for a non-surface or, if n_max >= 3,
    an involution failing Lefschetz's necessary conditions for a free one."""
    _require_split(table)
    _require_surface(table, "the double cover needs a surface", 2)
    plus, minus = table.plus_part(), table.minus_part()
    trace = sum((-1) ** q * (dp - dm) for (p, q), (dp, dm) in table.items() if p == 0)
    for rule, left, right in (("e(V+) = e(V-)", plus.euler(), minus.euler()),
                              ("sum_q (-1)^q (h+^(0,q) - h-^(0,q)) = 0", trace, 0)):
        if n_max >= 3 and left != right:
            raise ValueError(f"a double cover past n = 2 needs a free involution, but "
                             f"Lefschetz's condition {rule} fails: {left} != {right}")
    parts = (map(_goettsche(plus, n_max), range(n_max + 1)),
             map(_goettsche(minus, n_max, plus), range(n_max + 1)))
    return [EquivHodgeTable({pq: (x[pq], y[pq]) for pq in x.support() + y.support()},
                            x.dimension) for x, y in zip(*parts)]
