"""Blow-up cohomology and the Calabi-Yau double cover of the Hilbert scheme.

For an Enriques surface with K3 cover, the universal cover X of the Hilbert
scheme of n points is, away from codimension 2, a blow-up of the quotient of
the n-fold K3 product by the even-twist deck group H.  The blow-up centers
are the diagonal loci ("two marked points equal") and the twisted diagonals
("second point is the involution image of the first"), one pair per slot
pair.  Blowing up along a codimension-2 center Z adds H(Z) * uv, the
Kunneth product with the class of the exceptional P^1 fibre.

This module assembles the full diamond of X for n = 2 and counts the orbits
of the exceptional divisor classes under the deck action, whose elements act
as the (perm, mask) pairs of :mod:`hodgekit.group`.  For every n, dim H^2 of
X is the quotient's b_2 plus that orbit count; ``verify-paper`` reads it so
in check 062.
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
