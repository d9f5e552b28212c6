"""Brute-force audit route for invariant dimensions.

Builds an explicit labeled basis of the n-th tensor power, applies group
elements as signed permutations of basis labels, and reads invariant
dimensions off the averaging projector: per bidegree, the average over the
group of the signed count of fixed labels.  Elements that share a
permutation share its scan for fixed labels, and every element still adds
the sign of each of its fixed labels over the explicit basis.  Deliberately
shares no code with the symmetric-power production route or the class-sum
audit route.
"""

from __future__ import annotations

import itertools

from .bigraded import EquivHodgeTable, HodgeTable, IntegralityViolation
from .group import (
    ENUMERATION_GUARD,
    WORK_GUARD,
    GroupElement,
    TooLarge,
    enumerate_group,
    group_order,
)

LABEL_GUARD = 20000

#: A slot label is (p, q, eigen, index): bidegree, eigen-sign (+1/-1) under
#: the involution, and position inside that eigenspace.  A basis label of
#: the tensor power is a tuple of slot labels.
SlotLabel = tuple[int, int, int, int]
Label = tuple[SlotLabel, ...]
_Graded = tuple[Label, tuple[int, int]]


def slot_basis(table: EquivHodgeTable) -> list[SlotLabel]:
    """Labels for one tensor factor, in a fixed deterministic order."""
    out: list[SlotLabel] = []
    for (p, q), (d_plus, d_minus) in table.items():
        out += [(p, q, +1, i) for i in range(d_plus)]
        out += [(p, q, -1, i) for i in range(d_minus)]
    return out


def labeled_basis(table: EquivHodgeTable, n: int) -> list[Label]:
    """All basis labels of the n-th tensor power, guarded in size."""
    single = slot_basis(table)
    if len(single) ** n > LABEL_GUARD:
        raise TooLarge(
            f"{len(single)}^{n} labels exceed the oracle guard {LABEL_GUARD}"
        )
    return list(itertools.product(single, repeat=n))


def apply_element(g: GroupElement, label: Label) -> tuple[Label, int]:
    """Image of a basis label under a signed permutation, with its sign.

    Twisted slots contribute the eigen-sign of their current label, then the
    slots are permuted.  Even degrees only, so permuting factors itself
    carries no sign.
    """
    moved: list[SlotLabel] = [label[0]] * g.n
    for m, target in enumerate(g.perm):
        moved[target] = label[m]
    return tuple(moved), _sign(_twisted_slots(g), label)


def _twisted_slots(g: GroupElement) -> list[int]:
    return [m for m, t in enumerate(g.twist) if t]


def _sign(twisted: list[int], label: Label) -> int:
    """Product of the eigen-signs of a label in the twisted slots."""
    sign = 1
    for m in twisted:
        sign *= label[m][2]
    return sign


def _graded_basis(table: EquivHodgeTable, n: int) -> list[_Graded]:
    """Every basis label paired with its bidegree.  Equal bidegrees share one
    tuple, so the per-permutation lists of fixed pairs hold only references."""
    degrees: dict[tuple[int, int], tuple[int, int]] = {}
    out = []
    for label in labeled_basis(table, n):
        p = q = 0
        for slot in label:
            p += slot[0]
            q += slot[1]
        out.append((label, degrees.setdefault((p, q), (p, q))))
    return out


def _fixed(perm: tuple[int, ...], basis: list[_Graded]) -> list[_Graded]:
    """The (label, bidegree) pairs whose label a permutation fixes.

    Slot m moves to perm[m], so a label is fixed exactly when it agrees with
    itself at perm[m] in every slot; a twist only sets the sign.
    """
    moves = list(enumerate(perm))
    out = []
    for pair in basis:
        label = pair[0]
        for m, target in moves:
            if label[target] != label[m]:
                break
        else:
            out.append(pair)
    return out


def _add_signed_counts(g: GroupElement, fixed: list[_Graded],
                       sums: dict[tuple[int, int], int]) -> None:
    """Add g's signed count of its fixed labels, per bidegree, into sums."""
    twisted = _twisted_slots(g)
    for label, degree in fixed:
        sums[degree] = sums.get(degree, 0) + _sign(twisted, label)


def element_trace(g: GroupElement, table: EquivHodgeTable) -> dict[tuple[int, int], int]:
    """Signed count of fixed labels per bidegree: the graded matrix trace."""
    sums: dict[tuple[int, int], int] = {}
    _add_signed_counts(g, _fixed(g.perm, _graded_basis(table, g.n)), sums)
    return {k: v for k, v in sums.items() if v}


def projector_invariant_dims(table: EquivHodgeTable, n: int, which: str) -> HodgeTable:
    """Invariant dimensions via the explicit averaging projector.

    For every bidegree, dim = (1/|group|) * sum over elements of the signed
    number of fixed labels.  Exact division is required.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    basis = _graded_basis(table, n)
    order = group_order(n, which)
    # above the enumeration guard, enumerate_group refuses first, naming n
    if n <= ENUMERATION_GUARD and len(basis) * order > WORK_GUARD:
        raise TooLarge(
            f"{len(basis)} labels x {order} elements of {which} at n = {n} "
            f"exceed the oracle work guard {WORK_GUARD}"
        )
    elements = enumerate_group(n, which)
    fixed_by_perm: dict[tuple[int, ...], list[_Graded]] = {}
    sums: dict[tuple[int, int], int] = {}
    for g in elements:
        if g.perm not in fixed_by_perm:
            fixed_by_perm[g.perm] = _fixed(g.perm, basis)
        _add_signed_counts(g, fixed_by_perm[g.perm], sums)
    entries = {}
    for pq, value in sums.items():
        dim, rem = divmod(value, len(elements))
        if rem != 0 or dim < 0:
            raise IntegralityViolation(
                f"projector sum {value} at {pq} does not divide by {len(elements)}"
            )
        if dim:
            entries[pq] = dim
    return HodgeTable(entries, n * table.dimension)
