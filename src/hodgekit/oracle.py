"""Brute-force audit route for invariant dimensions.

Builds an explicit labeled basis of the n-th tensor power, applies group
elements as signed permutations of basis labels, and reads invariant
dimensions off the averaging projector: per bidegree, the average over the
group of the signed count of fixed labels.  Deliberately shares no code
with the symmetric-power production route or the class-sum audit route.
"""

from __future__ import annotations

import itertools

from .bigraded import EquivHodgeTable, HodgeTable, IntegralityViolation
from .group import GroupElement, TooLarge, enumerate_group

LABEL_GUARD = 20000

#: A slot label is (p, q, eigen, index): bidegree, eigen-sign (+1/-1) under
#: the involution, and position inside that eigenspace.  A basis label of
#: the tensor power is a tuple of slot labels.
SlotLabel = tuple[int, int, int, int]
Label = tuple[SlotLabel, ...]


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
    n = g.n
    moved: list[SlotLabel] = [label[0]] * n
    sign = 1
    for m in range(n):
        moved[g.perm[m]] = label[m]
        if g.twist[m]:
            sign *= label[m][2]
    return tuple(moved), sign


def element_trace(g: GroupElement, table: EquivHodgeTable) -> dict[tuple[int, int], int]:
    """Signed count of fixed labels per bidegree: the graded matrix trace."""
    sums: dict[tuple[int, int], int] = {}
    for label in labeled_basis(table, g.n):
        moved, sign = apply_element(g, label)
        if moved == label:
            key = (sum(s[0] for s in label), sum(s[1] for s in label))
            sums[key] = sums.get(key, 0) + sign
    return {k: v for k, v in sums.items() if v}


def projector_invariant_dims(table: EquivHodgeTable, n: int, which: str) -> HodgeTable:
    """Invariant dimensions via the explicit averaging projector.

    For every bidegree, dim = (1/|group|) * sum over elements of the signed
    number of fixed labels.  Exact division is required.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = labeled_basis(table, n)
    degrees = [(sum(s[0] for s in lab), sum(s[1] for s in lab)) for lab in labels]
    elements = enumerate_group(n, which)
    sums: dict[tuple[int, int], int] = {}
    for g in elements:
        perm, twist = g.perm, g.twist
        for lab, degree in zip(labels, degrees):
            sign = 1
            for m in range(n):
                slot = lab[m]
                if lab[perm[m]] != slot:
                    break
                if twist[m]:
                    sign *= slot[2]
            else:
                sums[degree] = sums.get(degree, 0) + sign
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
