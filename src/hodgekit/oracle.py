"""Brute-force audit route for invariant dimensions.

Builds an explicit labeled basis of the n-th tensor power, applies group
elements as signed permutations of basis labels, and reads invariant
dimensions off the averaging projector: per bidegree, the average over the
group of the signed count of fixed labels.  A label's kind, the (p, q,
eigen) of each of its slots, fixes its bidegree and its sign under every
twist.  Each permutation's scan tests every label of the explicit basis and
counts the fixed ones per kind; every element of the group still adds its
own signed count per kind.  Deliberately shares no code with the
symmetric-power production route or the class-sum audit route.
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
#: A label's kind: the (p, q, eigen) of each slot.
_Kind = tuple[tuple[int, int, int], ...]


def slot_basis(table: EquivHodgeTable) -> list[SlotLabel]:
    """Labels for one tensor factor, in a fixed deterministic order."""
    out: list[SlotLabel] = []
    for (p, q), (d_plus, d_minus) in table.items():
        out += [(p, q, +1, i) for i in range(d_plus)]
        out += [(p, q, -1, i) for i in range(d_minus)]
    return out


def _keyed_basis(table: EquivHodgeTable, n: int) -> list[tuple[_Kind, list[Label]]]:
    """The basis labels of the n-th tensor power grouped by kind, one entry
    per kind, guarded in size."""
    single = slot_basis(table)
    if len(single) ** n > LABEL_GUARD:
        raise TooLarge(
            f"{len(single)}^{n} labels exceed the oracle guard {LABEL_GUARD}"
        )
    by_kind: dict[tuple[int, int, int], list[SlotLabel]] = {}
    for slot in single:
        by_kind.setdefault(slot[:3], []).append(slot)
    return [(kind, list(itertools.product(*(by_kind[s] for s in kind))))
            for kind in itertools.product(by_kind, repeat=n)]


def labeled_basis(table: EquivHodgeTable, n: int) -> list[Label]:
    """All basis labels of the n-th tensor power, guarded in size."""
    return [label for _, labels in _keyed_basis(table, n) for label in labels]


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


def _sign(twisted: list[int], label: Label | _Kind) -> int:
    """Product of the eigen-signs of a label, or a kind, in the twisted
    slots."""
    sign = 1
    for m in twisted:
        sign *= label[m][2]
    return sign


def _fixed_counts(perm: tuple[int, ...],
                  basis: list[tuple[_Kind, list[Label]]]) -> dict[_Kind, int]:
    """How many labels of each kind a permutation fixes.

    Slot m moves to perm[m], so a label is fixed exactly when it agrees with
    itself at perm[m] in every slot; a twist only sets the sign, and a slot
    the permutation keeps in place always agrees.
    """
    moves = [(m, target) for m, target in enumerate(perm) if m != target]
    counts: dict[_Kind, int] = {}
    for kind, labels in basis:
        fixed = 0
        for label in labels:
            for m, target in moves:
                if label[target] != label[m]:
                    break
            else:
                fixed += 1
        if fixed:
            counts[kind] = fixed
    return counts


def _add_signed_counts(g: GroupElement, counts: dict[_Kind, int],
                       sums: dict[_Kind, int]) -> None:
    """Add g's signed count of its fixed labels, per kind, into sums."""
    twisted = _twisted_slots(g)
    for kind, count in counts.items():
        sums[kind] = sums.get(kind, 0) + count * _sign(twisted, kind)


def _by_degree(sums: dict[_Kind, int]) -> dict[tuple[int, int], int]:
    """Fold per-kind sums into per-bidegree sums."""
    out: dict[tuple[int, int], int] = {}
    for kind, value in sums.items():
        pq = (sum(s[0] for s in kind), sum(s[1] for s in kind))
        out[pq] = out.get(pq, 0) + value
    return out


def element_trace(g: GroupElement, table: EquivHodgeTable) -> dict[tuple[int, int], int]:
    """Signed count of fixed labels per bidegree: the graded matrix trace."""
    sums: dict[_Kind, int] = {}
    _add_signed_counts(g, _fixed_counts(g.perm, _keyed_basis(table, g.n)), sums)
    return {k: v for k, v in _by_degree(sums).items() if v}


def projector_invariant_dims(table: EquivHodgeTable, n: int, which: str) -> HodgeTable:
    """Invariant dimensions via the explicit averaging projector.

    For every bidegree, dim = (1/|group|) * sum over elements of the signed
    number of fixed labels.  Exact division is required.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = table.total_dim() ** n
    order = group_order(n, which)
    # above the enumeration guard, enumerate_group refuses first, naming n
    if n <= ENUMERATION_GUARD and labels * order > WORK_GUARD:
        raise TooLarge(
            f"{labels} labels x {order} elements of {which} at n = {n} "
            f"exceed the oracle work guard {WORK_GUARD}"
        )
    basis = _keyed_basis(table, n)
    elements = enumerate_group(n, which)
    counts_by_perm: dict[tuple[int, ...], dict[_Kind, int]] = {}
    sums: dict[_Kind, int] = {}
    for g in elements:
        if g.perm not in counts_by_perm:
            counts_by_perm[g.perm] = _fixed_counts(g.perm, basis)
        _add_signed_counts(g, counts_by_perm[g.perm], sums)
    entries = {}
    for pq, value in _by_degree(sums).items():
        dim, rem = divmod(value, len(elements))
        if rem != 0 or dim < 0:
            raise IntegralityViolation(
                f"projector sum {value} at {pq} does not divide by {len(elements)}"
            )
        if dim:
            entries[pq] = dim
    return HodgeTable(entries, n * table.dimension)
