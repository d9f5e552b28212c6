"""Brute-force audit route for invariant dimensions.

Builds an explicit labeled basis of the n-th tensor power, applies group
elements as signed permutations of basis labels, and reads invariant
dimensions off the averaging projector: per bidegree, the average over the
group of the signed count of fixed labels.  G is enumerated once per n,
each permutation once with its twist bitmasks.  A permutation fixes no
label of a kind that differs from itself at a moved slot; every label of
every other kind is compared explicitly.  Fixed counts are merged by sign
key once per permutation, and every element signs them straight into the
bidegree sums of each group that ``group._groups_containing`` names.
Shares no code with the symmetric-power production route, and only the table
type and its exact average, ``bigraded._average``, with the class-sum route.
"""

from __future__ import annotations

import itertools

from .bigraded import EquivHodgeTable, HodgeTable, IntegralityViolation, _average
from .group import WHICH, _check_work, _elements, _groups_containing, group_order

#: A slot label is (p, q, eigen, index): bidegree, eigen-sign (+1/-1) under
#: the involution, and position inside that eigenspace.  A basis label of
#: the tensor power is a tuple of slot labels.
SlotLabel = tuple[int, int, int, int]
Label = tuple[SlotLabel, ...]
#: A label's kind: the (p, q, eigen) of each slot.
_Kind = tuple[tuple[int, int, int], ...]
#: A kind's sign key: its bidegree and the bitmask of its -1 eigenspace
#: slots; an element negates its labels when it twists an odd number of them.
_SignKey = tuple[tuple[int, int], int]


def _slot_basis(table: EquivHodgeTable) -> list[SlotLabel]:
    """Labels for one tensor factor, in a fixed deterministic order."""
    out: list[SlotLabel] = []
    for (p, q), (d_plus, d_minus) in table.items():
        out += [(p, q, +1, i) for i in range(d_plus)]
        out += [(p, q, -1, i) for i in range(d_minus)]
    return out


def _keyed_basis(table: EquivHodgeTable, n: int) -> list[tuple[_Kind, list[Label]]]:
    """The basis labels of the n-th tensor power grouped by kind, one entry
    per kind."""
    by_kind: dict[tuple[int, int, int], list[SlotLabel]] = {}
    for slot in _slot_basis(table):
        by_kind.setdefault(slot[:3], []).append(slot)
    return [(kind, list(itertools.product(*(by_kind[s] for s in kind))))
            for kind in itertools.product(by_kind, repeat=n)]


def _fixed_counts(perm: tuple[int, ...],
                  basis: list[tuple[_Kind, list[Label]]]) -> dict[_Kind, int]:
    """How many labels of each kind a permutation fixes.

    Slot m moves to perm[m], so a label is fixed exactly when it agrees with
    itself at perm[m] in every slot; a twist only sets the sign, and a slot
    the permutation keeps in place always agrees.  A slot label starts with
    its slot's kind, so a kind that differs from itself at a moved slot has
    no fixed label, and only the labels of the other kinds are compared.
    The identity moves no slot and fixes every label without a comparison.
    """
    moves = [(m, target) for m, target in enumerate(perm) if m != target]
    if not moves:
        return {kind: len(labels) for kind, labels in basis}
    counts: dict[_Kind, int] = {}
    for kind, labels in basis:
        if any(kind[target] != kind[m] for m, target in moves):
            continue
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


def _sign_keys(basis: list[tuple[_Kind, list[Label]]]) -> dict[_Kind, _SignKey]:
    """Per kind, its sign key: the bidegree (p, q) of its labels and the
    bitmask of its slots in the -1 eigenspace."""
    return {kind: ((sum(s[0] for s in kind), sum(s[1] for s in kind)),
                   sum(1 << m for m, (_, _, eigen) in enumerate(kind) if eigen < 0))
            for kind, _ in basis}


def projector_tables(table: EquivHodgeTable, n: int) -> dict[str, HodgeTable]:
    """Invariant dimensions under Sn, G and H via the explicit averaging
    projector, keyed by WHICH.

    For every bidegree, dim = (1/|group|) * sum over the group's elements of
    the signed number of fixed labels.  G is enumerated once; each element
    signs its counts into every group containing it.  Each group must be
    credited exactly its order in elements, and each division must be exact.
    Work of labels^n x |G| above the work guard is refused before any basis
    is built.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_work(n, table.total_dim())
    basis = _keyed_basis(table, n)
    keys = _sign_keys(basis)
    sums: dict[str, dict[tuple[int, int], int]] = {which: {} for which in WHICH}
    credited = dict.fromkeys(WHICH, 0)
    for perm, masks in _elements(n):
        merged: dict[_SignKey, int] = {}
        for kind, count in _fixed_counts(perm, basis).items():
            merged[keys[kind]] = merged.get(keys[kind], 0) + count
        for mask in masks:
            for which in _groups_containing(mask):
                for (pq, minus), count in merged.items():
                    sign = -1 if (mask & minus).bit_count() & 1 else 1
                    sums[which][pq] = sums[which].get(pq, 0) + sign * count
                credited[which] += 1
    for which, count in credited.items():
        if count != group_order(n, which):
            raise IntegralityViolation(
                f"{count} elements credited to {which} at n = {n}, "
                f"not its order {group_order(n, which)}")
    return {which: _average(sums[which], count, n * table.dimension, "projector sum")
            for which, count in credited.items()}
