"""Brute-force audit route for invariant dimensions.

Builds an explicit labeled basis of the n-th tensor power, applies group
elements as signed permutations of basis labels, and reads invariant
dimensions off the averaging projector: per bidegree, the average over the
group of the signed count of fixed labels.  Labels are index tuples under
their kind, built once per n; G is walked once, each permutation with every
twist mask.  A permutation fixes no label of a kind that differs from itself
at a moved slot; every label of every other kind is compared slot by slot.
Fixed counts are merged by sign key once per permutation, and each element
signs them into the bidegree sums of each group ``_groups_containing`` names.
Shares no code with the symmetric-power production route, and only the table
type and its exact average, ``bigraded._average``, with the class-sum route.
"""

from __future__ import annotations

import itertools

from .bigraded import (EquivHodgeTable, HodgeTable, IntegralityViolation, _average,
                       _require_split)
from .group import WHICH, _check_work, _elements, _groups_containing, group_order

#: A label's kind: the (p, q, eigen) piece of each slot, eigen the sign
#: (+1/-1) of its eigenspace under the involution.  A label of the kind is
#: the index of each slot's basis vector inside its piece.
_Kind = tuple[tuple[int, int, int], ...]
Label = tuple[int, ...]
#: A kind's sign key: its bidegree and the bitmask of its -1 eigenspace
#: slots; an element negates its labels when it twists an odd number of them.
_SignKey = tuple[tuple[int, int], int]
_Basis = dict[_Kind, tuple[_SignKey, list[Label]]]


def _keyed_basis(table: EquivHodgeTable, n: int) -> _Basis:
    """The basis of the n-th tensor power by kind, in a fixed deterministic
    order: each kind with its sign key and its labels."""
    pieces = [((p, q, eigen), dim) for (p, q), split in table.items()
              for eigen, dim in zip((1, -1), split) if dim]
    basis = {}
    for slots in itertools.product(pieces, repeat=n):
        kind = tuple(piece for piece, _ in slots)
        key = ((sum(p for p, _, _ in kind), sum(q for _, q, _ in kind)),
               sum(1 << m for m, (_, _, eigen) in enumerate(kind) if eigen < 0))
        basis[kind] = key, list(itertools.product(*(range(dim) for _, dim in slots)))
    return basis


def _fixed_counts(perm: tuple[int, ...], basis: _Basis) -> dict[_Kind, int]:
    """How many labels of each kind a permutation fixes.

    Slot m moves to perm[m], so a label is fixed exactly when each slot's
    piece and index agree with those at perm[m]; a twist only sets the sign,
    and a slot the permutation keeps in place always agrees.  A kind that
    differs from itself at a moved slot has no fixed label, and in every
    other kind each label's indices are compared slot by slot.  The identity
    moves no slot and fixes every label without a comparison.
    """
    moves = [(m, target) for m, target in enumerate(perm) if m != target]
    if not moves:
        return {kind: len(labels) for kind, (_, labels) in basis.items()}
    counts: dict[_Kind, int] = {}
    for kind, (_, labels) in basis.items():
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
    _require_split(table)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_work(n, table.total_dim())
    basis = _keyed_basis(table, n)
    sums: dict[str, dict[tuple[int, int], int]] = {which: {} for which in WHICH}
    credited = dict.fromkeys(WHICH, 0)
    for perm in _elements(n):
        merged: dict[_SignKey, int] = {}
        for kind, count in _fixed_counts(perm, basis).items():
            key = basis[kind][0]
            merged[key] = merged.get(key, 0) + count
        for mask in range(1 << n):
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
