"""Brute-force audit route for invariant dimensions.

Builds an explicit labeled basis of the n-th tensor power, applies group
elements as signed permutations of basis labels, and reads invariant
dimensions off the averaging projector: per bidegree, the average over the
group of the signed count of fixed labels.  A label's kind, the (p, q,
eigen) of each of its slots, fixes its bidegree and its sign under every
twist.  G is enumerated once per n.  Each permutation's scan tests every
label of the explicit basis and counts the fixed ones per kind; every element
then signs its own counts into each group containing it (G always, H when it
twists an even number of slots, Sn when it twists none).  Deliberately shares
no code with the symmetric-power production route or the class-sum audit
route.
"""

from __future__ import annotations

import itertools
import math

from .bigraded import EquivHodgeTable, HodgeTable, IntegralityViolation
from .group import WHICH, GroupElement, _check_work, enumerate_group, group_order

#: A slot label is (p, q, eigen, index): bidegree, eigen-sign (+1/-1) under
#: the involution, and position inside that eigenspace.  A basis label of
#: the tensor power is a tuple of slot labels.
SlotLabel = tuple[int, int, int, int]
Label = tuple[SlotLabel, ...]
#: A label's kind: the (p, q, eigen) of each slot.
_Kind = tuple[tuple[int, int, int], ...]


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
    single = _slot_basis(table)
    by_kind: dict[tuple[int, int, int], list[SlotLabel]] = {}
    for slot in single:
        by_kind.setdefault(slot[:3], []).append(slot)
    return [(kind, list(itertools.product(*(by_kind[s] for s in kind))))
            for kind in itertools.product(by_kind, repeat=n)]


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
    """Add g's signed count of its fixed labels, per kind, into sums.  A
    kind's sign is the product of its eigen-signs in g's twisted slots."""
    twisted = [m for m, t in enumerate(g.twist) if t]
    for kind, count in counts.items():
        sign = math.prod(kind[m][2] for m in twisted)
        sums[kind] = sums.get(kind, 0) + count * sign


def _by_degree(sums: dict[_Kind, int]) -> dict[tuple[int, int], int]:
    """Fold per-kind sums into per-bidegree sums."""
    out: dict[tuple[int, int], int] = {}
    for kind, value in sums.items():
        pq = (sum(s[0] for s in kind), sum(s[1] for s in kind))
        out[pq] = out.get(pq, 0) + value
    return out


def _groups_containing(g: GroupElement) -> list[str]:
    """The groups of WHICH that g belongs to: G always, H when g twists an
    even number of slots, Sn when it twists none."""
    twists = sum(g.twist)
    return [which for which, member in (("Sn", twists == 0), ("G", True),
                                        ("H", twists % 2 == 0)) if member]


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
        raise ValueError("n must be >= 1")
    _check_work(n, "G", table.total_dim())
    basis = _keyed_basis(table, n)
    counts_by_perm: dict[tuple[int, ...], dict[_Kind, int]] = {}
    sums: dict[str, dict[_Kind, int]] = {which: {} for which in WHICH}
    credited = dict.fromkeys(WHICH, 0)
    for g in enumerate_group(n, "G"):
        if g.perm not in counts_by_perm:
            counts_by_perm[g.perm] = _fixed_counts(g.perm, basis)
        for which in _groups_containing(g):
            _add_signed_counts(g, counts_by_perm[g.perm], sums[which])
            credited[which] += 1
    for which, count in credited.items():
        if count != group_order(n, which):
            raise IntegralityViolation(
                f"{count} elements credited to {which} at n = {n}, "
                f"not its order {group_order(n, which)}"
            )
    tables = {}
    for which, count in credited.items():
        entries = {}
        for pq, value in _by_degree(sums[which]).items():
            dim, rem = divmod(value, count)
            if rem != 0 or dim < 0:
                raise IntegralityViolation(
                    f"projector sum {value} at {pq} does not divide by {count}"
                )
            if dim:
                entries[pq] = dim
        tables[which] = HodgeTable(entries, n * table.dimension)
    return tables
