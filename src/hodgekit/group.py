"""The signed-permutation deck groups acting on n-fold products.

G is the full group (Z/2)^n semidirect S_n: a permutation of the factors
composed with an involution twist in any subset of slots.  H is its index-2
subgroup of elements twisting an even number of slots.  Conjugacy classes
of G are labeled by signed cycle types: the cycle lengths of the permutation,
each tagged with the parity of the twists met along the cycle.  A type is the
tuple ((length, parity), ...) sorted by descending length, then parity; it
lies in H when an even number of its cycles are twisted.

Group tokens used throughout the package: ``"G"`` (full group), ``"H"``
(even-twist subgroup), ``"Sn"`` (permutations only).  The audits walk G's
permutations, each with every twist mask; one rule reads an element's groups
off its mask.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator

from .bigraded import IntegralityViolation

#: Bound on explicit work: group elements enumerated, and element x label
#: checks in the projector oracle.  It also bounds the oracle's basis: the
#: largest it admits is 500,000 labels at n = 1 (46 MB tracemalloc peak, and
#: 0.1 s untraced on a 2-core VM), and at n = 3 at most 27^3 = 19,683 labels
#: (1.4 MB tracemalloc peak).
WORK_GUARD = 10 ** 6

GROUPS = ("G", "H")
WHICH = ("Sn", *GROUPS)


class TooLarge(ValueError):
    """Raised when an explicit enumeration would exceed its size guard."""


def _cycles(perm: tuple[int, ...]) -> list[tuple[int, int]]:
    """The cycles of a permutation as (length, bitmask of the slots it
    visits)."""
    seen = 0
    out = []
    for start in range(len(perm)):
        if seen >> start & 1:
            continue
        slots, m = 0, start
        while not slots >> m & 1:
            slots |= 1 << m
            m = perm[m]
        seen |= slots
        out.append((slots.bit_count(), slots))
    return out


def _check_work(n: int, labels: int | None = None) -> None:
    """Refuse explicit work above WORK_GUARD: the order of G at n, times
    labels^n for an oracle basis of ``labels`` per slot.

    The product is multiplied out one slot at a time and refused at the
    first partial product above the guard, so a huge n is refused at once.
    """
    work = 1
    for m in range(1, n + 1):
        work *= 2 * m
        if labels is not None:
            work *= labels
        if work > WORK_GUARD:
            what = "the elements of G"
            if labels is not None:
                what = f"{labels} labels per slot x {what}"
            raise TooLarge(f"{what} at n = {n} exceed the work guard {WORK_GUARD}")


def _elements(n: int) -> Iterator[tuple[int, ...]]:
    """G's permutations, each once in itertools.permutations order; each
    pairs with every twist mask in ``range(1 << n)``.  ``perm`` maps slot m
    to slot perm[m] (0-based); bit m of a mask is set when the involution is
    applied in slot m before permuting.  Refused by :func:`_check_work`
    before anything is yielded.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_work(n)
    return itertools.permutations(range(n))


def _groups_containing(mask: int) -> list[str]:
    """The groups of WHICH that an element with twist bitmask ``mask``
    belongs to: G always, H when it twists an even number of slots, Sn when
    it twists none."""
    twists = mask.bit_count()
    return [which for which, member in (("Sn", twists == 0), ("G", True),
                                        ("H", twists % 2 == 0)) if member]


def element_census(n: int) -> list[tuple[tuple, int]]:
    """Signed cycle types of the elements of G from :func:`_elements`, each
    with how many elements have it, ordered as :func:`classes`.

    Every element is visited and tallied; the cycles of each permutation are
    found once, and a cycle's parity is that of the twisted slots on it.
    Tallying other than the order of G raises IntegralityViolation.
    """
    raw: dict[tuple[tuple[int, int], ...], int] = {}
    for perm in _elements(n):
        cycles = _cycles(perm)
        for mask in range(1 << n):
            parts = tuple([(length, (mask & slots).bit_count() & 1)
                           for length, slots in cycles])
            raw[parts] = raw.get(parts, 0) + 1
    tallied = sum(raw.values())
    if tallied != group_order(n, "G"):
        raise IntegralityViolation(
            f"{tallied} elements tallied for G at n = {n}, "
            f"not its order {group_order(n, 'G')}")
    tally: dict[tuple[tuple[int, int], ...], int] = {}
    for parts, count in raw.items():
        ct = tuple(sorted(parts, key=lambda lt: (-lt[0], lt[1])))
        tally[ct] = tally.get(ct, 0) + count
    return sorted(tally.items())


def group_order(n: int, which: str) -> int:
    """The order of the group ``which``, one of WHICH, at n >= 1."""
    if which not in WHICH:
        raise ValueError(f"unknown group token {which!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.factorial(n) << {"Sn": 0, "G": n, "H": n - 1}[which]


def census_series(n_max: int) -> dict[int, list[tuple[tuple, int, bool]]]:
    """n = 1..n_max mapped to G's (type, class size, in H), in tuple order.
    One walk lists the prefixes of cycles of length >= 2 in order, each with
    its centralizer order in G, prod_l (2l)^(c0 + c1) c0! c1!; a prefix of
    total s gives each n >= s its c0 + c1 = n - s fixed points, adding
    2^(c0 + c1) c0! c1! (the cycle index of Z/2 wr S_n).  A class size that
    is not whole raises IntegralityViolation."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    fact = [math.factorial(k) for k in range(n_max + 1)]
    # for f fixed points: each split's parts, centralizer factor and c1
    tails = [[(((1, 0),) * (f - c1) + ((1, 1),) * c1, fact[f - c1] * fact[c1] << f, c1)
              for c1 in range(f + 1)] for f in range(n_max + 1)]
    rows: dict[int, list] = {n: [] for n in range(1, n_max + 1)}
    stack = [((), 0, 0, 1, n_max)]
    while stack:
        parts, s, twisted, z, longest = stack.pop()
        for n in range(max(s, 1), n_max + 1):
            order, row = 2 ** n * fact[n], rows[n]
            for tail, factor, c1 in tails[n - s]:
                size, rem = divmod(order, z * factor)
                if rem:
                    raise IntegralityViolation(f"class size {order}/{z * factor} of "
                                               f"{parts + tail} is not whole")
                row.append((parts + tail, size, (twisted + c1) % 2 == 0))
        # push the extensions by one block (l, 0)^c0 (l, 1)^c1, l below the last,
        # largest first: they pop in order of parts, each before its extensions
        blocks = sorted((((length, 0),) * (c - c1) + ((length, 1),) * c1, length, c, c1)
                        for length in range(2, min(longest, n_max - s) + 1)
                        for c in range(1, (n_max - s) // length + 1) for c1 in range(c + 1))
        for block, length, c, c1 in reversed(blocks):
            stack.append((parts + block, s + length * c, twisted + c1, z * (2 * length) ** c
                          * math.factorial(c - c1) * math.factorial(c1), length - 1))
    return rows


def classes(n: int, which: str) -> list[tuple[tuple, int]]:
    """Census of signed cycle types with their element counts, in tuple
    order: :func:`census_series` read at n.  For H only the types with an
    even number of twisted cycles are kept; H is normal in G, so each type
    lies inside or outside H and the kept sizes add up to the order of H."""
    if which not in GROUPS:
        raise ValueError(f"which must be one of {GROUPS}, got {which!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return [(ct, size) for ct, size, in_h in census_series(n)[n] if in_h or which == "G"]
