"""Invariant dimensions of tensor powers under signed-permutation groups.

Production route: with V = V_+ (+) V_- the eigenspace split of the
involution and even total degrees only, the invariants of V^(tensor n) are
symmetric powers,

    S_n: Sym^n(V),    G: Sym^n(V_+),    H: Sym^n(V_+) (+) Sym^n(V_-),

since H is the kernel of the twist-parity character.  :func:`sym_powers`
computes Sym^0..Sym^n of a table at once by Newton's power-sum recurrence
m * Sym^m = sum_k psi^k(V) * Sym^(m-k), where psi^k multiplies every
bidegree by k.  Its terms, and those of Goettsche's recurrence in
:mod:`.hilbert`, come from one builder of plain dicts: both are
t d/dt log of a plethystic exponential, differing only in its seeds.  The
kernel packs each coefficient into one integer, so a step adds shifted
multiples of integers and one exact test on them checks every division by
m.  As PE[A + B] = PE[A] * PE[B], it runs the diagonal entries (p = q) with
one slot per weight and the rest on their own, and joins the two series
only in the coefficients a caller reads: Sym^n alone for Sym^n.  This
yields quotient cohomology and symmetric products.

Audit route, sharing no arithmetic with production: :func:`class_sum_dims`
averages graded traces over the group.  The trace of an element depends
only on its signed cycle type: a cycle of length l with twist parity t
contributes the factor

    sum over entries (p, q) of V of (d_plus + (-1)^t * d_minus) * u^(l*p) v^(l*q).

Traces are plain dicts {(p, q): coefficient}, as a single trace can have
negative coefficients, which tables reject.  They are multiplied by
``bigraded._product`` and their sum divided by ``bigraded._average``, the
exact average the projector oracle also ends in.
"""

from __future__ import annotations

import sys
from itertools import compress

from .bigraded import (
    EquivHodgeTable,
    HodgeTable,
    IntegralityViolation,
    _average,
    _product,
    _reject_odd,
    _require_plain,
    _require_split,
    direct_sum,
)
from .group import WHICH, classes, group_order


def class_trace(ct: tuple, table: EquivHodgeTable) -> dict[tuple[int, int], int]:
    """Graded trace on V^(tensor n) of any element with the signed cycle
    type ``ct``, a tuple of (length, parity) cycles.

    Product over cycles (l, t) of sum_(p,q) (d_plus + (-1)^t d_minus)
    u^(lp) v^(lq), returned as {(p, q): coefficient} with zero coefficients
    dropped.  Coefficients may be negative.  Valid because the table has
    even-degree support only, so permuting tensor factors picks up no signs.
    """
    _require_split(table)
    entries, result = table.items(), {(0, 0): 1}
    for length, parity in ct:
        sign = -1 if parity else 1
        result = _product({(length * p, length * q): d_plus + sign * d_minus
                           for (p, q), (d_plus, d_minus) in entries}, result)
    return result


def _power_terms(seeds, n: int) -> list[dict[tuple[int, int], int]]:
    """T_1..T_n, the Newton terms of t d/dt log PE[sum_k a_k t^k] for the
    seeds a_1, a_2, ... (anything whose items() are ((p, q), c) pairs):
    T_j = sum over k * r = j of k * psi^r(a_k), where psi^r moves (p, q) to
    (r*p, r*q).  Plain {(p, q): c} dicts, read by :func:`_newton` only."""
    terms: list[dict[tuple[int, int], int]] = [{} for _ in range(n)]
    for k, seed in enumerate(seeds, 1):
        for r in range(1, n // k + 1):
            term = terms[k * r - 1]
            for (p, q), c in seed.items():
                term[r * p, r * q] = term.get((r * p, r * q), 0) + k * c
    return terms


class _Layout:
    """Where :func:`_newton` packs a coefficient: (p, q), of weight d = (p+q)/2
    and level e = (p-q)/2, goes in slot d*W + e + R, R bounding |e| up to X_n
    and W = 2R + 1, so the point is at slot R, the origin, a product's entries
    at sums of offsets from it, and X_n in ``size`` slots.  As psi^r keeps p = q
    and PE[A + B] = PE[A] * PE[B], the diagonal part of the terms runs as a
    series F on ``diagonal`` (R = 0: one slot per weight) and the rest as L on
    this one, F's slot d moving L up d rows of ``row`` slots."""

    def __init__(self, terms, n, bits):
        # X_n has no level or weight past n * max_j (that of terms[j-1]) / j
        reach = max((abs(p - q) // 2 * n // j for j, t in enumerate(terms, 1)
                     for p, q in t), default=0)
        weight = max(((p + q) // 2 * n // j for j, t in enumerate(terms, 1)
                      for p, q in t), default=0)
        row = 2 * reach + 1
        self.origin, self.row, self.size = reach, row, (weight + 1) * row
        self.diagonal = type(self)((), n, bits) if reach else self
        # each term's entries on and off the diagonal, as sorted (bits * offset, c)
        self.shifts = [[] for _ in terms], [[] for _ in terms]
        for a, b, t in zip(*self.shifts, terms):
            for (p, q), c in t.items():
                w, part = (1, a) if p == q else (row, b)
                part.append((((p + q) // 2 * w + (p - q) // 2) * bits, c))
            a.sort()
            b.sort()

    def decode(self, coeffs, first):
        """((p, q), c) for each nonzero c of coeffs, in slots first, first + 1, ..."""
        width, reach = self.row, self.origin
        for slot, c in compress(enumerate(coeffs, first), coeffs):
            d, e = divmod(slot, width)
            yield (d + e - reach, d - e + reach), c


def _newton(terms: list[dict[tuple[int, int], int]], dimension: int):
    """coefficient(m), the decoder of X_m for 0 <= m <= len(terms), from
    m * X_m = sum_{j=1..m} terms[j-1] * X_(m-j), with X_0 the point, X_m of
    dimension m * dimension and each term a {(p, q): c} dict, c >= 0.  Odd
    degrees are rejected once, before any product: X_m adds term degrees.

    Each coefficient is one integer in the slots of :class:`_Layout`, and
    X_m = sum_i F_i * L_(m-i).  The recurrence on total dimensions bounds
    each coefficient of X_m, and so of F_m and L_m (no entry is negative),
    below 2^top.  A slot is top + n.bit_length() bits in whole 64-bit words,
    so no slot of m * F_m, m * L_m or X_m carries.

    A step adds shifted small multiples into acc and keeps quo = acc // m
    packed, accepted when acc % m == 0 and no slot of quo has a bit at or
    above top: then m * w < 2^bits for every slot w of quo, so every slot of
    acc is exactly m * w and none hides a remainder.  A failed test raises
    IntegralityViolation naming the first slot that m does not divide."""
    _reject_odd(pq for term in terms for pq in term)
    n, dims, totals = len(terms), [sum(t.values()) for t in terms], [1]
    for m in range(1, n + 1):
        totals.append(sum(d * x for d, x in zip(dims, reversed(totals))) // m)
    top = max(totals).bit_length()
    words = -(-(top + n.bit_length()) // 64)
    bits, size = 64 * words, 8 * words
    layout = _Layout(terms, n, bits)
    diag, off = layout.shifts
    del layout.shifts  # the decoder keeps the layout; the terms die with this call
    mask = int.from_bytes(((1 << bits) - (1 << top)).to_bytes(size, "little")
                          * layout.size, "little")
    native = words == 1 and sys.byteorder == "little"  # a slot is one native word

    def read(value):
        raw = value.to_bytes(-(-value.bit_length() // bits) * size, "little")
        return memoryview(raw).cast("Q") if native else [
            int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]

    def series(shifts, at):
        packed = [(1, at.origin * bits)]
        for m in range(1, n + 1):
            pairs = list(zip(reversed(packed), shifts))
            base = min((b + term[0][0] for (_, b), term in pairs if term), default=0)
            acc = sum(x * c << b + s - base for (x, b), term in pairs for s, c in term)
            quo, rem = divmod(acc, m)
            if rem or quo & mask:
                for pq, value in at.decode(read(acc), base // bits):
                    if value % m:
                        raise IntegralityViolation(
                            f"Newton sum {value} at {pq} does not divide by {m}")
                raise IntegralityViolation(
                    f"Newton step {m}: a quotient slot reaches 2^{top}, past the "
                    f"bound from total dimensions")
            packed.append((quo, base))
        return packed

    fs, joined = series(diag, layout.diagonal), any(off)
    if joined:
        ls, stride = series(off, layout), layout.row * bits
        # F_i as a shift list: its slot d moves L_(m-i) up d rows
        rows = [[((b // bits + d) * stride, f) for d, f in enumerate(read(x)) if f]
                for x, b in fs]

    def total(copies, lo, hi):
        # pairwise halving in order of offset: no partial sum spans far past
        # its parts, and at most one per level is alive
        if hi - lo == 1:
            o, x, f = copies[lo]
            return o, x * f
        mid = (lo + hi) // 2
        (o, v), (o1, v1) = total(copies, lo, mid), total(copies, mid, hi)
        return o, v + (v1 << o1 - o)

    def coefficient(m):
        (acc, base), at = fs[m], layout.diagonal
        if joined:
            copies = sorted((b + s, x, f) for (x, b), row
                            in zip(reversed(ls[:m + 1]), rows) for s, f in row)
            (base, acc), at = total(copies, 0, len(copies)), layout
            if acc & mask:
                raise IntegralityViolation(f"Newton coefficient {m}: a slot reaches "
                                           f"2^{top}, past the bound from total dimensions")
        return HodgeTable(dict(at.decode(read(acc), base // bits)), m * dimension)
    return coefficient


def _symmetric(surface: HodgeTable, n: int):
    _require_plain(surface)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _newton(_power_terms([surface], n), surface.dimension)


def sym_powers(surface: HodgeTable, n: int) -> list[HodgeTable]:
    """Diamonds of Sym^0..Sym^n of an even-degree table by Newton's recurrence
    m * S_m = sum_{k=1..m} psi^k(V) * S_(m-k) (Macdonald, The Poincare
    polynomial of a symmetric product, 1962).  A remainder in any division
    by m raises IntegralityViolation; a split table raises TypeError."""
    return list(map(_symmetric(surface, n), range(n + 1)))


def _invariants(table, n: int, which: str):
    _require_split(table)
    if which not in WHICH:
        raise ValueError(f"which must be one of {WHICH}, got {which!r}")
    if which == "Sn":
        return _symmetric(table.forget(), n)
    plus = _symmetric(table.plus_part(), n)
    if which == "G":
        return plus
    minus = _symmetric(table.minus_part(), n)
    return lambda m: direct_sum(plus(m), minus(m)) if m else plus(m)  # one point at 0


def invariant_dims(table: EquivHodgeTable, n: int, which: str) -> HodgeTable:
    """Dimensions of the invariants of V^(tensor n), graded by (p, q).

    ``which`` selects the acting group: "Sn" permutes factors only, "H"
    adds even-twist involutions, "G" all signed permutations.  The result
    is Sym^n(V) for "Sn", Sym^n(V_+) for "G" and Sym^n(V_+) (+) Sym^n(V_-)
    for "H".
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _invariants(table, n, which)(n)


def invariant_series(table: EquivHodgeTable, n_max: int, which: str) -> list[HodgeTable]:
    """:func:`invariant_dims` at n = 0..n_max (the point at 0), from one series."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return list(map(_invariants(table, n_max, which), range(n_max + 1)))


def class_sum_dims(table: EquivHodgeTable, n: int, which: str) -> HodgeTable:
    """Audit route for :func:`invariant_dims`: the class-sum average.

    (1/|group|) * sum over classes of size * class_trace must divide
    exactly; anything else raises IntegralityViolation.  "Sn" averages over
    G acting on the trivially split table, where every twist acts trivially.
    """
    _require_split(table)
    if which not in WHICH:
        raise ValueError(f"which must be one of {WHICH}, got {which!r}")
    if which == "Sn":
        table, which = EquivHodgeTable.trivial_split(table.forget()), "G"
    total: dict[tuple[int, int], int] = {}
    for ct, size in classes(n, which):
        for pq, c in class_trace(ct, table).items():
            total[pq] = total.get(pq, 0) + size * c
    return _average(total, group_order(n, which), n * table.dimension, "trace sum")


def sym_product(surface: HodgeTable, m: int) -> HodgeTable:
    """Hodge diamond of the m-th symmetric product; m = 0 gives the point."""
    return _symmetric(surface, m)(m)
