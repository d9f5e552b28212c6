"""Hodge diamonds of Hilbert schemes of points on a surface.

All diamonds up to a given n are coefficients of one truncated product
(Goettsche, Math. Ann. 286, 1990):

    sum_n h(Hilb^n S) t^n = prod_{k>=1} sum_{a>=0} Sym^a(S) (uv)^((k-1)a) t^(ka),

where (uv)^j shifts a diamond diagonally by j.  An independent
Euler-characteristic cross-check against the classical product generating
function prod_m (1 - q^m)^(-e) guards the assembly.
"""

from __future__ import annotations

import math

from .bigraded import HodgeTable, direct_sum, point, shift_by, tensor
from .invariants import sym_powers


class MismatchReport(RuntimeError):
    """Assembled Euler numbers disagree with the generating function."""

    def __init__(self, n: int, assembled: int, expected: int):
        self.n = n
        self.assembled = assembled
        self.expected = expected
        super().__init__(
            f"Euler mismatch at n={n}: assembled {assembled}, "
            f"generating function {expected}"
        )


def _hilbert_series(surface: HodgeTable, n_max: int) -> list[HodgeTable]:
    """Diamonds of Hilb^0..Hilb^n_max from one truncated Goettsche product."""
    sym = sym_powers(surface, n_max)
    empty = HodgeTable({}, 0)
    series = [point()] + [empty] * n_max
    for k in range(1, n_max + 1):
        new = list(series)  # the a = 0 term of the k-th factor
        for a in range(1, n_max // k + 1):
            factor = shift_by(sym[a], (k - 1) * a)
            for j in range(n_max - k * a + 1):
                new[j + k * a] = direct_sum(new[j + k * a], tensor(series[j], factor))
        series = new
    # declare each dimension as n * dim(S), so the weight bound checks it
    return [HodgeTable(dict(table.items()), n * surface.dimension)
            for n, table in enumerate(series)]


def hilbert_diamond(surface: HodgeTable, n: int) -> HodgeTable:
    """Full Hodge diamond of the Hilbert scheme of n points: the t^n
    coefficient of the Goettsche product."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _hilbert_series(surface, n)[n]


def h_one_top(surface: HodgeTable, n: int) -> int:
    """The (1, 2n-1) entry of the Hilbert-scheme diamond.

    Vanishes for surfaces with no (0, 1)/(0, 2) cohomology (e.g. Enriques
    surfaces); this is the obstruction slot for extra deformations of the
    universal cover.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return hilbert_diamond(surface, n)[1, 2 * n - 1]


def euler_product_coefficients(e: int, n_max: int) -> list[int]:
    """Coefficients of q^0..q^n_max in prod_{m>=1} (1 - q^m)^(-e)."""
    coeffs = [0] * (n_max + 1)
    coeffs[0] = 1
    for m in range(1, n_max + 1):
        if e >= 0:
            factor = {m * k: math.comb(e + k - 1, k)
                      for k in range(1, n_max // m + 1)}
            factor[0] = 1
        else:
            factor = {m * k: (-1) ** k * math.comb(-e, k) for k in range(-e + 1)
                      if m * k <= n_max}
        new = [0] * (n_max + 1)
        for base, c in enumerate(coeffs):
            if c == 0:
                continue
            for off, f in factor.items():
                if base + off <= n_max:
                    new[base + off] += c * f
        coeffs = new
    return coeffs


def euler_check(surface: HodgeTable, n_max: int) -> list[tuple[int, int, int]]:
    """Compare assembled Euler numbers with the generating function.

    Returns (n, assembled, generating-function) rows for n = 1..n_max; the
    two columns are computed along fully independent paths.  Raises
    MismatchReport at the first disagreement.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    expected = euler_product_coefficients(surface.euler(), n_max)
    series = _hilbert_series(surface, n_max)
    rows = []
    for n in range(1, n_max + 1):
        assembled = series[n].euler()
        if assembled != expected[n]:
            raise MismatchReport(n, assembled, expected[n])
        rows.append((n, assembled, expected[n]))
    return rows
