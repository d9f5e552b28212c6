"""Hodge diamonds of Hilbert schemes of points on a surface.

Goettsche's product (Math. Ann. 286, 1990) holds every diamond up to a bound:
H(t) = sum_n h(Hilb^n S) t^n = prod_{k>=1} sum_{a>=0} Sym^a(S) (uv)^((k-1)a) t^(ka),
where (uv)^j shifts a diamond diagonally by j.  H(t) is the plethystic
exponential of sum_k S (uv)^(k-1) t^k, so t d/dt log H(t) gives Newton's
recurrence n * H_n = sum_{j=1..n} Q_j * H_(n-j) for the whole series at once,
with Q_j = sum_{r | j} (j/r) (uv)^(j-r) psi^r(S) built from those seeds by the
same term builder as symmetric powers.
The Euler product prod_m (1 - q^m)^(-e) audits its Euler numbers independently.
"""

from __future__ import annotations

from .bigraded import HodgeTable, _require_plain, _require_surface
from .invariants import _newton, _power_terms


def _goettsche(surface: HodgeTable, n_max: int, even: HodgeTable | None = None):
    # at even levels k the seed is even * (uv)^(k-1) if given (cover_series)
    _require_plain(surface)
    _require_surface(surface, "Hilbert schemes need a surface", 2)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    levels = (surface, surface if even is None else even)
    seeds = ({(p + k, q + k): c for (p, q), c in levels[k % 2].items()} for k in range(n_max))
    return _newton(_power_terms(seeds, n_max), surface.dimension)


def hilbert_series(surface: HodgeTable, n_max: int) -> list[HodgeTable]:
    """Diamonds of Hilb^0..Hilb^n_max, each of dimension 2n, by
    Newton's recurrence n * H_n = sum_j Q_j * H_(n-j) on log H(t).  Before
    any term is built, raises TypeError for a split table and ValueError for
    a non-surface (dimension 2, Hodge symmetry, Serre duality): the product
    holds for surfaces only."""
    return list(map(_goettsche(surface, n_max), range(n_max + 1)))


def hilbert_diamond(surface: HodgeTable, n: int) -> HodgeTable:
    """Full Hodge diamond of the Hilbert scheme of n points: the t^n
    coefficient of the Goettsche product, the only one decoded.  Refuses a
    non-surface as :func:`hilbert_series` does."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _goettsche(surface, n)(n)


def euler_product_coefficients(e: int, n_max: int) -> list[int]:
    """Coefficients of q^0..q^n_max in prod_{m>=1} (1 - q^m)^(-e).  Each
    factor is the binomial series sum_k C(e+k-1, k) q^(mk), built by
    c_k = c_(k-1) (e+k-1) / k, which divides exactly for every integer e."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    coeffs = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        factor = {0: 1}
        for k in range(1, n_max // m + 1):
            factor[m * k] = factor[m * (k - 1)] * (e + k - 1) // k
        new = [0] * (n_max + 1)
        for base, c in enumerate(coeffs):
            if c == 0:
                continue
            for off, f in factor.items():
                if base + off <= n_max:
                    new[base + off] += c * f
        coeffs = new
    return coeffs
