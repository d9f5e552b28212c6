"""Independent checks of the benchmark's outputs.

Nothing here imports hodgekit or follows its algorithms: hodgekit sums
graded traces over conjugacy classes and over partitions, while the exact
references below expand exponential generating functions.

- ``Sym^n`` of a bigraded space comes from the power-sum recurrence
  n S_n = sum_k psi^k(V) S_{n-k}, where psi^k scales bidegrees by k
  (Macdonald, The Poincare polynomial of a symmetric product, 1962).  The
  quotient of V^n by G is Sym^n(V+), by H it is Sym^n(V+) + Sym^n(V-), and
  by S_n it is Sym^n(V).
- The Hilbert scheme of n points comes from the Gottsche-Soergel product
  prod_k prod_{p,q} (1 - x^{p+k-1} y^{q+k-1} t^k)^(-h^{p,q}), expanded
  through its logarithm (even-degree surfaces, so no signs).
- Coarser checks need no recurrence at all: binomial total dimensions,
  the Euler number against prod_m (1 - q^m)^(-e) via Euler's divisor-sum
  recurrence, Hodge symmetry and Serre duality, and goldens captured from
  the program for the inputs that do not depend on the seed.
"""

from __future__ import annotations

import json
import math

Poly = dict  # (p, q) -> exact integer coefficient, zeros never stored


def _add_product(acc: Poly, a: Poly, b: Poly) -> None:
    for (p, q), c in a.items():
        for (u, v), d in b.items():
            key = (p + u, q + v)
            acc[key] = acc.get(key, 0) + c * d


def _exp_series(power_sums: list[Poly], n: int) -> Poly:
    """Z_n where sum_m Z_m t^m = exp(sum_j P_j t^j / j), by
    m Z_m = sum_{j=1..m} P_j Z_{m-j}; every division must be exact."""
    z = [{(0, 0): 1}]
    for m in range(1, n + 1):
        acc: Poly = {}
        for j in range(1, m + 1):
            _add_product(acc, power_sums[j], z[m - j])
        term = {}
        for key, c in acc.items():
            value, rem = divmod(c, m)
            if rem:
                raise ArithmeticError(f"inexact division by {m} at {key}")
            if value:
                term[key] = value
        z.append(term)
    return z[n]


def sym_power(v: Poly, n: int) -> Poly:
    """Bigraded dimensions of Sym^n(V) for V of even degrees only."""
    psi = [{}] + [{(k * p, k * q): c for (p, q), c in v.items()}
                  for k in range(1, n + 1)]
    return _exp_series(psi, n)


def hilbert_diamond(surface: Poly, n: int) -> Poly:
    """Hodge diamond of the Hilbert scheme of n points on an even-degree
    surface; the t^m power sum is sum_{k | m} k * psi^{m/k}(S (xy)^{k-1})."""
    power_sums: list[Poly] = [{}]
    for m in range(1, n + 1):
        term: Poly = {}
        for k in range(1, m + 1):
            if m % k:
                continue
            i = m // k
            for (p, q), h in surface.items():
                key = (i * (p + k - 1), i * (q + k - 1))
                term[key] = term.get(key, 0) + k * h
        power_sums.append(term)
    return _exp_series(power_sums, n)


def euler_coefficient(e: int, n: int) -> int:
    """Coefficient of q^n in prod_{m>=1} (1 - q^m)^(-e), by
    m c_m = e * sum_{j=1..m} sigma(j) c_{m-j}."""
    sigma = [0] + [sum(d for d in range(1, j + 1) if j % d == 0)
                   for j in range(1, n + 1)]
    c = [1]
    for m in range(1, n + 1):
        value, rem = divmod(e * sum(sigma[j] * c[m - j] for j in range(1, m + 1)), m)
        if rem:
            raise ArithmeticError(f"inexact division by {m}")
        c.append(value)
    return c[n]


def _parts(surface: dict) -> tuple[Poly, Poly, Poly]:
    """(V, V+, V-) of a [p, q, d_plus, d_minus] surface spec."""
    whole, plus, minus = {}, {}, {}
    for p, q, d_plus, d_minus in surface["hodge"]:
        for poly, d in ((whole, d_plus + d_minus), (plus, d_plus), (minus, d_minus)):
            if d:
                poly[p, q] = d
    return whole, plus, minus


def quotient_diamond(surface: dict, n: int, group: str) -> Poly:
    whole, plus, minus = _parts(surface)
    if group == "Sn":
        return sym_power(whole, n)
    out = dict(sym_power(plus, n))
    if group == "H":
        for key, c in sym_power(minus, n).items():
            out[key] = out.get(key, 0) + c
    return out


def quotient_total(surface: dict, n: int, group: str) -> int:
    """C(N+n-1, n) for Sn, C(N+ + n-1, n) for G, plus C(N- + n-1, n) for H."""
    whole, plus, minus = (sum(part.values()) for part in _parts(surface))
    if group == "Sn":
        return math.comb(whole + n - 1, n)
    total = math.comb(plus + n - 1, n)
    return total + math.comb(minus + n - 1, n) if group == "H" else total


def _symmetry_failures(diamond: Poly, top: int) -> list[str]:
    out = []
    for (p, q), d in sorted(diamond.items()):
        if diamond.get((q, p), 0) != d:
            out.append(f"Hodge symmetry fails at ({p}, {q})")
        if diamond.get((top - p, top - q), 0) != d:
            out.append(f"Serre duality at dimension {top} fails at ({p}, {q})")
    return out


def _diamond(payload: dict) -> tuple[int, Poly]:
    return payload["dimension"], {(p, q): d for p, q, d in payload["hodge"]}


def _perturbed(expected):
    """A deliberately wrong copy of an expected value (negative control)."""
    if isinstance(expected, dict):
        key = min(expected)
        return {**expected, key: expected[key] + 1}
    return expected + 1


def check_case(case: dict, output: dict, golden: dict | None,
               corrupt: bool = False) -> list[str]:
    """Every failed check of one output; empty when the output is right.

    With ``corrupt`` the first expected value is deliberately wrong, so the
    case must fail: the negative control of the benchmark's self-check.
    """
    failures: list[str] = []

    def expect(what, expected, actual):
        if corrupt and not expect.used:
            expected, expect.used = _perturbed(expected), True
        if expected != actual:
            failures.append(f"{what}: expected {str(expected)[:80]!r}, "
                            f"got {str(actual)[:80]!r}")
    expect.used = False

    if golden is not None:
        expect("golden", golden, output)
    n = case.get("n")
    if case["op"] == "quotient":
        dimension, diamond = _diamond(output)
        expect("reference diamond",
               quotient_diamond(case["surface"], n, case["group"]), diamond)
        expect("total dimension",
               quotient_total(case["surface"], n, case["group"]),
               sum(diamond.values()))
    else:
        expect("exit code", 0, output["exit"])
        if case["op"] == "audit":
            return failures
        dimension, diamond = _diamond(json.loads(output["stdout"]))
        surface = _parts(case["surface"])[0]
        expect("reference diamond", hilbert_diamond(surface, n), diamond)
        expect("Euler number",  # even degrees only: e is the total dimension
               euler_coefficient(sum(surface.values()), n),
               sum((-1) ** (p + q) * d for (p, q), d in diamond.items()))
    top = n * case["surface"]["dimension"]
    expect("dimension", top, dimension)
    failures += _symmetry_failures(diamond, top)
    return failures
