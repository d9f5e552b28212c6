"""Acceptance suite: every criterion at its stated (exact) tolerance.

Each criterion prints one PASS/FAIL line; run with ``pytest -s`` to see the
lines inline.  All comparisons are exact integer equalities.
"""

from hodgekit.bigraded import enriques, k3, k3_enriques
from hodgekit.cover import cover_diamond_n2, exceptional_orbits
from hodgekit.group import classes, group_order
from hodgekit.hilbert import euler_product_coefficients, hilbert_diamond, hilbert_series
from hodgekit.invariants import invariant_dims, sym_product
from hodgekit.oracle import projector_tables

from conftest import (
    enumerate_group,
    is_symmetric,
    satisfies_duality,
    seeded_equiv_tables,
    signed_cycle_type,
)


def _report(cid, description, failures):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {cid}: {status} - {description}")
    assert not failures, f"criterion {cid}: {failures}"


def test_criterion_01_group_census():
    failures = []
    for n in range(1, 9):
        for which in ("G", "H"):
            total = sum(size for _, size in classes(n, which))
            if total != group_order(n, which):
                failures.append((n, which, total))
    for n in range(1, 6):
        for which in ("G", "H"):
            census = {}
            for g in enumerate_group(n, which):
                ct = signed_cycle_type(g)
                census[ct] = census.get(ct, 0) + 1
            grouped = sorted(census.items())
            if grouped != classes(n, which):
                failures.append((n, which, "census mismatch"))
    _report("01", "group orders 2^n n! and 2^(n-1) n! for n=1..8; "
            "class census equals enumeration for n<=5", failures)


def test_criterion_02_h_one_top_vanishes():
    series = hilbert_series(enriques(), 6)
    failures = [(n, got) for n in range(2, 7)
                if (got := series[n][1, 2 * n - 1]) != 0]
    _report("02", "h^(1,2n-1) of Hilbert schemes of the Enriques surface "
            "vanishes for n=2..6", failures)


def test_criterion_03_second_betti_anchors():
    failures = []
    for n in range(2, 21):
        b2 = hilbert_diamond(enriques(), n).betti(2)
        if b2 != 11:
            failures.append(("enriques", n, b2))
    for n in range(2, 6):
        b2 = hilbert_diamond(k3(), n).betti(2)
        if b2 != 23:
            failures.append(("k3", n, b2))
    _report("03", "b2 = 11 for Enriques Hilbert schemes (n=2..20) and 23 for "
            "K3 Hilbert schemes (n=2..5)", failures)


def test_criterion_04_antiinvariant_top_slot():
    failures = [(n, got) for n in range(2, 9)
                if (got := invariant_dims(k3_enriques(), n, "H")[2 * n - 1, 1]) != 10]
    _report("04", "h^(2n-1,1) of the even-twist quotient equals 10 for "
            "n=2..8", failures)


def test_criterion_05_h2_of_the_cover():
    failures = [(n, got) for n in range(3, 9)
                if (got := invariant_dims(k3_enriques(), n, "H").betti(2)
                    + exceptional_orbits(n)) != 11]
    if exceptional_orbits(2) != 2:
        failures.append(("orbits-n2", exceptional_orbits(2)))
    failures += [("orbits", n, got) for n in range(3, 9)
                 if (got := exceptional_orbits(n)) != 1]
    _report("05", "dim H^2 of the double cover is 11 for n=3..8; "
            "exceptional orbits are 2 at n=2 and 1 beyond", failures)


def test_criterion_06_cover_diamond_n2():
    x = cover_diamond_n2()
    published = {(0, 0): 1, (1, 0): 0, (2, 0): 0, (1, 1): 12,
                 (3, 0): 0, (2, 1): 0, (4, 0): 1, (3, 1): 10}
    failures = [(pq, x[pq], want) for pq, want in published.items()
                if x[pq] != want]
    oracle = projector_tables(k3_enriques(), 2)["H"]
    expected_h22 = oracle[2, 2] + 2 * enriques()[1, 1]
    if x[2, 2] != expected_h22:
        failures.append(("h22-vs-oracle", x[2, 2], expected_h22))
    if x.euler() != 2 * hilbert_diamond(enriques(), 2).euler():
        failures.append(("euler-identity", x.euler()))
    _report("06", "double-cover diamond at n=2 matches the published slots; "
            "h^(2,2)=132 from the oracle and the Euler identity "
            "(published 131 noted as discrepancy)", failures)


def test_criterion_07_quotient_of_the_square():
    q = invariant_dims(k3_enriques(), 2, "H")
    failures = [(pq, q[pq], want)
                for pq, want in (((1, 1), 10), ((3, 1), 10), ((4, 0), 1))
                if q[pq] != want]
    oracle = projector_tables(k3_enriques(), 2)["H"]
    if q[2, 2] != oracle[2, 2] or q[2, 2] != 112:
        failures.append(("h22", q[2, 2], oracle[2, 2]))
    _report("07", "even-twist quotient of the squared K3: h^(1,1)=10, "
            "h^(3,1)=10, h^(4,0)=1, h^(2,2) equals the oracle value 112 "
            "(published 111 noted as discrepancy)", failures)


def test_criterion_08_oracle_equivalence():
    failures = []
    cases = [("preset", n, k3_enriques(), n) for n in (1, 2, 3)]
    cases += [("random", idx, random_table, 2)
              for idx, random_table in enumerate(seeded_equiv_tables(20))]
    for route, key, table, n in cases:
        oracle = projector_tables(table, n)
        for which in ("Sn", "G", "H"):
            if invariant_dims(table, n, which) != oracle[which]:
                failures.append((route, key, which))
    _report("08", "symmetric-power engine equals the projector oracle on the K3 "
            "preset (n=1..3, all groups) and on 20 seeded random tables "
            "(n=2)", failures)


def test_criterion_09_euler_generating_function():
    failures = []
    for name, surface in (("enriques", enriques()), ("k3", k3())):
        generating = euler_product_coefficients(surface.euler(), 20)
        for n, diamond in enumerate(hilbert_series(surface, 20)):
            if diamond.euler() != generating[n]:
                failures.append((name, n, diamond.euler(), generating[n]))
    _report("09", "assembled Euler numbers match the product generating "
            "function for both presets up to n=20", failures)


def test_criterion_10_structural_properties():
    failures = []
    produced = [cover_diamond_n2()]
    for n in range(1, 6):
        produced.append(hilbert_diamond(enriques(), n))
        produced.append(invariant_dims(k3_enriques(), n, "H"))
        produced.append(invariant_dims(k3_enriques(), n, "G"))
    for n in range(1, 6):
        produced.append(hilbert_diamond(k3(), n))
    for idx, table in enumerate(produced):
        if not is_symmetric(table):
            failures.append(("symmetry", idx))
        if not satisfies_duality(table):
            failures.append(("duality", idx))
    for idx, random_table in enumerate(seeded_equiv_tables(10, seed=906090)):
        try:
            invariant_dims(random_table, 3, "H")
        except Exception as exc:  # IntegralityViolation or worse
            failures.append(("integrality", idx, repr(exc)))
    for n in range(1, 6):
        if invariant_dims(k3_enriques(), n, "G") != sym_product(enriques(), n):
            failures.append(("full-group-vs-sym", n))
    _report("10", "all produced diamonds are conjugation-symmetric and "
            "Poincare-dual; averaged sums stay integral; full-group "
            "invariants equal symmetric products of the quotient surface "
            "for n<=5", failures)
