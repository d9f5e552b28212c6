"""Invariant dimensions: the symmetric-power engine, the class-sum audit
route and its traces, symmetric products."""

import math
from array import array
from functools import reduce
from itertools import compress
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgekit import bigraded, cover, hilbert, oracle
from hodgekit import invariants as mod
from hodgekit.bigraded import (
    EquivHodgeTable,
    HodgeTable,
    OddCohomologyUnsupported,
    direct_sum,
    enriques,
    k3,
    k3_enriques,
    load_surface_spec,
    point,
    tensor,
)
from hodgekit.hilbert import (
    euler_product_coefficients,
    hilbert_diamond,
    hilbert_series,
)
from hodgekit.invariants import (
    WHICH,
    IntegralityViolation,
    _power_terms,
    class_sum_dims,
    class_trace,
    invariant_dims,
    invariant_series,
    sym_powers,
    sym_product,
)
from hodgekit.oracle import projector_tables

from conftest import (corrupt_second_term, equiv_tables, evaluate, is_symmetric,
                      satisfies_duality, seeded_equiv_tables, surfaces)
from golden.capture import GOLDEN_DIR


def adams(table, k):
    """psi^k as first written, a validated table: the entry at (p, q) moves
    to (k*p, k*q)."""
    return HodgeTable({(k * p, k * q): d for (p, q), d in table.items()},
                      k * table.dimension)


def log_term(surface, j):
    """Goettsche's Q_j = sum_{r | j} (j/r) (uv)^(j-r) psi^r(S) as first
    written: validated tables folded with tensor and direct_sum."""
    return reduce(direct_sum, (tensor(HodgeTable({(j - r, j - r): j // r}, j - r),
                                      adams(surface, r))
                               for r in range(1, j + 1) if j % r == 0))


def reference_newton(terms, dimension):
    """Newton's recurrence as first written: the j-th term wrapped as a
    validated table of dimension j * dimension, every product a validated
    tensor table, folded by direct sums.  A literal witness for the kernel."""
    terms = [HodgeTable(t, j * dimension) for j, t in enumerate(terms, 1)]
    xs = [point()]
    for m in range(1, len(terms) + 1):
        total = reduce(direct_sum, map(tensor, terms, reversed(xs)))
        entries = {}
        for pq, value in total.items():
            entries[pq], rem = divmod(value, m)
            assert rem == 0, (pq, value, m)
        xs.append(HodgeTable(entries, m * dimension))
    return xs


def assert_same_series(got, want):
    assert got == want
    assert [x.dimension for x in got] == [x.dimension for x in want]


class TestClassTrace:
    def test_untwisted_fixed_point_is_full_table(self):
        tr = class_trace(((1, 0),), k3_enriques())
        assert tr.get((1, 1), 0) == 20
        assert tr.get((2, 0), 0) == 1

    def test_twisted_fixed_point_is_signed_table(self):
        tr = class_trace(((1, 1),), k3_enriques())
        assert tr.get((1, 1), 0) == 0  # 10 invariant minus 10 anti-invariant
        assert (1, 1) not in tr  # zero coefficients are dropped
        assert tr.get((2, 0), 0) == -1
        assert tr.get((0, 0), 0) == 1

    def test_untwisted_2cycle_stretches_degrees(self):
        # (p, q) contributes at (2p, 2q); checked against the explicit swap
        # matrix on the squared basis (see test_oracle)
        tr = class_trace(((2, 0),), k3_enriques())
        assert tr.get((2, 2), 0) == 20
        assert tr.get((4, 0), 0) == 1
        assert tr.get((1, 1), 0) == 0
        assert sum(c for (p, q), c in tr.items() if p + q == 4) == 22

    def test_identity_class_is_tensor_power(self):
        tr = class_trace(((1, 0), (1, 0)), k3_enriques())
        assert tr.get((2, 2), 0) == 404
        assert tr.get((1, 1), 0) == 40

    def test_trace_is_the_product_of_its_cycle_factors(self):
        # k3_enriques's cycle factors, written out: a twisted cycle negates
        # the anti-invariant h^{2,0}, h^{0,2} and cancels h^{1,1}
        untwisted_1 = {(0, 0): 1, (0, 2): 1, (1, 1): 20, (2, 0): 1, (2, 2): 1}
        twisted_1 = {(0, 0): 1, (0, 2): -1, (1, 1): 0, (2, 0): -1, (2, 2): 1}
        twisted_2 = {(0, 0): 1, (0, 4): -1, (2, 2): 0, (4, 0): -1, (4, 4): 1}
        factors = [twisted_2, untwisted_1, twisted_1]
        tr = class_trace(((2, 1), (1, 0), (1, 1)), k3_enriques())
        assert tr == reduce(bigraded._product, factors)
        for u, v in ((2, 3), (-1, 5)):
            assert evaluate(tr, u, v) == math.prod(evaluate(f, u, v) for f in factors)


class TestInvariantDims:
    def test_quotient_of_square_headline_values(self):
        q = invariant_dims(k3_enriques(), 2, "H")
        assert q[1, 1] == 10
        assert q[3, 1] == 10
        assert q[4, 0] == 1
        assert q[2, 2] == 112  # published table prints 111; see test_acceptance
        assert q.dimension == 4

    def test_trivial_group_forgets_split(self):
        t = k3_enriques()
        assert invariant_dims(t, 1, "Sn") == t.forget()

    def test_full_group_on_single_factor_is_plus_part(self):
        t = k3_enriques()
        assert invariant_dims(t, 1, "G") == t.plus_part()

    def test_element_average_equals_class_average_small_tables(self):
        # class census path vs explicit element enumeration, n = 4
        small = EquivHodgeTable({(0, 0): (1, 0), (1, 1): (1, 1)}, 1)
        for which in ("G", "H"):
            assert (invariant_dims(small, 4, which)
                    == class_sum_dims(small, 4, which)
                    == projector_tables(small, 4)[which])

    # at most 18 labels per slot: 18^3 x |G| = 48 at n = 3 stays under the
    # work guard
    @given(equiv_tables(), st.sampled_from(WHICH))
    @settings(max_examples=40, deadline=None)
    def test_three_routes_agree(self, table, which):
        for n in range(1, 4):
            assert (invariant_dims(table, n, which)
                    == class_sum_dims(table, n, which)
                    == projector_tables(table, n)[which])
        for n in range(4, 7):
            assert invariant_dims(table, n, which) == class_sum_dims(table, n, which)

    @given(equiv_tables())
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_the_group(self, table):
        full = invariant_dims(table, 2, "G")
        even = invariant_dims(table, 2, "H")
        perms = invariant_dims(table, 2, "Sn")
        for pq, d in full.items():
            assert d <= even[pq]
        for pq, d in even.items():
            assert d <= perms[pq]

    @given(equiv_tables())
    @settings(max_examples=30, deadline=None)
    def test_integrality_on_random_tables(self, table):
        for n in (2, 3):
            for which in ("Sn", "G", "H"):
                result = invariant_dims(table, n, which)
                assert all(d > 0 for _, d in result.items())

    def test_full_group_matches_symmetric_product_of_quotient(self):
        for n in range(1, 5):
            assert (invariant_dims(k3_enriques(), n, "G")
                    == sym_product(enriques(), n))

    @pytest.mark.parametrize("which", WHICH)
    def test_series_reads_every_n(self, which):
        table = load_surface_spec(GOLDEN_DIR / "specs" / "seeded-threefold-1.json")[1]
        for split in (k3_enriques(), table):
            series = invariant_series(split, 6, which)
            assert series[0] == point()
            assert series[1:] == [invariant_dims(split, n, which) for n in range(1, 7)]

    def test_series_bad_bound(self):
        with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
            invariant_series(k3_enriques(), 0, "H")

    def test_bad_token(self):
        # both routes name every group token, Sn included
        for route in (invariant_dims, class_sum_dims):
            with pytest.raises(ValueError, match=r"which must be one of "
                                                 r"\('Sn', 'G', 'H'\), got 'A5'"):
                route(k3_enriques(), 2, "A5")

    @pytest.mark.parametrize("call", [
        lambda t: invariant_dims(t, 2, "H"),
        lambda t: invariant_series(t, 2, "H"),
        lambda t: class_sum_dims(t, 2, "H"),
        lambda t: class_trace(((1, 0),), t),
        lambda t: projector_tables(t, 2),
        lambda t: cover.cover_diamond_n2(t),
    ], ids=["invariant_dims", "invariant_series", "class_sum_dims", "class_trace",
            "projector_tables", "cover_diamond_n2"])
    def test_plain_table_refused_before_any_work(self, call, monkeypatch):
        # the split-table entry points name the type they got and the lift
        # to use, before any term, class, basis or surface check
        def refuse(*args):
            raise AssertionError("work done for a plain table")

        for module, name in [(mod, "_power_terms"), (mod, "classes"), (mod, "_product"),
                             (oracle, "_check_work"), (oracle, "_keyed_basis"),
                             (cover, "_require_surface")]:
            monkeypatch.setattr(module, name, refuse)
        with pytest.raises(TypeError, match=r"need an EquivHodgeTable, got HodgeTable; "
                                            r"lift it with EquivHodgeTable\.trivial_split$"):
            call(k3())

    def test_integrality_guard_trips_on_corrupted_census(self, monkeypatch):
        # unreachable with honest input: force it by doctoring a class size
        from hodgekit.group import classes

        doctored = [(ct, size + (1 if i == 0 else 0))
                    for i, (ct, size) in enumerate(classes(2, "H"))]
        monkeypatch.setattr(mod, "classes", lambda n, which: doctored)
        with pytest.raises(IntegralityViolation):
            class_sum_dims(k3_enriques(), 2, "H")

    def test_integrality_guard_trips_on_corrupted_newton_term(self, monkeypatch):
        # psi^2 gains one class at (0, 0): 2 * Sym^2 there becomes 1 + 2
        corrupt_second_term(monkeypatch, mod)
        with pytest.raises(IntegralityViolation, match="does not divide by"):
            invariant_dims(k3_enriques(), 2, "H")

    def test_integrality_guard_trips_on_undecoded_newton_step(self, monkeypatch):
        # the same corruption at n = 4: step 2 is checked on the packed
        # integers and never decoded into a table, yet names the entry
        corrupt_second_term(monkeypatch, mod)
        with pytest.raises(IntegralityViolation,
                           match=r"Newton sum 3 at \(0, 0\) does not divide by 2$"):
            invariant_dims(k3_enriques(), 4, "H")


class TestPowerTerms:
    @pytest.mark.parametrize("surfaces", [
        [k3()], [enriques()], [k3_enriques().plus_part()], [k3_enriques().minus_part()],
        [part for table in seeded_equiv_tables(20)
         for part in (table.plus_part(), table.minus_part())],
    ], ids=["k3", "enriques", "k3_enriques+", "k3_enriques-", "seeded"])
    def test_terms_equal_the_witness(self, surfaces):
        # seeds [V] give psi^j(V); seeds S (uv)^(k-1) give Goettsche's Q_j
        n = 40
        for surface in surfaces:
            shifted = [{(p + k, q + k): c for (p, q), c in surface.items()}
                       for k in range(n)]
            for seeds, witness in (([surface], adams), (shifted, log_term)):
                terms = _power_terms(seeds, n)
                assert len(terms) == n
                for j, term in enumerate(terms, 1):
                    assert term == dict(witness(surface, j).items()), (surface, j)


class TestNewtonKernel:
    @pytest.mark.parametrize("surface", [
        k3(), enriques(), k3_enriques().plus_part(), k3_enriques().minus_part()],
        ids=["k3", "enriques", "k3_enriques+", "k3_enriques-"])
    def test_sym_powers_equal_reference(self, surface):
        terms = [adams(surface, k) for k in range(1, 13)]
        assert_same_series(sym_powers(surface, 12),
                           reference_newton(terms, surface.dimension))

    def test_seeded_eigenparts_equal_reference(self):
        for table in seeded_equiv_tables(20):
            for part in (table.plus_part(), table.minus_part()):
                terms = [adams(part, k) for k in range(1, 7)]
                assert_same_series(sym_powers(part, 6),
                                   reference_newton(terms, part.dimension))

    @pytest.mark.parametrize("surface", [k3(), enriques()], ids=["k3", "enriques"])
    def test_hilbert_series_equal_reference(self, surface):
        terms = [log_term(surface, j) for j in range(1, 13)]
        assert_same_series(hilbert_series(surface, 12), reference_newton(terms, 2))

    def test_one_word_slots_on_a_big_endian_host(self, monkeypatch):
        # such a host's cast would read each little-endian word byte-swapped,
        # so there one-word slots take the int.from_bytes route of wider ones
        def big_endian(raw):
            swapped = array("Q", raw)
            swapped.byteswap()
            return memoryview(swapped).cast("B")

        monkeypatch.setattr(mod, "sys", SimpleNamespace(byteorder="big"))
        monkeypatch.setattr(mod, "memoryview", big_endian, raising=False)
        terms = [log_term(k3(), j) for j in range(1, 13)]
        assert_same_series(hilbert_series(k3(), 12), reference_newton(terms, 2))

    def test_multi_word_slots(self):
        # h^{1,1} = 2^40: the Sym^3 coefficients need two 64-bit words a slot
        surface = HodgeTable({(0, 0): 1, (1, 1): 2 ** 40, (2, 2): 1}, 2)
        terms = [adams(surface, k) for k in range(1, 4)]
        xs = sym_powers(surface, 3)
        assert_same_series(xs, reference_newton(terms, 2))
        assert max(d.bit_length() for _, d in xs[3].items()) > 64

    def test_two_word_slots_from_a_nonzero_base(self):
        # no (0, 0) entry, so every X_m starts past slot 0; every weight is
        # odd, so Sym^3 has weights 3, 5, 7, 9 and empty slots between; and
        # (2^40)^2 needs two 64-bit words a slot; (4, 2), (2, 4) add the
        # off-diagonal series and its join
        surface = HodgeTable({(1, 1): 2 ** 40, (3, 3): 1, (4, 2): 1, (2, 4): 1}, 4)
        terms = [adams(surface, k) for k in range(1, 4)]
        xs, want = sym_powers(surface, 3), reference_newton(terms, 4)
        for got, expected in zip(xs, want):
            assert got.items() == expected.items()
            assert got.dimension == expected.dimension
        weights = {(p + q) // 2 for p, q in xs[3].support()}
        assert weights == {3, 5, 7, 9}
        assert max(d.bit_length() for _, d in xs[3].items()) > 64

    def test_slot_width_boundary(self):
        # total(Sym^3) < 2^64 <= 3 * total(Sym^3): the step's sums need a
        # second word although every coefficient fits in one
        surface = HodgeTable({(0, 0): 1, (1, 1): 2 ** 22, (2, 2): 1}, 2)
        terms = [adams(surface, k) for k in range(1, 4)]
        xs = sym_powers(surface, 3)
        assert_same_series(xs, reference_newton(terms, 2))
        assert xs[3].total_dim() < 2 ** 64 <= 3 * xs[3].total_dim()

    @pytest.mark.parametrize("low, high", [(1, 2), (2 ** 64 + 3, 2)],
                             ids=["one-word", "past-2^64"])
    def test_mask_catches_what_the_whole_division_misses(self, low, high):
        # step 3 sums to `low` at (1, 1) and `high` at (2, 0), adjacent slots,
        # and low + high * 2^64 divides by 3 while `low` does not.  Past
        # 2^64, slots one word wide would carry: the quotient would read 1
        # and 1, under the mask; the n.bit_length() margin keeps them apart
        terms = [{}, {}, {(1, 1): low, (2, 0): high}]
        assert (low + (high << 64)) % 3 == 0
        with pytest.raises(IntegralityViolation,
                           match=rf"Newton sum {low} at \(1, 1\) does not divide by 3$"):
            mod._newton(terms, 1)(3)

    def test_understated_bound_is_refused(self, monkeypatch):
        # total dimensions that lie low set the bound to 2^1: step 1 divides
        # by 1 everywhere, but its entry 2 reaches the bound and is refused
        class Lying(dict):
            def values(self):
                return [1]

        surface = HodgeTable({(0, 0): 1, (1, 1): 2, (2, 2): 1}, 2)
        honest = mod._power_terms
        monkeypatch.setattr(mod, "_power_terms",
                            lambda seeds, n: [Lying(t) for t in honest(seeds, n)])
        with pytest.raises(IntegralityViolation,
                           match=r"Newton step 1: a quotient slot reaches 2\^1"):
            sym_product(surface, 1)
        # the same at the top slot, (2, 2): the mask reaches every slot
        with pytest.raises(IntegralityViolation,
                           match=r"Newton step 1: a quotient slot reaches 2\^1"):
            sym_product(HodgeTable({(0, 0): 1, (2, 2): 2}, 2), 1)
        # with off-diagonal entries every step of both series stays at 1,
        # and only the joined Sym^2 reaches 2 at (2, 2): F_2 + L_2 there
        split = HodgeTable({(1, 1): 1, (2, 0): 1, (0, 2): 1}, 2)
        with pytest.raises(IntegralityViolation,
                           match=r"Newton coefficient 2: a slot reaches 2\^1"):
            sym_product(split, 2)

    def test_hilbert_series_past_64_bits_keeps_euler_numbers(self):
        series = hilbert_series(k3(), 40)
        assert [h.euler() for h in series] == euler_product_coefficients(24, 40)
        assert max(d.bit_length() for _, d in series[40].items()) > 64

    @pytest.mark.parametrize("surface", [
        enriques(),
        k3_enriques().minus_part(),
        HodgeTable({(0, 0): 1, (4, 0): 2, (2, 2): 3}, 4),
    ], ids=["diagonal", "level-n", "entry-at-4-0"])
    def test_level_extremes_equal_reference(self, surface):
        terms = [adams(surface, k) for k in range(1, 9)]
        xs = sym_powers(surface, 8)
        assert_same_series(xs, reference_newton(terms, surface.dimension))
        reach = max(abs(p - q) // 2 for p, q in surface.support())
        assert max(abs(p - q) // 2 for p, q in xs[8].support()) == 8 * reach

    def test_seeded_threefolds_equal_reference(self):
        # entries up to degree 3, so most draws have dimension 3
        threefolds = [t for t in seeded_equiv_tables(20, max_degree=3)
                      if t.dimension == 3]
        assert len(threefolds) >= 10
        for table in threefolds:
            for part in (table.forget(), table.plus_part(), table.minus_part()):
                terms = [adams(part, k) for k in range(1, 7)]
                assert_same_series(sym_powers(part, 6),
                                   reference_newton(terms, part.dimension))

    def test_one_pass_and_one_table_per_coefficient(self, monkeypatch):
        # a work count, not a timing: one pass, then per coefficient read,
        # X_0 included, one table built and validated
        terms = _power_terms([k3()], 12)
        expected = reference_newton([adams(k3(), k) for k in range(1, 13)], 2)
        built, validated = [], []

        class Counted(HodgeTable):
            __slots__ = ()

            def __init__(self, entries, dimension):
                built.append(dimension)
                super().__init__(entries, dimension)

        honest_validate = bigraded._validated_entries

        def counted_validate(entries, dimension):
            validated.append(dimension)
            return honest_validate(entries, dimension)

        monkeypatch.setattr(mod, "HodgeTable", Counted)
        monkeypatch.setattr(bigraded, "_validated_entries", counted_validate)
        x = mod._newton(terms, 2)
        assert built == validated == []
        xs = [x(m) for m in range(13)]
        assert built == [2 * m for m in range(13)]
        assert validated == [2 * m for m in range(13)]
        assert_same_series(xs, expected)

    @pytest.mark.parametrize("name, want", [
        ("sym_powers", [2 * m for m in range(13)]),
        ("hilbert_series", [2 * m for m in range(13)]),
        ("sym_product", [24]),
        ("hilbert_diamond", [24]),
        ("invariant_dims", [24, 24]),
    ], ids=["sym_powers", "hilbert_series", "sym_product", "hilbert_diamond",
            "invariant_dims-H"])
    def test_only_returned_coefficients_are_validated(self, name, want, monkeypatch):
        # a work count, not a timing: the dimensions of the tables the kernel
        # and its decoder validate; a caller returning X_n alone reads no
        # X_0..X_(n-1)
        def series(terms_of, table):
            return reference_newton([terms_of(table, j) for j in range(1, 13)],
                                    table.dimension)

        pair = k3_enriques()
        call, expected = {
            "sym_powers": (lambda: sym_powers(k3(), 12),
                           lambda: series(adams, k3())),
            "hilbert_series": (lambda: hilbert_series(k3(), 12),
                               lambda: series(log_term, k3())),
            "sym_product": (lambda: sym_product(k3(), 12),
                            lambda: series(adams, k3())[12]),
            "hilbert_diamond": (lambda: hilbert_diamond(k3(), 12),
                                lambda: series(log_term, k3())[12]),
            "invariant_dims": (lambda: invariant_dims(pair, 12, "H"),
                               lambda: direct_sum(series(adams, pair.plus_part())[12],
                                                  series(adams, pair.minus_part())[12])),
        }[name]
        validated, inside = [], []
        honest_newton, honest_validate = mod._newton, bigraded._validated_entries

        def counted(call):
            def counted_call(*args):
                inside.append(True)
                try:
                    return call(*args)
                finally:
                    inside.clear()
            return counted_call

        def counted_newton(*args):
            return counted(counted(honest_newton)(*args))

        def counted_validate(entries, dimension):
            if inside:
                validated.append(dimension)
            return honest_validate(entries, dimension)

        monkeypatch.setattr(mod, "_newton", counted_newton)
        monkeypatch.setattr(hilbert, "_newton", counted_newton)
        monkeypatch.setattr(bigraded, "_validated_entries", counted_validate)
        got = call()
        assert validated == want
        monkeypatch.undo()
        assert got == expected()

    @pytest.mark.parametrize("name, want", [
        ("hilbert_diamond", 1), ("sym_product", 1), ("invariant_dims", 3)])
    def test_validated_tables_per_call(self, name, want, monkeypatch):
        # a work count, not a timing: every table validated once the input
        # exists.  The Newton terms are plain dicts, so only the returned
        # coefficients, and the direct sum of H's two parts, are validated
        surface, pair = k3(), k3_enriques()
        call = {"hilbert_diamond": lambda: hilbert_diamond(surface, 12),
                "sym_product": lambda: sym_product(surface, 12),
                "invariant_dims": lambda: invariant_dims(pair, 12, "H")}[name]
        validated = []
        honest_validate = bigraded._validated_entries

        def counted_validate(entries, dimension):
            validated.append(dimension)
            return honest_validate(entries, dimension)

        monkeypatch.setattr(bigraded, "_validated_entries", counted_validate)
        call()
        assert len(validated) == want

    def test_odd_degrees_refused_before_any_product(self, monkeypatch):
        # the kernel's first work is the slot-width bound from the terms'
        # total dimensions; no product can be formed without it
        class Unsized(dict):
            def values(self):
                raise AssertionError("slot width bounded before the odd-degree check")

        honest = mod._power_terms
        monkeypatch.setattr(mod, "_power_terms",
                            lambda seeds, n: [Unsized(t) for t in honest(seeds, n)])
        with pytest.raises(OddCohomologyUnsupported, match=r"at \(1, 0\)"):
            sym_powers(HodgeTable({(1, 0): 2}, 1), 40)


def goettsche_seeds(surface, n):
    """Goettsche's seeds S (uv)^(k-1) for k = 1..n."""
    return [{(p + k, q + k): c for (p, q), c in surface.items()} for k in range(n)]


class PlainLayout:
    """A second slot layout for the kernel: (p, q) in slot p * W + q, with W
    one past the top q of X_n and no halving, so the point is at slot 0 and
    an entry's offset is its slot.  The diagonal series F has one slot per p
    (:class:`PlainDiagonal`), and F's slot p moves L by p * (W + 1) slots.
    Keyed by (p, q) itself, it would hold odd entries too; here it runs on
    even ones only, and must give the tables of the production layout."""

    def __init__(self, terms, n, bits):
        top_p, top_q = (max((pq[i] * n // j for j, t in enumerate(terms, 1) for pq in t),
                            default=0) for i in (0, 1))
        self.width, self.origin, self.diagonal = top_q + 1, 0, PlainDiagonal()
        self.row, self.size = self.width + 1, (top_p + 1) * self.width
        self.shifts = ([sorted((p * bits, c) for (p, q), c in t.items() if p == q)
                        for t in terms],
                       [sorted(((p * self.width + q) * bits, c)
                               for (p, q), c in t.items() if p != q) for t in terms])

    def decode(self, coeffs, first):
        width = self.width
        return [(divmod(slot, width), c)
                for slot, c in compress(enumerate(coeffs, first), coeffs)]


class PlainDiagonal:
    """F's layout beside :class:`PlainLayout`: (p, p) in slot p."""
    origin = 0

    def decode(self, coeffs, first):
        return [((slot, slot), c) for slot, c in compress(enumerate(coeffs, first), coeffs)]


LAYOUTS = {"weight-level": mod._Layout, "plain": PlainLayout}


def under_each_layout():
    """Run the loop body once per layout, the kernel reading that layout."""
    for name, layout in LAYOUTS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mod, "_Layout", layout)
            yield name


def test_the_kernel_reads_the_layout_it_is_handed(monkeypatch):
    built = []

    class Counted(PlainLayout):
        def __init__(self, terms, n, bits):
            built.append(n)
            super().__init__(terms, n, bits)

    monkeypatch.setattr(mod, "_Layout", Counted)
    assert hilbert_diamond(k3(), 4) == hilbert_series(k3(), 4)[4]
    assert built == [4, 4]


class TestLevelSplit:
    """The kernel runs the diagonal and off-diagonal parts of the terms as
    two series and joins them; every layout must give the witness's series."""

    def assert_equals_reference(self, seeds, n, dimension):
        terms = _power_terms(seeds, n)
        want = reference_newton(terms, dimension)
        for _ in under_each_layout():
            x = mod._newton(terms, dimension)
            assert_same_series([x(m) for m in range(n + 1)], want)

    @pytest.mark.parametrize("n", [0, 1, 2, 20])
    @pytest.mark.parametrize("surface", [
        HodgeTable({(2, 0): 1, (0, 2): 1}, 2),
        HodgeTable({(4, 0): 2, (0, 4): 2}, 4),
        enriques(),
        HodgeTable({(0, 0): 1, (1, 1): 3, (2, 2): 1}, 2),
        k3(),
    ], ids=["off-only", "off-only-level-2", "enriques", "diagonal-only", "k3"])
    def test_series_equal_reference(self, surface, n):
        # Goettsche's seeds keep each entry's level, so an off-diagonal-only
        # surface leaves the diagonal series at the point
        self.assert_equals_reference([surface], n, surface.dimension)
        self.assert_equals_reference(goettsche_seeds(surface, n), n, surface.dimension)

    @given(surfaces())
    @settings(max_examples=8, deadline=None)
    def test_surfaces_equal_reference(self, surface):
        self.assert_equals_reference([surface], 20, 2)
        self.assert_equals_reference(goettsche_seeds(surface, 20), 20, 2)

    def test_seeded_threefolds_equal_reference(self):
        # the golden spec's threefold has off-diagonal entries in both
        # eigenspaces
        _, golden = load_surface_spec(GOLDEN_DIR / "specs" / "seeded-threefold-1.json")
        drawn = [t for t in seeded_equiv_tables(20, max_degree=3) if t.dimension == 3]
        for table in [golden, *drawn[:2]]:
            for part in (table.forget(), table.plus_part(), table.minus_part()):
                self.assert_equals_reference([part], 20, 3)

    @pytest.mark.parametrize("m", [0, 1, 2, 12])
    @pytest.mark.parametrize("surface", [
        HodgeTable({(0, 0): 1, (1, 1): 3, (2, 2): 1}, 2),
        HodgeTable({(2, 0): 1, (0, 2): 1}, 2),
        k3(),
        load_surface_spec(GOLDEN_DIR / "specs" / "seeded-threefold-1.json")[1].forget(),
    ], ids=["diagonal-only", "off-only", "k3", "seeded-threefold"])
    def test_each_coefficient_decodes_alone(self, surface, m, monkeypatch):
        # coefficient(m) read on its own, from a decoder nothing else has
        # read, is entry m of the full series and of the witness, and
        # validates exactly one table; X_0 is the point
        terms = _power_terms([surface], 12)
        want = reference_newton(terms, surface.dimension)
        validated = []
        honest_validate = bigraded._validated_entries

        def counted_validate(entries, dimension):
            validated.append(dimension)
            return honest_validate(entries, dimension)

        for _ in under_each_layout():
            full = mod._newton(terms, surface.dimension)
            x = mod._newton(terms, surface.dimension)
            validated.clear()
            monkeypatch.setattr(bigraded, "_validated_entries", counted_validate)
            got = x(m)
            assert validated == [m * surface.dimension]
            monkeypatch.undo()
            assert_same_series([got], [[full(k) for k in range(13)][m]])
            assert_same_series([got], [want[m]])
            if m == 0:
                assert got == point()

    @pytest.mark.parametrize("pq, total", [((0, 0), 3), ((2, 0), 1)],
                             ids=["diagonal", "off-diagonal"])
    def test_corrupted_term_names_its_entry(self, pq, total, monkeypatch):
        # one class more at pq in T_2 of k3: the diagonal series, or the
        # off-diagonal one, sums `total` there at step 2, which 2 does not
        # divide; n = 4, so step 2 is checked packed and never decoded
        honest = mod._power_terms

        def corrupted(seeds, n):
            terms = honest(seeds, n)
            terms[1][pq] = terms[1].get(pq, 0) + 1
            return terms

        monkeypatch.setattr(mod, "_power_terms", corrupted)
        for _ in under_each_layout():
            with pytest.raises(IntegralityViolation,
                               match=rf"Newton sum {total} at \({pq[0]}, {pq[1]}\) "
                                     rf"does not divide by 2$"):
                sym_product(k3(), 4)


def kernel_tables():
    """Every series the kernel builds for the presets and seeded tables, to
    n = 20, as (route, input, series): sym_powers, hilbert_series on
    surfaces, invariant_series."""
    seeded_surface = load_surface_spec(GOLDEN_DIR / "specs" / "seeded-surface-3.json")[1]
    threefold = load_surface_spec(GOLDEN_DIR / "specs" / "seeded-threefold-1.json")[1]
    split = [k3_enriques(), threefold, *seeded_equiv_tables(6)]
    surfaces = [k3(), enriques(), seeded_surface.forget()]
    return ([("sym", t, sym_powers(t, 20)) for t in surfaces + [t.forget() for t in split]]
            + [("hilb", s, hilbert_series(s, 20)) for s in surfaces]
            + [(which, t, invariant_series(t, 20, which)) for t in split for which in WHICH])


def test_plain_layout_gives_the_same_tables(monkeypatch):
    want = kernel_tables()
    monkeypatch.setattr(mod, "_Layout", PlainLayout)
    got = kernel_tables()
    assert len(got) == len(want) == 38
    for (_, _, series), (_, _, expected) in zip(got, want):
        assert_same_series(series, expected)


def sym_euler(e, n_max):
    """e(Sym^n V) = C(e + n - 1, n) for n = 0..n_max, V of Euler number e
    in even degrees only."""
    return [math.comb(e + n - 1, n) if n else 1 for n in range(n_max + 1)]


def euler_numbers(route, table, n_max):
    """The Euler numbers of a kernel series from its input's alone: Sym^n
    of the table for sym and Sn, of the + eigenspace for G, of each
    eigenspace summed for H (from n = 1: at n = 0 both are the one point),
    and Goettsche's Euler product for hilb.  An input has even degrees only,
    so its Euler number is its total dimension."""
    if route == "hilb":
        return euler_product_coefficients(table.total_dim(), n_max)
    if route in ("sym", "Sn"):
        return sym_euler(table.total_dim(), n_max)
    plus = sym_euler(table.plus_part().total_dim(), n_max)
    if route == "G":
        return plus
    minus = sym_euler(table.minus_part().total_dim(), n_max)
    return [1] + [a + b for a, b in zip(plus[1:], minus[1:])]


def assert_necessary(x, unit=True):
    """Hodge symmetry, Serre duality, Hard Lefschetz and, if unit, h^{0,0} = 1."""
    assert x[0, 0] == 1 or not unit, x
    assert is_symmetric(x), x
    assert satisfies_duality(x), x
    assert all(d <= x[p + 1, q + 1] for (p, q), d in x.items() if p + q < x.dimension), x


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_diamonds_meet_necessary_conditions(layout, monkeypatch):
    # Hodge symmetry, Serre duality, Hard Lefschetz and h^{0,0} = 1 on every
    # diamond the kernel returns, and the Euler numbers of every series it
    # builds.  These conditions are weak and count as no independent route,
    # but the Euler numbers catch what the rest miss (see the doubled seed
    # below)
    monkeypatch.setattr(mod, "_Layout", layout)
    diamonds = [x for s in (k3(), enriques())
                for x in hilbert_series(s, 20) + sym_powers(s, 20)]
    diamonds += [x for which in WHICH for x in invariant_series(k3_enriques(), 20, which)]
    assert len(diamonds) == 147
    for x in diamonds:
        assert_necessary(x)
    for route, table, series in kernel_tables():
        assert [x.euler() for x in series] == euler_numbers(route, table, 20), (route, table)


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_seeded_diamonds_meet_necessary_conditions(layout, monkeypatch):
    # the same conditions on the golden seeded surface and threefold;
    # h^{0,0} = 1 holds only where the input has it, and the threefold's V-
    # has h^{0,0} = 2, so its sym, Sn and H series are spared that one
    monkeypatch.setattr(mod, "_Layout", layout)
    surface = load_surface_spec(GOLDEN_DIR / "specs" / "seeded-surface-3.json")[1].forget()
    threefold = load_surface_spec(GOLDEN_DIR / "specs" / "seeded-threefold-1.json")[1]
    unit = (hilbert_series(surface, 20) + sym_powers(surface, 20)
            + invariant_series(threefold, 20, "G"))
    other = (sym_powers(threefold.forget(), 20) + invariant_series(threefold, 20, "Sn")
             + invariant_series(threefold, 20, "H"))
    assert threefold.forget()[0, 0] == 3 and len(unit) == len(other) == 63
    for x in unit:
        assert_necessary(x)
    for x in other:
        assert_necessary(x, unit=False)


def test_only_euler_numbers_catch_a_doubled_goettsche_seed(monkeypatch):
    # a kernel fed twice Goettsche's k = 2 seed keeps the other necessary
    # conditions for n <= 6; its Euler numbers are off from n = 2
    def doubled(seeds, n):
        seeds = list(seeds)
        seeds[1] = {pq: 2 * c for pq, c in seeds[1].items()}
        return _power_terms(seeds, n)

    monkeypatch.setattr(hilbert, "_power_terms", doubled)
    series = hilbert_series(k3(), 6)
    for x in series:
        assert_necessary(x)
    got, want = [x.euler() for x in series], euler_numbers("hilb", k3(), 6)
    assert got[:2] == want[:2]
    assert (got[2], want[2]) == (348, 324)
    assert all(g != w for g, w in zip(got[2:], want[2:]))


class TestSymProduct:
    def test_zeroth_power_is_point(self):
        assert sym_product(enriques(), 0) == HodgeTable({(0, 0): 1}, 0)

    def test_powers_list_every_degree(self):
        # Sym^m of a 24-dimensional space has dimension C(24 + m - 1, m)
        powers = sym_powers(k3(), 6)
        assert [s.total_dim() for s in powers] == [math.comb(23 + m, m) for m in range(7)]
        assert [s.dimension for s in powers] == [0, 2, 4, 6, 8, 10, 12]

    def test_odd_entries_propagate_rejection(self):
        odd = HodgeTable({(1, 0): 2}, 1)
        with pytest.raises(OddCohomologyUnsupported):
            sym_product(odd, 2)

    @pytest.mark.parametrize("build", [sym_powers, sym_product])
    def test_split_table_refused_before_any_term(self, build, monkeypatch):
        def refuse(*args):
            raise AssertionError("Newton term built for a split table")

        monkeypatch.setattr(mod, "_power_terms", refuse)
        with pytest.raises(TypeError, match=r"got EquivHodgeTable; call \.forget\(\)"):
            build(k3_enriques(), 2)

    def test_first_power_is_identity(self):
        assert sym_product(enriques(), 1) == enriques()
        assert sym_product(k3(), 1) == k3()

    def test_enriques_square(self):
        s = sym_product(enriques(), 2)
        assert s[1, 1] == 10
        assert s[2, 2] == 56

    def test_k3_square(self):
        s = sym_product(k3(), 2)
        assert s[2, 0] == 1
        assert s[1, 1] == 20
        assert s[2, 2] == 212

    def test_multiset_oracle(self):
        # dim of the degree-(p,q) piece of the m-th symmetric power equals
        # the number of size-m multisets of basis labels with that total
        # degree; enumerate them directly
        import itertools

        for surface, m in ((enriques(), 3), (k3(), 2)):
            labels = []
            for (p, q), d in surface.items():
                labels += [(p, q)] * d
            counts = {}
            for comb in itertools.combinations_with_replacement(labels, m):
                key = (sum(p for p, _ in comb), sum(q for _, q in comb))
                counts[key] = counts.get(key, 0) + 1
            assert dict(sym_product(surface, m).items()) == counts
