"""Hilbert diamonds from Newton's recurrence on the log of Goettsche's
product, the partition-sum reference and the Euler cross-check."""

import math
import re
from functools import reduce

import pytest
from hypothesis import given, settings

from hodgekit.bigraded import (
    HodgeTable,
    IntegralityViolation,
    direct_sum,
    enriques,
    k3,
    k3_enriques,
    point,
    tensor,
)
from hodgekit.hilbert import euler_product_coefficients, hilbert_diamond, hilbert_series
from hodgekit.invariants import sym_product

from conftest import corrupt_second_term, is_symmetric, satisfies_duality, surfaces


def partitions_of(n):
    """Partitions of n as multiplicity vectors (a_1, ..., a_n) with
    sum i*a_i = n, reverse-lexicographic."""
    found = []

    def rec(i, remaining, acc):
        if i > n:
            if remaining == 0:
                found.append(tuple(acc))
            return
        for a in range(remaining // i, -1, -1):
            rec(i + 1, remaining - i * a, acc + [a])

    rec(1, n, [])
    return sorted(found, reverse=True)


def diagonal_shift(table, k):
    return HodgeTable({(p + k, q + k): d for (p, q), d in table.items()},
                      table.dimension + k)


def partition_sum_diamond(surface, n):
    """Reference Hilbert diamond, independent of the Goettsche product: each
    partition alpha of n contributes the tensor product of the a_i-th
    symmetric products, shifted diagonally by n - (number of parts)."""
    total = HodgeTable({}, 0)
    for alpha in partitions_of(n):
        term = reduce(tensor, (sym_product(surface, a) for a in alpha), point())
        total = direct_sum(total, diagonal_shift(term, n - sum(alpha)))
    return total


class TestPartitions:
    """The enumerator the partition-sum reference rests on."""

    def test_singleton(self):
        assert partitions_of(1) == [(1,)]

    def test_two(self):
        assert partitions_of(2) == [(2, 0), (0, 1)]

    def test_count_five(self):
        assert len(partitions_of(5)) == 7

    def test_counts_up_to_eight(self):
        assert [len(partitions_of(n)) for n in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]

    def test_valid_multiplicity_vectors(self):
        for alpha in partitions_of(6):
            assert sum(i * a for i, a in enumerate(alpha, start=1)) == 6
            assert 1 <= sum(alpha) <= 6

    def test_reverse_lexicographic_order(self):
        alphas = partitions_of(4)
        assert alphas == sorted(alphas, reverse=True)
        assert alphas[0] == (4, 0, 0, 0)   # all single points first
        assert alphas[-1] == (0, 0, 0, 1)  # one thick point last


class TestPartitionSumReference:
    def test_presets_up_to_eight(self):
        for surface in (enriques(), k3()):
            for n in range(1, 9):
                assert hilbert_diamond(surface, n) == partition_sum_diamond(surface, n)

    # Goettsche's product holds for surfaces, the formula's only domain
    @given(surfaces())
    @settings(max_examples=25, deadline=None)
    def test_random_tables_up_to_eight(self, surface):
        for n in range(1, 9):
            assert hilbert_diamond(surface, n) == partition_sum_diamond(surface, n)


class TestHilbertDiamond:
    def test_one_point_is_the_surface(self):
        assert hilbert_diamond(enriques(), 1) == enriques()
        assert hilbert_diamond(k3(), 1) == k3()

    def test_enriques_b2_is_eleven(self):
        for n in range(2, 7):
            assert hilbert_diamond(enriques(), n)[1, 1] == 11

    def test_k3_square_classical_difference(self):
        # one more (1,1)-class than the symmetric square: 20 + 1
        assert hilbert_diamond(k3(), 2)[1, 1] == 21

    def test_k3_square_full_diamond(self):
        # classical table for the Hilbert square of a K3 surface
        d = hilbert_diamond(k3(), 2)
        assert d[2, 0] == 1 and d[1, 1] == 21
        assert d[4, 0] == 1 and d[3, 1] == 21 and d[2, 2] == 232
        assert d.betti(4) == 276
        assert d.euler() == 324

    def test_enriques_square_full_diamond(self):
        d = hilbert_diamond(enriques(), 2)
        assert d.items() == [((0, 0), 1), ((1, 1), 11), ((2, 2), 66),
                             ((3, 3), 11), ((4, 4), 1)]

    def test_symmetry_and_duality(self):
        for surface in (enriques(), k3()):
            for n in range(1, 5):
                d = hilbert_diamond(surface, n)
                assert is_symmetric(d)
                assert satisfies_duality(d)
                assert d.dimension == 2 * n

    def test_integrality_guard_trips_on_corrupted_log_term(self, monkeypatch):
        # Q_2 gains one class at (0, 0): 2 * H_2 there becomes 1 + 1 + 1
        from hodgekit import hilbert as mod

        corrupt_second_term(monkeypatch, mod)
        with pytest.raises(IntegralityViolation, match="does not divide by"):
            hilbert_diamond(enriques(), 2)

    def test_integrality_guard_trips_on_undecoded_log_step(self, monkeypatch):
        # the same corruption on k3 at n = 5: step 2 is checked on the packed
        # integers and never decoded into a table, yet names the entry
        from hodgekit import hilbert as mod

        corrupt_second_term(monkeypatch, mod)
        with pytest.raises(IntegralityViolation,
                           match=r"Newton sum 3 at \(0, 0\) does not divide by 2$"):
            hilbert_diamond(k3(), 5)


class TestHilbertSeries:
    def test_every_entry_equals_the_reference(self):
        series = hilbert_series(k3(), 5)
        assert series[0] == point()
        assert series[1:] == [partition_sum_diamond(k3(), n) for n in range(1, 6)]
        assert [d.dimension for d in series] == [0, 2, 4, 6, 8, 10]

    def test_empty_bound_is_the_point(self):
        assert hilbert_series(k3(), 0) == [point()]

    def test_negative_bound_refused(self):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            hilbert_series(k3(), -1)

    @pytest.mark.parametrize("dimension", [0, 1, 3])
    def test_non_surface_refused_before_any_term(self, dimension, monkeypatch):
        from hodgekit import hilbert as mod

        def refuse(*args):
            raise AssertionError("log term built for a non-surface")

        monkeypatch.setattr(mod, "_power_terms", refuse)
        table = HodgeTable({(dimension, dimension): 1}, dimension)
        with pytest.raises(ValueError, match=f"got dimension {dimension}"):
            hilbert_series(table, 2)
        with pytest.raises(ValueError, match=f"got dimension {dimension}"):
            hilbert_diamond(table, 2)

    @pytest.mark.parametrize("entries, named", [
        ({(0, 0): 1, (4, 4): 1}, "entry at (4, 4) exceeds dimension 2"),
        ({(0, 0): 1, (2, 0): 1, (2, 2): 1}, "Hodge symmetry fails: h^(2,0) = 1 but h^(0,2) = 0"),
        ({(0, 0): 1, (1, 1): 2}, "Serre duality fails: h^(0,0) = 1 but h^(2,2) = 0"),
    ])
    def test_non_geometric_surface_refused_before_any_term(self, entries, named,
                                                            monkeypatch):
        # a table with an entry past its dimension is refused when it is
        # built; the others are valid tables of dimension 2 that no surface has
        from hodgekit import hilbert as mod

        def refuse(*args):
            raise AssertionError("log term built for a non-geometric table")

        monkeypatch.setattr(mod, "_power_terms", refuse)
        with pytest.raises(ValueError, match=re.escape(named)):
            hilbert_series(HodgeTable(entries, 2), 2)
        with pytest.raises(ValueError, match=re.escape(named)):
            hilbert_diamond(HodgeTable(entries, 2), 2)


    @pytest.mark.parametrize("build", [hilbert_series, hilbert_diamond])
    def test_split_table_refused_before_any_term(self, build, monkeypatch):
        from hodgekit import hilbert as mod

        def refuse(*args):
            raise AssertionError("log term built for a split table")

        monkeypatch.setattr(mod, "_power_terms", refuse)
        with pytest.raises(TypeError, match=r"got EquivHodgeTable; call \.forget\(\)"):
            build(k3_enriques(), 2)

def series_euler(surface, n_max):
    return [d.euler() for d in hilbert_series(surface, n_max)]


class TestHOneTop:
    def test_enriques_vanishes(self):
        series = hilbert_series(enriques(), 6)
        for n in range(2, 7):
            assert series[n][1, 2 * n - 1] == 0

    def test_conjugate_slot_vanishes_too(self):
        for n in range(2, 7):
            assert hilbert_diamond(enriques(), n)[2 * n - 1, 1] == 0

    def test_k3_square_value(self):
        # nonzero for K3: the (1,3) slot of the Hilbert square is the
        # classical 21 = 20 + 1
        assert hilbert_series(k3(), 2)[2][1, 3] == 21


class TestEulerCheck:
    def test_enriques_row_two(self):
        assert series_euler(enriques(), 2)[2] == euler_product_coefficients(12, 2)[2] == 90

    def test_k3_first_rows(self):
        assert series_euler(k3(), 2) == euler_product_coefficients(24, 2) == [1, 24, 324]

    def test_passes_up_to_six(self):
        for surface in (enriques(), k3()):
            assert series_euler(surface, 6) == euler_product_coefficients(surface.euler(), 6)

    def test_generating_function_coefficients(self):
        assert euler_product_coefficients(12, 3) == [1, 12, 90, 520]
        assert euler_product_coefficients(24, 2) == [1, 24, 324]
        assert euler_product_coefficients(0, 3) == [1, 0, 0, 0]
        assert euler_product_coefficients(24, 0) == [1]

    @pytest.mark.parametrize("n_max", [-1, -5])
    def test_negative_bound_rejected(self, n_max):
        # as hilbert_series does, not an IndexError from an empty list
        with pytest.raises(ValueError, match=rf"^n_max must be >= 0, got {n_max}$"):
            euler_product_coefficients(24, n_max)

    def test_negative_exponent_gives_pentagonal_series(self):
        # prod (1 - q^m) = sum_j (-1)^j q^(j(3j-1)/2), Euler's pentagonal theorem
        pentagonal = [0] * 31
        for j in range(-5, 6):
            if j * (3 * j - 1) // 2 <= 30:
                pentagonal[j * (3 * j - 1) // 2] = (-1) ** j
        assert euler_product_coefficients(-1, 30) == pentagonal

    @pytest.mark.parametrize("e", [-24, -12, -2, -1, 0, 1, 2, 12, 24])
    def test_matches_two_branch_expansion(self, e):
        # the former expansion: a binomial series for e >= 0, a finite
        # (1 - q^m)^|e| for e < 0
        coeffs = [1] + [0] * 30
        for m in range(1, 31):
            if e >= 0:
                factor = {m * k: math.comb(e + k - 1, k) for k in range(1, 30 // m + 1)}
                factor[0] = 1
            else:
                factor = {m * k: (-1) ** k * math.comb(-e, k) for k in range(-e + 1)
                          if m * k <= 30}
            new = [0] * 31
            for base, c in enumerate(coeffs):
                for off, f in factor.items():
                    if base + off <= 30:
                        new[base + off] += c * f
            coeffs = new
        assert euler_product_coefficients(e, 30) == coeffs

    def test_custom_even_surface(self):
        # the assembly/generating-function identity is formal: it holds for
        # any even-degree symmetric table, not just the presets
        custom = HodgeTable({(0, 0): 1, (1, 1): 3, (2, 0): 2, (0, 2): 2,
                             (2, 2): 1}, 2)
        assert series_euler(custom, 4) == euler_product_coefficients(custom.euler(), 4)
