"""Blow-up centers, exceptional orbits, and the double-cover dimensions."""

import re

import pytest

from hodgekit import cover
from hodgekit.bigraded import (
    PRESETS,
    EquivHodgeTable,
    _require_surface,
    enriques,
    k3_enriques,
    load_surface_spec,
    preset,
)
from hodgekit.cover import (
    _class_image,
    center_labels,
    cover_diamond_n2,
    cover_series,
    exceptional_orbits,
)
from hodgekit.hilbert import euler_product_coefficients, hilbert_diamond, hilbert_series
from hodgekit.invariants import invariant_dims, invariant_series

from conftest import (
    enumerate_group,
    fock_diamond,
    is_symmetric,
    satisfies_duality,
    seeded_equiv_tables,
    slot_twist,
    transposition,
)
from golden.capture import GOLDEN_DIR


class TestBlowupAssemble:
    def test_center_label_contract(self):
        assert len(center_labels(4)) == 2 * 6


class TestCoverDiamond:
    def test_published_slots(self):
        x = cover_diamond_n2()
        assert x[0, 0] == 1
        assert x[1, 0] == 0
        assert x[2, 0] == 0
        assert x[1, 1] == 12
        assert x[3, 0] == 0
        assert x[2, 1] == 0
        assert x[4, 0] == 1
        assert x[3, 1] == 10

    def test_h22_from_euler_identity(self):
        # the (2,2) slot is pinned by euler(X) = 2 * euler of the Hilbert
        # square of the Enriques surface; the published 131 misses by one
        x = cover_diamond_n2()
        assert x.euler() == 2 * hilbert_diamond(enriques(), 2).euler() == 180
        assert x[2, 2] == 132

    def test_calabi_yau_signature(self):
        x = cover_diamond_n2()
        assert x[0, 0] == x[4, 0] == 1
        for k in (1, 2, 3):
            assert x[k, 0] == 0

    def test_symmetry_and_duality(self):
        x = cover_diamond_n2()
        assert is_symmetric(x)
        assert satisfies_duality(x)
        assert x.dimension == 4

    def test_explicit_table(self):
        assert cover_diamond_n2().items() == [
            ((0, 0), 1), ((0, 4), 1), ((1, 1), 12), ((1, 3), 10),
            ((2, 2), 132), ((3, 1), 10), ((3, 3), 12), ((4, 0), 1),
            ((4, 4), 1),
        ]

    @pytest.mark.parametrize("dimension", [0, 1, 3])
    def test_non_surface_refused_before_any_work(self, dimension, monkeypatch):
        def refuse(*args):
            raise AssertionError("quotient built for a non-surface")

        monkeypatch.setattr(cover, "class_sum_dims", refuse)
        table = EquivHodgeTable({(0, 0): (1, 0)}, dimension)
        with pytest.raises(ValueError, match=f"got dimension {dimension}"):
            cover_diamond_n2(table)

    @pytest.mark.parametrize("entries, named", [
        ({(0, 0): (1, 0), (2, 2): (1, 0), (3, 3): (0, 1)},
         "entry at (3, 3) exceeds dimension 2"),
        ({(0, 0): (1, 1), (2, 2): (1, 0)},
         "Serre duality fails in the - eigenspace: h^(0,0) = 1 but h^(2,2) = 0"),
        ({(0, 0): (1, 0), (2, 0): (1, 0), (2, 2): (1, 0)},
         "Hodge symmetry fails in the + eigenspace: h^(2,0) = 1 but h^(0,2) = 0"),
    ])
    def test_non_geometric_eigenspace_refused_before_any_work(self, entries, named,
                                                              monkeypatch):
        def refuse(*args):
            raise AssertionError("quotient built for a non-geometric table")

        monkeypatch.setattr(cover, "class_sum_dims", refuse)
        with pytest.raises(ValueError, match=re.escape(named)):
            cover_diamond_n2(EquivHodgeTable(entries, 2))


class TestExceptionalOrbits:
    def test_two_orbits_for_pairs(self):
        assert exceptional_orbits(2) == 2

    def test_single_orbit_from_three_on(self):
        for n in range(3, 9):
            assert exceptional_orbits(n) == 1

    def test_monotone_step(self):
        assert exceptional_orbits(3) < exceptional_orbits(2)

    def test_lower_bound(self):
        with pytest.raises(ValueError):
            exceptional_orbits(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_orbits_under_every_element(self, n):
        # A class is a slot pair {i, j} with a locus: the equal points
        # x_i = x_j, or the involution pair x_i = s(x_j).  Twisting exactly
        # one slot of the pair swaps the two loci; moving slots moves the pair.
        def image(g, pair, twisted_locus):
            moved = frozenset(g.perm[m] for m in pair)
            flips = sum(g.twist[m] for m in pair) % 2
            return moved, twisted_locus != bool(flips)

        unseen = {(frozenset((i, j)), locus) for i in range(n)
                  for j in range(i + 1, n) for locus in (False, True)}
        assert len(unseen) == n * (n - 1)
        group = enumerate_group(n, "H")
        orbits = 0
        while unseen:
            pair, locus = unseen.pop()
            unseen -= {image(g, pair, locus) for g in group}
            orbits += 1
        assert exceptional_orbits(n) == orbits

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_flood_fill_over_group_elements(self, n):
        # the same generators built as validated group elements, each class
        # moved by reading the element's twist vector slot by slot
        def image(g, label):
            i, j, kind = label
            a, b = g.perm[i], g.perm[j]
            return min(a, b), max(a, b), kind ^ g.twist[i] ^ g.twist[j]

        generators = [transposition(n, a, a + 1) for a in range(n - 1)]
        generators.append(slot_twist(n, (0, 1)))
        unseen = set(center_labels(n))
        orbits = 0
        while unseen:
            orbits += 1
            frontier = {unseen.pop()}
            while frontier:
                frontier = {image(g, c) for g in generators for c in frontier} & unseen
                unseen -= frontier
        assert exceptional_orbits(n) == orbits

    def test_class_action_follows_product_law(self):
        group = enumerate_group(3, "G")
        for a in group:
            for b in group:
                for label in center_labels(3):
                    assert (_class_image((a * b).pair, label)
                            == _class_image(a.pair, _class_image(b.pair, label)))


def h2_cover(n):
    """dim H^2 of the double cover: the quotient's b_2 plus one class per
    orbit of exceptional divisors."""
    return invariant_dims(k3_enriques(), n, "H").betti(2) + exceptional_orbits(n)


class TestH2Cover:
    def test_n2_matches_cover_diamond(self):
        x = cover_diamond_n2()
        assert h2_cover(2) == x[2, 0] + x[1, 1] + x[0, 2] == 12

    def test_stable_eleven(self):
        for n in range(3, 9):
            assert h2_cover(n) == 11

    def test_weight_two_invariant_part_alone(self):
        inv = invariant_dims(k3_enriques(), 3, "H")
        assert inv.betti(2) == 10


class TestHTopMinus:
    def test_all_ten(self):
        for n in range(2, 9):
            assert invariant_dims(k3_enriques(), n, "H")[2 * n - 1, 1] == 10

    def test_conjugate_slot(self):
        for n in (2, 3, 4):
            inv = invariant_dims(k3_enriques(), n, "H")
            assert inv[1, 2 * n - 1] == 10


def is_surface(table):
    try:
        _require_surface(table, "", 2)
    except ValueError:
        return False
    return True


#: The presets, the golden seeded surface, and every seeded split table
#: among 1,000 drawn that a surface can have.
SPLIT_SURFACES = ([preset(name) for name in sorted(PRESETS)]
                  + [load_surface_spec(GOLDEN_DIR / "specs" / "seeded-surface-3.json")[1]]
                  + [t for t in seeded_equiv_tables(1000, max_degree=2) if is_surface(t)])
SPLIT_SURFACE_IDS = [*sorted(PRESETS), "seeded-surface-3",
                     *(f"drawn-{i}" for i in range(len(SPLIT_SURFACES) - 4))]


@pytest.fixture(scope="module")
def series():
    return cover_series(k3_enriques(), 20)


def chi(table, p):
    """chi(Omega^p) of a diamond: sum_q (-1)^q h^{p,q}."""
    return sum((-1) ** q * table[p, q] for q in range(table.dimension + 1))


class TestCoverSeries:
    def test_invariant_part_is_the_hilbert_series_of_the_quotient(self, series):
        assert [x.plus_part() for x in series] == hilbert_series(enriques(), 20)
        assert [x.dimension for x in series] == [2 * n for n in range(21)]

    def test_first_terms_are_two_points_and_the_table(self, series):
        assert series[0] == EquivHodgeTable({(0, 0): (1, 1)}, 0)
        assert series[1] == k3_enriques()

    def test_b2_is_the_quotient_b2_plus_the_exceptional_orbits(self, series):
        assert [x.forget().betti(2) for x in series[2:]] == [12] + [11] * 18
        quotient = invariant_series(k3_enriques(), 8, "H")
        for n in range(2, 9):
            assert series[n].forget().betti(2) == quotient[n].betti(2) + exceptional_orbits(n)

    def test_calabi_yau_column(self, series):
        for n, x in enumerate(series[1:], 1):
            x = x.forget()
            assert [x[p, 0] for p in range(2 * n + 1)] == [1] + [0] * (2 * n - 1) + [1]

    def test_deformations_are_all_twisted(self, series):
        # h^{2n-1,1}(X) = h^1(T_X), and its twisted part is h^1(T_{E^[n]}):
        # both are 10, and the invariant part holds none (Theorem 1.1)
        for n, x in enumerate(series[2:], 2):
            assert x[2 * n - 1, 1] == (0, 10)

    def test_euler_numbers_are_twice_the_quotients(self, series):
        assert ([x.forget().euler() for x in series]
                == [2 * e for e in euler_product_coefficients(12, 20)])

    def test_both_parts_have_the_same_chi_y(self, series):
        # the deck involution is free, so its trace on each H^*(Omega^p) is 0
        for x in series:
            plus, minus = x.plus_part(), x.minus_part()
            assert [chi(plus, p) for p in range(x.dimension + 1)] == [
                chi(minus, p) for p in range(x.dimension + 1)]
            assert is_symmetric(minus) and satisfies_duality(minus)

    def test_n3_values(self, series):
        x = series[3].forget()
        assert (x[1, 1], x[2, 1], x[2, 2], x.euler()) == (11, 0, 87, 1040)

    def test_both_parts_equal_the_fock_count(self, series):
        plus, minus = k3_enriques().plus_part(), k3_enriques().minus_part()
        for n, x in enumerate(series[:6]):
            assert x.minus_part() == fock_diamond(minus, plus, n)
            assert x.plus_part() == fock_diamond(plus, plus, n)

    @pytest.mark.parametrize("table", SPLIT_SURFACES, ids=SPLIT_SURFACE_IDS)
    def test_n2_equals_the_blowup_audit(self, table):
        x = cover_series(table, 2)
        assert x[2].forget() == cover_diamond_n2(table)
        for n in (0, 1, 2):
            assert x[n].minus_part() == fock_diamond(table.minus_part(),
                                                     table.plus_part(), n)

    def test_split_surfaces_drawn(self):
        assert len(SPLIT_SURFACES) == 13

    @pytest.mark.parametrize("table, rule", [
        (preset("k3"), "e(V+) = e(V-) fails: 24 != 0"),
        (preset("enriques"), "e(V+) = e(V-) fails: 12 != 0"),
        (EquivHodgeTable({(0, 0): (1, 0), (1, 1): (4, 6), (2, 2): (1, 0)}, 2),
         "sum_q (-1)^q (h+^(0,q) - h-^(0,q)) = 0 fails: 1 != 0"),
    ], ids=["k3", "enriques", "holomorphic"])
    def test_involution_that_is_not_free_refused_past_n2(self, table, rule, monkeypatch):
        x = cover_series(table, 2)
        assert x[2].forget() == cover_diamond_n2(table)

        def refuse(*args):
            raise AssertionError("series built for an involution that is not free")

        monkeypatch.setattr(cover, "_goettsche", refuse)
        with pytest.raises(ValueError, match="past n = 2 needs a free involution.*"
                                             + re.escape(rule)):
            cover_series(table, 3)

    @pytest.mark.parametrize("table, error, named", [
        (k3_enriques().forget(), TypeError, "need an EquivHodgeTable"),
        (EquivHodgeTable({(0, 0): (1, 0)}, 3), ValueError,
         "the double cover needs a surface (dimension 2), got dimension 3"),
        (EquivHodgeTable({(0, 0): (1, 1), (2, 2): (1, 0)}, 2), ValueError,
         "Serre duality fails in the - eigenspace"),
    ], ids=["plain", "threefold", "not-dual"])
    def test_non_surface_refused_before_any_term(self, table, error, named, monkeypatch):
        def refuse(*args):
            raise AssertionError("series built for a non-surface")

        monkeypatch.setattr(cover, "_goettsche", refuse)
        with pytest.raises(error, match=re.escape(named)):
            cover_series(table, 3)

    def test_negative_bound_refused(self):
        with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
            cover_series(k3_enriques(), -1)
