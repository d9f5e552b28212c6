"""Blow-up centers, exceptional orbits, and the double-cover dimensions."""

import re

import pytest

from hodgekit import cover
from hodgekit.bigraded import EquivHodgeTable, enriques, k3_enriques
from hodgekit.cover import (
    _class_image,
    center_labels,
    cover_diamond_n2,
    exceptional_orbits,
)
from hodgekit.hilbert import hilbert_diamond
from hodgekit.invariants import invariant_dims

from conftest import (
    enumerate_group,
    is_symmetric,
    satisfies_duality,
    slot_twist,
    transposition,
)


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
