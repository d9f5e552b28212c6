"""Projector oracle: signed permutations on explicit tensor bases."""

import ast
import itertools
from pathlib import Path
from types import SimpleNamespace

import pytest

from hodgekit import cli, group, oracle
from hodgekit.bigraded import EquivHodgeTable, IntegralityViolation, k3_enriques
from hodgekit.group import WHICH, WORK_GUARD, TooLarge, census_series, group_order
from hodgekit.invariants import class_trace, invariant_dims
from hodgekit.oracle import projector_tables

from conftest import (
    GroupElement,
    enumerate_group,
    identity,
    seeded_equiv_tables,
    signed_cycle_type,
    slot_twist,
    transposition,
)


# The literal witness: every label of the explicit basis moved one by one,
# sharing no helper with the oracle's per-kind pass.

def slot_labels(table):
    """Labels for one tensor factor: (p, q, eigen, index), the bidegree, the
    eigen-sign (+1/-1) under the involution and the position inside that
    eigenspace."""
    return [(p, q, eigen, i) for (p, q), (d_plus, d_minus) in table.items()
            for eigen, dim in ((1, d_plus), (-1, d_minus)) for i in range(dim)]


def labeled_basis(table, n):
    """All basis labels of the n-th tensor power: tuples of slot labels."""
    return list(itertools.product(slot_labels(table), repeat=n))


def as_slot_labels(basis):
    """The oracle's labels as the witness's: each slot's index inside its
    piece, joined to the (p, q, eigen) piece that its kind holds."""
    return [tuple((*piece, i) for piece, i in zip(kind, label))
            for kind, (_, labels) in basis.items() for label in labels]


def apply_element(g, label):
    """Image of a basis label under a signed permutation, with its sign.

    Twisted slots contribute the eigen-sign of their current label, then the
    slots are permuted.  Even degrees only, so permuting factors itself
    carries no sign.
    """
    moved = [label[0]] * g.n
    for m, target in enumerate(g.perm):
        moved[target] = label[m]
    sign = 1
    for m, t in enumerate(g.twist):
        if t:
            sign *= label[m][2]
    return tuple(moved), sign


def degree(label):
    return sum(s[0] for s in label), sum(s[1] for s in label)


def element_trace(g, table):
    """Signed count of fixed labels per bidegree: the graded matrix trace."""
    sums = {}
    for lab in labeled_basis(table, g.n):
        moved, sign = apply_element(g, lab)
        if moved == lab:
            sums[degree(lab)] = sums.get(degree(lab), 0) + sign
    return {k: v for k, v in sums.items() if v}


class TestBasis:
    def test_slot_count_is_total_dim(self):
        t = k3_enriques()
        assert len(slot_labels(t)) == t.total_dim() == 24

    def test_labels_unique(self):
        labels = labeled_basis(k3_enriques(), 2)
        assert len(labels) == 24 ** 2
        assert len(set(labels)) == len(labels)

    def test_keyed_basis(self):
        cases = [(k3_enriques(), n) for n in (1, 2)]
        cases += [(table, n) for table in seeded_equiv_tables(8) for n in (1, 2, 3)]
        for table, n in cases:
            keyed = oracle._keyed_basis(table, n)
            labels = labeled_basis(table, n)
            # each label, joined to its kind, is a witness label, once
            assert sorted(labels) == sorted(as_slot_labels(keyed))
            assert len(set(labels)) == len(labels) == table.total_dim() ** n

    @pytest.mark.parametrize("n", [9, 20])
    def test_sn_enumeration_guard(self, n, monkeypatch):
        # one label per slot, but |G| alone exceeds the work guard, which
        # must trip before a single permutation is generated
        def refuse(*args):
            raise AssertionError("permutations enumerated past the guard")

        monkeypatch.setattr(itertools, "permutations", refuse)
        with pytest.raises(TooLarge, match=f"1 labels per slot x the elements of G "
                                           f"at n = {n} exceed the work guard"):
            projector_tables(EquivHodgeTable({(0, 0): (1, 0)}, 0), n)

    def test_work_guard(self, monkeypatch):
        # 1 label x |G| at n = 8 exceeds the work guard, which must trip
        # before the group is enumerated
        def refuse(*args):
            raise AssertionError("group enumerated past the work guard")

        monkeypatch.setattr(oracle, "_elements", refuse)
        with pytest.raises(TooLarge, match=f"1 labels per slot x the elements of G "
                                           f"at n = 8 exceed the work guard {WORK_GUARD}"):
            projector_tables(EquivHodgeTable({(0, 0): (1, 0)}, 0), 8)

    def test_work_guard_before_basis(self, monkeypatch):
        # 10^4 labels x |G| at n = 4 exceeds the work guard, which must trip
        # before the basis is built
        def refuse(*args):
            raise AssertionError("basis built past the work guard")

        monkeypatch.setattr(oracle, "_keyed_basis", refuse)
        with pytest.raises(TooLarge, match=f"10 labels per slot x the elements of G "
                                           f"at n = 4 exceed the work guard {WORK_GUARD}"):
            projector_tables(EquivHodgeTable({(0, 0): (10, 0)}, 0), 4)

    def test_work_guard_boundary_at_n3(self, monkeypatch):
        # 27^3 labels x |G| = 48 is 944,784 checks and is computed; 28^3 x 48
        # is 1,053,696 and is refused before the basis is built
        table = EquivHodgeTable({(0, 0): (14, 13)}, 0)
        out = projector_tables(table, 3)
        for which in WHICH:
            assert out[which] == invariant_dims(table, 3, which)

        def refuse(*args):
            raise AssertionError("basis built past the work guard")

        monkeypatch.setattr(oracle, "_keyed_basis", refuse)
        with pytest.raises(TooLarge, match="28 labels per slot x the elements of G at n = 3"):
            projector_tables(EquivHodgeTable({(0, 0): (14, 14)}, 0), 3)

    def test_huge_n_refused_without_the_order(self, monkeypatch):
        # 2^n * n! at n = 10^6 takes seconds; the guard must not compute it
        def refuse(k):
            raise AssertionError("factorial computed by the work guard")

        monkeypatch.setattr(group, "math", SimpleNamespace(factorial=refuse))
        with pytest.raises(TooLarge, match="24 labels per slot x the elements of G "
                                           "at n = 1000000"):
            projector_tables(k3_enriques(), 10 ** 6)


class TestApplyElement:
    def test_identity_fixes_everything(self):
        lab = labeled_basis(k3_enriques(), 2)[7]
        assert apply_element(identity(2), lab) == (lab, 1)

    def test_double_twist_on_antiinvariant_pair(self):
        minus = next(s for s in slot_labels(k3_enriques()) if s[2] == -1)
        lab = (minus, minus)
        assert apply_element(slot_twist(2, (0, 1)), lab) == (lab, 1)

    def test_single_twist_sign(self):
        minus = next(s for s in slot_labels(k3_enriques()) if s[2] == -1)
        plus = next(s for s in slot_labels(k3_enriques()) if s[2] == +1)
        moved, sign = apply_element(slot_twist(2, (0,)), (minus, plus))
        assert moved == (minus, plus)
        assert sign == -1

    def test_swap_moves_without_sign(self):
        a, b = slot_labels(k3_enriques())[:2]
        moved, sign = apply_element(transposition(2, 0, 1), (a, b))
        assert moved == (b, a)
        assert sign == 1

    def test_action_is_a_homomorphism(self):
        labels = labeled_basis(k3_enriques(), 2)[:40]
        els = enumerate_group(2, "G")
        for a in els:
            for b in els:
                for lab in labels[::7]:
                    via_b, s1 = apply_element(b, lab)
                    via_ab, s2 = apply_element(a, via_b)
                    direct, s = apply_element(a * b, lab)
                    assert (via_ab, s1 * s2) == (direct, s)


class TestElementTraces:
    def test_swap_trace_matches_stretched_table(self):
        tr = element_trace(transposition(2, 0, 1), k3_enriques())
        assert tr == {(0, 0): 1, (2, 2): 20, (4, 0): 1, (0, 4): 1, (4, 4): 1}

    def test_each_element_matches_class_trace(self):
        # the trace-polynomial formula reproduces every explicit matrix trace
        table = k3_enriques()
        for n in (1, 2):
            for g in enumerate_group(n, "G"):
                expected = class_trace(signed_cycle_type(g), table)
                assert element_trace(g, table) == expected

    def test_every_element_matches_at_n3(self):
        table = k3_enriques()
        for g in enumerate_group(3, "G"):
            assert element_trace(g, table) == class_trace(signed_cycle_type(g), table)


class TestProjector:
    def test_headline_values(self):
        out = projector_tables(k3_enriques(), 2)["H"]
        assert out[2, 2] == 112
        assert out[1, 1] == 10

    def test_single_factor_full_group_gives_quotient(self):
        out = projector_tables(k3_enriques(), 1)["G"]
        assert out[1, 1] == 10
        assert out == k3_enriques().plus_part()

    def test_agrees_with_class_sum_on_preset(self):
        table = k3_enriques()
        for n in (1, 2, 3):
            out = projector_tables(table, n)
            for which in WHICH:
                assert out[which] == invariant_dims(table, n, which)

    def test_agrees_on_seeded_random_tables(self):
        for table in seeded_equiv_tables(8):
            out = projector_tables(table, 2)
            for which in WHICH:
                assert out[which] == invariant_dims(table, 2, which)

    def test_empty_minus_part_reduces_to_plain_symmetric(self):
        plain = EquivHodgeTable({(0, 0): (2, 0), (1, 1): (3, 0)}, 1)
        out = projector_tables(plain, 2)
        # twists act trivially when nothing is anti-invariant
        assert out["Sn"] == out["H"]

    @pytest.mark.parametrize("which", ["Sn", "G", "H"])
    def test_equals_literal_average(self, which):
        # (1/|group|) * sum over every element of its signed fixed labels,
        # each label moved by apply_element: no sharing between elements
        cases = [(table, n) for table in seeded_equiv_tables(8) for n in (1, 2, 3)]
        cases += [(k3_enriques(), n) for n in (1, 2)]
        for table, n in cases:
            elements = enumerate_group(n, which)
            sums = {}
            for g in elements:
                for lab in labeled_basis(table, n):
                    moved, sign = apply_element(g, lab)
                    if moved == lab:
                        sums[degree(lab)] = sums.get(degree(lab), 0) + sign
            expected = {}
            for deg, value in sums.items():
                dim, rem = divmod(value, len(elements))
                assert rem == 0
                if dim:
                    expected[deg] = dim
            out = projector_tables(table, n)[which]
            assert dict(out.items()) == expected

    @pytest.mark.parametrize("which", WHICH)
    def test_visits_every_element_and_scans_each_permutation_once(
            self, which, monkeypatch):
        # one pass for all three groups: G enumerated once, one basis, one
        # scan per permutation, and each group credited with its own elements
        table, n = k3_enriques(), 3
        enumerated, built, scanned, credited = [], [], [], {w: [] for w in WHICH}
        current, asked = [], []
        elements_, keyed_basis = oracle._elements, oracle._keyed_basis
        fixed_counts, groups_containing = oracle._fixed_counts, oracle._groups_containing

        def elements_counted(n):
            enumerated.append(n)
            for perm in elements_(n):
                current[:] = [perm]
                yield perm

        def keyed_counted(table, n):
            built.append(n)
            return keyed_basis(table, n)

        def scan(perm, basis):
            scanned.append((perm, sum(len(labels) for _, labels in basis.values())))
            return fixed_counts(perm, basis)

        def groups(mask):
            # membership is asked by the twist bitmask alone, of the
            # permutation just enumerated
            perm, = current
            asked.append((perm, mask))
            out = groups_containing(mask)
            for w in out:
                credited[w].append(GroupElement(
                    perm, tuple((mask >> m) & 1 for m in range(n))))
            return out

        monkeypatch.setattr(oracle, "_elements", elements_counted)
        monkeypatch.setattr(oracle, "_keyed_basis", keyed_counted)
        monkeypatch.setattr(oracle, "_fixed_counts", scan)
        monkeypatch.setattr(oracle, "_groups_containing", groups)
        out = projector_tables(table, n)
        assert enumerated == [n]
        assert built == [n]
        perms = list(itertools.permutations(range(n)))
        assert scanned == [(perm, table.total_dim() ** n) for perm in perms]
        # once per element: each permutation with every twist mask, in order
        assert asked == [(perm, mask) for perm in perms for mask in range(2 ** n)]
        assert credited[which] == enumerate_group(n, which)
        assert out[which] == invariant_dims(table, n, which)

    def test_miscredited_element_refused(self, monkeypatch):
        # a membership filter that lets one odd-twist element into H must
        # fail loudly rather than average over a non-group
        groups_containing = oracle._groups_containing
        leaked = []

        def leaky(mask):
            out = groups_containing(mask)
            if mask.bit_count() % 2 and not leaked:
                leaked.append(mask)
                out = [*out, "H"]
            return out

        monkeypatch.setattr(oracle, "_groups_containing", leaky)
        order = group_order(3, "H")
        with pytest.raises(IntegralityViolation,
                           match=f"{order + 1} elements credited to H at n = 3"):
            projector_tables(k3_enriques(), 3)
        assert len(leaked) == 1

    def test_groups_containing_reads_the_twist_count(self):
        # the per-element rule agrees with the twist count, and with the
        # in-H flag of the element's signed cycle type in the census
        census = census_series(5)
        for n in range(1, 6):
            in_h = {ct: flag for ct, _, flag in census[n]}
            for perm in group._elements(n):
                for mask in range(1 << n):
                    twist = tuple((mask >> m) & 1 for m in range(n))
                    expected = {"G"}
                    if sum(twist) == 0:
                        expected.add("Sn")
                    if sum(twist) % 2 == 0:
                        expected.add("H")
                    groups = group._groups_containing(mask)
                    assert set(groups) == expected
                    ct = signed_cycle_type(GroupElement(perm, twist))
                    assert ("H" in groups) == in_h[ct]


def reference_fixed_counts(perm, basis):
    """Label-by-label fixed counts per kind, with no kind-level test: every
    label of every kind is compared at every moved slot, piece and index."""
    moves = [(m, target) for m, target in enumerate(perm) if m != target]
    counts = {}
    for kind, (_, labels) in basis.items():
        fixed = 0
        for label in labels:
            for m, target in moves:
                if (kind[target], label[target]) != (kind[m], label[m]):
                    break
            else:
                fixed += 1
        if fixed:
            counts[kind] = fixed
    return counts


class TestKindLevelScan:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_label_by_label_scan(self, n):
        for table in [k3_enriques(), *seeded_equiv_tables(8)]:
            basis = oracle._keyed_basis(table, n)
            for perm in itertools.permutations(range(n)):
                assert oracle._fixed_counts(perm, basis) == reference_fixed_counts(perm, basis)

    def test_sign_keys_give_bidegree_and_anti_invariant_slots(self):
        basis = oracle._keyed_basis(k3_enriques(), 3)
        for kind, (((p, q), mask), _) in basis.items():
            assert (p, q) == (sum(s[0] for s in kind), sum(s[1] for s in kind))
            assert [(mask >> m) & 1 for m in range(3)] == [
                int(eigen == -1) for _, _, eigen in kind]

    def test_flipped_sign_bit_is_caught(self, monkeypatch):
        # negative control: one kind's sign flipped under a twist makes the
        # oracle disagree with the engine, and check 090 fail
        keyed_basis = oracle._keyed_basis
        flipped = ((1, 1, -1),)

        def corrupted(table, n):
            basis = keyed_basis(table, n)
            if flipped in basis:
                (pq, mask), labels = basis[flipped]
                basis[flipped] = (pq, mask & ~1), labels
            return basis

        monkeypatch.setattr(oracle, "_keyed_basis", corrupted)
        table = k3_enriques()
        assert projector_tables(table, 1)["G"] != invariant_dims(table, 1, "G")
        status = {r.check_id: r.status for r in cli.run_paper_checks(3)}
        assert status["090-oracle-equiv-n1"] == "fail"
        assert status["090-oracle-equiv-n2"] == status["090-oracle-equiv-n3"] == "pass"


def test_oracle_imports_only_bigraded_and_group():
    # the oracle shares no code with the production route, and with the
    # class-sum route only what bigraded holds: the table type and its
    # exact average
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
            if node.level:
                modules.update(names)
                continue
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        modules.update(name.removeprefix("hodgekit.") for name in names
                       if name.startswith("hodgekit"))
    assert modules == {"bigraded", "group"}
