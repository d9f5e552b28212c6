"""Deck groups: enumeration, composition law, signed cycle types, census."""

import ast
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgekit import group
from hodgekit.bigraded import IntegralityViolation
from hodgekit.group import (
    WHICH,
    WORK_GUARD,
    TooLarge,
    census_series,
    classes,
    element_census,
    group_order,
)

from conftest import (
    GroupElement,
    enumerate_group,
    identity,
    signed_cycle_type,
    slot_twist,
    transposition,
)


def inverse(g):
    """The inverse of a signed permutation."""
    inv = [0] * g.n
    for m, im in enumerate(g.perm):
        inv[im] = m
    return GroupElement(tuple(inv), tuple(g.twist[inv[j]] for j in range(g.n)))


def act(g, x):
    """Apply g to a labeled tuple whose entries are (symbol, bit) pairs: the
    twist toggles the bit, then slots are permuted."""
    assert len(x) == g.n
    out = [None] * g.n
    for m in range(g.n):
        sym, bit = x[m]
        out[g.perm[m]] = (sym, bit ^ g.twist[m])
    return tuple(out)


@st.composite
def elements(draw, n):
    perm = tuple(draw(st.permutations(range(n))))
    twist = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return GroupElement(perm, twist)


class TestEnumeration:
    def test_orders_up_to_4(self):
        for n in range(1, 5):
            assert len(enumerate_group(n, "G")) == 2 ** n * math.factorial(n)
            assert len(enumerate_group(n, "H")) == 2 ** (n - 1) * math.factorial(n)
            assert len(enumerate_group(n, "Sn")) == math.factorial(n)

    def test_n1_full_group(self):
        assert enumerate_group(1, "G") == [identity(1), slot_twist(1, (0,))]

    def test_n2_even_subgroup(self):
        expected = {
            identity(2),
            transposition(2, 0, 1),
            slot_twist(2, (0, 1)),
            transposition(2, 0, 1) * slot_twist(2, (0, 1)),
        }
        assert set(enumerate_group(2, "H")) == expected

    def test_no_duplicates_and_containment(self):
        for n in (2, 3):
            g = enumerate_group(n, "G")
            h = enumerate_group(n, "H")
            assert len(set(g)) == len(g)
            assert set(h) < set(g)

    def test_single_twist_never_in_even_subgroup(self):
        for n in range(1, 6):
            h = set(enumerate_group(n, "H"))
            for i in range(n):
                assert slot_twist(n, (i,)) not in h

    @pytest.mark.parametrize("which, largest", [("G", 7)])
    def test_largest_enumerable_n(self, which, largest):
        # the one guard admits exactly the orders of G up to WORK_GUARD
        assert group_order(largest, which) <= WORK_GUARD < group_order(largest + 1, which)
        group._check_work(largest)
        with pytest.raises(TooLarge, match=f"the elements of G at n = {largest + 1} "):
            group._check_work(largest + 1)

    @pytest.mark.parametrize("which", WHICH)
    def test_huge_n_refused_without_the_order(self, which, monkeypatch):
        # 2^n * n! at n = 10^6 takes seconds; the guard must not compute it,
        # whichever group's elements are asked for
        def refuse(k):
            raise AssertionError("factorial computed by the work guard")

        monkeypatch.setattr(group, "math", SimpleNamespace(factorial=refuse))
        with pytest.raises(TooLarge, match="G at n = 1000000"):
            enumerate_group(10 ** 6, which)

    @pytest.mark.parametrize("which", WHICH)
    def test_elements_are_the_enumeration(self, which):
        # each permutation once, in itertools order; with every twist mask,
        # the membership rule credits each group exactly its order, and the
        # witness keeps the same elements, in order
        import itertools

        for n in range(1, 6):
            walk = list(group._elements(n))
            assert walk == list(itertools.permutations(range(n)))
            kept = [GroupElement(perm, tuple((mask >> m) & 1 for m in range(n)))
                    for perm in walk for mask in range(2 ** n)
                    if which in group._groups_containing(mask)]
            assert len(kept) == group_order(n, which)
            assert enumerate_group(n, which) == kept

    @pytest.mark.parametrize("which", ["G", "H"])
    def test_order_bound(self, which, monkeypatch):
        # both orders at n = 8 exceed the bound; no element may be built,
        # and the refusal names the one walk of G that both witnesses filter
        import itertools

        def refuse(*args, **kwargs):
            raise AssertionError("elements enumerated past the order bound")

        monkeypatch.setattr(itertools, "permutations", refuse)
        monkeypatch.setattr(itertools, "product", refuse)
        assert group_order(8, which) > WORK_GUARD
        with pytest.raises(TooLarge, match="the elements of G at n = 8 "
                                           f"exceed the work guard {WORK_GUARD}"):
            enumerate_group(8, which)

    @pytest.mark.parametrize("which", WHICH)
    def test_elements_refused_before_any_pair(self, which, monkeypatch):
        # the orders of G and H at n = 8 exceed the bound; the walk of G
        # trips the work guard at the call, before a permutation is
        # generated.  Every group's witness filters this one walk (see
        # test_elements_are_the_enumeration), so Sn's is refused too,
        # though 8! is below the guard
        import itertools

        def refuse(*args, **kwargs):
            raise AssertionError("elements generated past the work guard")

        monkeypatch.setattr(itertools, "permutations", refuse)
        monkeypatch.setattr(itertools, "product", refuse)
        assert group_order(8, "G") > group_order(8, "H") > WORK_GUARD > group_order(8, "Sn")
        with pytest.raises(TooLarge, match="the elements of G at n = 8 "
                                           f"exceed the work guard {WORK_GUARD}"):
            enumerate_group(8, which)

    def test_bad_token(self):
        # every group function that takes a token refuses an unknown one
        with pytest.raises(ValueError, match="unknown group token 'K'"):
            group_order(2, "K")
        with pytest.raises(ValueError, match=r"which must be one of \('G', 'H'\), got 'K'"):
            classes(2, "K")

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("which", WHICH)
    def test_order_refuses_n_below_1(self, n, which):
        # an exact order or a clear refusal: never 2^-1 * 0! = 0.5, and a
        # bad token is named before a bad n
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            group_order(n, which)
        with pytest.raises(ValueError, match="unknown group token 'K'"):
            group_order(n, "K")


class TestCompositionLaw:
    @given(st.data())
    @settings(max_examples=60)
    def test_matches_action_on_tuples(self, data):
        n = data.draw(st.integers(1, 5))
        a = data.draw(elements(n))
        b = data.draw(elements(n))
        x = tuple((sym, data.draw(st.integers(0, 1))) for sym in range(n))
        assert act(a * b, x) == act(a, act(b, x))

    @given(st.data())
    @settings(max_examples=40)
    def test_associativity_and_inverses(self, data):
        n = data.draw(st.integers(1, 5))
        a, b, c = (data.draw(elements(n)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * inverse(a) == identity(n)
        assert inverse(a) * a == identity(n)

    @given(st.data())
    @settings(max_examples=40)
    def test_twist_parity_is_homomorphism(self, data):
        n = data.draw(st.integers(1, 5))
        a = data.draw(elements(n))
        b = data.draw(elements(n))
        assert (a * b).twist_parity() == (a.twist_parity() + b.twist_parity()) % 2

    def test_parity_kernel_is_h(self):
        for n in (2, 3):
            h = set(enumerate_group(n, "H"))
            for g in enumerate_group(n, "G"):
                assert (g in h) == (g.twist_parity() == 0)


class TestSignedCycleType:
    def test_identity_type(self):
        for n in (1, 3):
            assert signed_cycle_type(identity(n)) == ((1, 0),) * n

    def test_double_twist_two_twisted_fixed_points(self):
        assert signed_cycle_type(slot_twist(2, (0, 1))) == ((1, 1), (1, 1))

    def test_swap_with_double_twist_untwisted_2cycle(self):
        g = transposition(2, 0, 1) * slot_twist(2, (0, 1))
        assert signed_cycle_type(g) == ((2, 0),)

    def test_canonical_ordering(self):
        # walked from slot 0 the cycles come as 1~, 3, 1, 3~; the type sorts
        # them by descending length, then parity
        g = GroupElement((0, 2, 3, 1, 4, 6, 7, 5), (1, 0, 0, 0, 0, 1, 0, 0))
        assert signed_cycle_type(g) == ((3, 0), (3, 1), (1, 0), (1, 1))

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        els = enumerate_group(3, "G")
        for _ in range(50):
            g, u = rng.choice(els), rng.choice(els)
            conj = u * g * inverse(u)
            assert signed_cycle_type(conj) == signed_cycle_type(g)


def class_size(ct):
    """Closed-form number of elements of G with the given signed cycle type.

    With a_l^t cycles of length l and parity t, the centralizer in G has
    order prod_l (2l)^{a_l^0 + a_l^1} * a_l^0! * a_l^1!, which gives

        n! * prod_l 2^{(l-1)(a_l^0 + a_l^1)} / prod_l l^{a_l^0+a_l^1} a_l^0! a_l^1!
    """
    counts = {}
    for part in ct:
        counts[part] = counts.get(part, 0) + 1
    num = math.factorial(sum(length for length, _ in ct))
    den = 1
    for (length, _parity), mult in counts.items():
        num *= 2 ** ((length - 1) * mult)
        den *= length ** mult * math.factorial(mult)
    size, rem = divmod(num, den)
    assert rem == 0
    return size


class TestClasses:
    def test_sizes_sum_to_order(self):
        for n in range(1, 17):
            for which in ("G", "H"):
                assert sum(s for _, s in classes(n, which)) == group_order(n, which)

    def test_n2_even_subgroup_census(self):
        sizes = sorted(s for _, s in classes(2, "H"))
        assert sizes == [1, 1, 2]

    def test_census_matches_enumeration(self):
        for n in range(1, 6):
            for which in ("G", "H"):
                census = {}
                for g in enumerate_group(n, which):
                    ct = signed_cycle_type(g)
                    census[ct] = census.get(ct, 0) + 1
                grouped = sorted(census.items())
                assert grouped == classes(n, which)
                if which == "G":
                    assert element_census(n) == grouped

    @pytest.mark.parametrize("n", [6, 7])
    def test_census_matches_the_formula_past_enumeration(self, n):
        # 46,080 and 645,120 elements, up to 7 cycles per permutation: the
        # walk's parity words against the cycle-index side
        assert element_census(n) == [row[:2] for row in census_series(n)[n]]

    @pytest.mark.parametrize("which", ["G"])
    def test_census_refuses_a_short_tally(self, which, monkeypatch):
        # a walk that drops one permutation, and so its 2^4 elements, must
        # not yield a census
        elements_ = group._elements

        def drop_last(n):
            return list(elements_(n))[:-1]

        monkeypatch.setattr(group, "_elements", drop_last)
        order = group_order(4, which)
        with pytest.raises(IntegralityViolation,
                           match=f"{order - 2 ** 4} elements tallied for {which} at n = 4, "
                                 f"not its order {order}"):
            element_census(4)

    def test_sizes_match_closed_form(self):
        # the recursion's centralizer orders against the factorial formula
        for n in range(1, 13):
            for which in ("G", "H"):
                census = classes(n, which)
                assert census == [(ct, class_size(ct)) for ct, _ in census]

    def test_class_size_single_cycle(self):
        # one untwisted n-cycle: n! * 2^(n-1) / n
        sizes = dict(classes(4, "G"))
        assert sizes[((4, 0),)] == math.factorial(4) * 2 ** 3 // 4

    def test_class_size_remainder_raises(self, monkeypatch):
        # unreachable with the true factorial: with 0! = 1! = ... = 1 a
        # single 3-cycle gives 2^3 / (6 * 1! * 0!)
        monkeypatch.setattr(group, "math", SimpleNamespace(factorial=lambda k: 1))
        with pytest.raises(IntegralityViolation, match=r"class size 8/6 of \(\(3, 0\),\) is not whole"):
            classes(3, "G")

    def test_deterministic_order(self):
        assert classes(5, "H") == classes(5, "H")

    def test_membership_parity(self):
        # H keeps exactly the types with an even number of twisted cycles
        assert classes(4, "H") == [(ct, size) for ct, size in classes(4, "G")
                                   if sum(parity for _, parity in ct) % 2 == 0]


class TestCensusSeries:
    @pytest.fixture(scope="class")
    def series(self):
        return census_series(12)

    def test_every_n_is_the_census(self, series):
        assert list(series) == list(range(1, 13))
        for n, census in series.items():
            assert [(ct, size) for ct, size, _ in census] == classes(n, "G")
            assert [(ct, size) for ct, size, in_h in census if in_h] == classes(n, "H")

    def test_types_are_canonical(self, series):
        # each type is sorted by descending length, then parity, and lies in
        # H exactly when an even number of its cycles are twisted
        for census in series.values():
            for ct, _, in_h in census:
                assert ct == tuple(sorted(ct, key=lambda part: (-part[0], part[1])))
                assert in_h == (sum(parity for _, parity in ct) % 2 == 0)

    def test_sizes_sum_to_order(self, series):
        for n, census in series.items():
            assert sum(size for _, size, _ in census) == group_order(n, "G")

    def test_bad_bound(self):
        with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
            census_series(0)


def test_one_work_guard():
    # every size bound on explicit work is WORK_GUARD, compared in one function
    src = Path(group.__file__).resolve().parent
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))]
    guards = sorted(target.id
                    for tree in trees
                    for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in (node.targets if isinstance(node, ast.Assign)
                                   else [node.target])
                    if isinstance(target, ast.Name) and target.id.endswith("_GUARD"))
    assert guards == ["WORK_GUARD"]
    comparing = {func.name
                 for tree in trees
                 for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                 for node in ast.walk(func) if isinstance(node, ast.Compare)
                 for name in ast.walk(node)
                 if isinstance(name, ast.Name) and name.id == "WORK_GUARD"}
    assert comparing == {"_check_work"}

