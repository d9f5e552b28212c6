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
    ENUMERATION_GUARD,
    WORK_GUARD,
    GroupElement,
    SignedCycleType,
    TooLarge,
    class_size,
    classes,
    element_census,
    enumerate_group,
    group_order,
    identity,
    signed_cycle_type,
    slot_twist,
    transposition,
)


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

    def test_guard(self):
        with pytest.raises(TooLarge):
            enumerate_group(ENUMERATION_GUARD + 1, "G")

    @pytest.mark.parametrize("which", ["G", "H"])
    def test_order_bound(self, which, monkeypatch):
        # both orders at n = 8 exceed the bound; no element may be built
        import itertools

        def refuse(*args, **kwargs):
            raise AssertionError("elements enumerated past the order bound")

        monkeypatch.setattr(itertools, "permutations", refuse)
        monkeypatch.setattr(itertools, "product", refuse)
        order = group_order(8, which)
        assert order > WORK_GUARD
        with pytest.raises(TooLarge, match=f"order {order}"):
            enumerate_group(8, which)

    def test_sn_at_n8_within_order_bound(self):
        assert len(enumerate_group(8, "Sn")) == math.factorial(8)

    def test_bad_token(self):
        with pytest.raises(ValueError):
            enumerate_group(2, "K")


class TestCompositionLaw:
    @given(st.data())
    @settings(max_examples=60)
    def test_matches_action_on_tuples(self, data):
        n = data.draw(st.integers(1, 5))
        a = data.draw(elements(n))
        b = data.draw(elements(n))
        x = tuple((sym, data.draw(st.integers(0, 1))) for sym in range(n))
        assert (a * b).act(x) == a.act(b.act(x))

    @given(st.data())
    @settings(max_examples=40)
    def test_associativity_and_inverses(self, data):
        n = data.draw(st.integers(1, 5))
        a, b, c = (data.draw(elements(n)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == identity(n)
        assert a.inverse() * a == identity(n)

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
            assert signed_cycle_type(identity(n)).parts == ((1, 0),) * n

    def test_double_twist_two_twisted_fixed_points(self):
        assert signed_cycle_type(slot_twist(2, (0, 1))).parts == ((1, 1), (1, 1))

    def test_swap_with_double_twist_untwisted_2cycle(self):
        g = transposition(2, 0, 1) * slot_twist(2, (0, 1))
        assert signed_cycle_type(g).parts == ((2, 0),)

    def test_canonical_ordering(self):
        ct = SignedCycleType(((1, 1), (3, 0), (1, 0), (3, 1)))
        assert ct.parts == ((3, 0), (3, 1), (1, 0), (1, 1))

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        els = enumerate_group(3, "G")
        for _ in range(50):
            g, u = rng.choice(els), rng.choice(els)
            conj = u * g * u.inverse()
            assert signed_cycle_type(conj) == signed_cycle_type(g)


class TestClasses:
    def test_sizes_sum_to_order(self):
        for n in range(1, 9):
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
                grouped = sorted(census.items(), key=lambda kv: kv[0].parts)
                assert grouped == classes(n, which)
                assert element_census(n, which) == grouped

    def test_class_size_single_cycle(self):
        # one untwisted n-cycle: n! * 2^(n-1) / n
        ct = SignedCycleType(((4, 0),))
        assert class_size(ct) == math.factorial(4) * 2 ** 3 // 4

    def test_class_size_remainder_raises(self, monkeypatch):
        # unreachable with the true factorial: with 0! = 1! = ... = 1 a
        # single 3-cycle gives 2^2 / 3
        monkeypatch.setattr(group, "math", SimpleNamespace(factorial=lambda k: 1))
        with pytest.raises(IntegralityViolation):
            class_size(SignedCycleType(((3, 0),)))

    def test_deterministic_order(self):
        assert classes(5, "H") == classes(5, "H")

    def test_membership_parity(self):
        for ct, _ in classes(4, "H"):
            assert ct.in_h()
        for ct, _ in classes(4, "G"):
            assert ct.in_h() == (ct.twisted_cycles() % 2 == 0)


def test_src_has_no_assert_statements():
    # python -O strips assert, so internal invariants must raise instead
    src = Path(group.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
