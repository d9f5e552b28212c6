"""Bigraded table arithmetic: frozen examples plus algebraic laws."""

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hodgekit.bigraded import (
    EquivHodgeTable,
    HodgeTable,
    IntegralityViolation,
    OddCohomologyUnsupported,
    _average,
    _product,
    direct_sum,
    enriques,
    k3,
    k3_enriques,
    parse_surface_spec,
    point,
    preset,
    tensor,
)

from conftest import evaluate, hodge_tables, is_symmetric


class TestPresets:
    def test_k3_diamond(self):
        t = k3()
        assert t.items() == [((0, 0), 1), ((0, 2), 1), ((1, 1), 20),
                             ((2, 0), 1), ((2, 2), 1)]
        assert t.euler() == 24

    def test_enriques_diamond(self):
        t = enriques()
        assert t.items() == [((0, 0), 1), ((1, 1), 10), ((2, 2), 1)]
        assert t.euler() == 12
        assert t.betti(1) == 0

    def test_k3_enriques_split(self):
        t = k3_enriques()
        assert t[0, 0] == (1, 0)
        assert t[2, 0] == (0, 1)
        assert t[1, 1] == (10, 10)
        assert t[0, 2] == (0, 1)
        assert t[2, 2] == (1, 0)
        assert t.plus_part() == enriques()
        assert t.forget() == k3()

    def test_presets_are_geometric(self):
        for name in ("k3_enriques", "enriques", "k3"):
            assert is_symmetric(preset(name).forget())

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("quintic")


class TestDirectSum:
    def test_identity(self):
        e = enriques()
        empty = HodgeTable({}, 0)
        assert direct_sum(e, empty) == e

    def test_k3_doubled(self):
        assert direct_sum(k3(), k3())[1, 1] == 40

    def test_enriques_doubled_h00(self):
        assert direct_sum(enriques(), enriques())[0, 0] == 2

    def test_dimension_is_max(self):
        assert direct_sum(point(), k3()).dimension == 2


class TestTensor:
    def test_point_is_unit(self):
        assert tensor(point(), k3()) == k3()
        assert tensor(enriques(), point()) == enriques()

    def test_enriques_squared_h11(self):
        assert tensor(enriques(), enriques())[1, 1] == 20

    def test_k3_squared_h22(self):
        # 1 + 1 + 400 + 1 + 1 across the five Kunneth pairs
        assert tensor(k3(), k3())[2, 2] == 404

    def test_rejects_odd_entries(self):
        odd = HodgeTable({(1, 0): 1}, 1)
        with pytest.raises(OddCohomologyUnsupported,
                           match=r"odd total degree at \(1, 0\)"):
            tensor(odd, k3())

    def test_dimension_adds(self):
        assert tensor(k3(), enriques()).dimension == 4


#: Sparse polynomials with signed coefficients, zeros included.
signed_polys = st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                               st.integers(-5, 5), max_size=5)


class TestProduct:
    def test_keeps_negatives_and_drops_zeros(self):
        # (1 - uv + 0 u^2)(1 + uv) = 1 - u^2 v^2: the uv terms cancel
        assert (_product({(0, 0): 1, (1, 1): -1, (2, 0): 0}, {(0, 0): 1, (1, 1): 1})
                == {(0, 0): 1, (2, 2): -1})

    @given(signed_polys, signed_polys)
    def test_product_evaluates_as_the_product(self, a, b):
        out = _product(a, b)
        assert 0 not in out.values()
        for u, v in ((2, 3), (-1, 5)):
            assert evaluate(out, u, v) == evaluate(a, u, v) * evaluate(b, u, v)

    @given(hodge_tables(), hodge_tables())
    def test_tensor_is_the_product_of_entries(self, a, b):
        assert tensor(a, b) == HodgeTable(_product(a._entries, b._entries),
                                          a.dimension + b.dimension)


class TestAverage:
    def test_divides_exactly_and_keeps_the_dimension(self):
        got = _average({(0, 0): 8, (1, 1): 0, (2, 2): 16}, 8, 3, "sum")
        assert got == HodgeTable({(0, 0): 1, (2, 2): 2}, 3)
        assert got.dimension == 3
        assert got.support() == [(0, 0), (2, 2)]

    def test_remainder_named(self):
        with pytest.raises(IntegralityViolation,
                           match=r"^trace sum 9 at \(1, 1\) does not divide by group order 8$"):
            _average({(0, 0): 8, (1, 1): 9}, 8, 2, "trace sum")

    def test_negative_average_named(self):
        # the sum divides exactly, but no dimension is negative
        with pytest.raises(IntegralityViolation,
                           match=r"^projector sum -16 at \(1, 1\) averages to -2 < 0 "
                                 r"over group order 8$"):
            _average({(0, 0): 8, (1, 1): -16}, 8, 2, "projector sum")


class TestBettiEuler:
    def test_k3_euler(self):
        assert k3().euler() == 24

    def test_enriques_euler(self):
        assert enriques().euler() == 12

    def test_b1_enriques(self):
        assert enriques().betti(1) == 0

    def test_b2_k3(self):
        assert k3().betti(2) == 22


class TestAlgebraicLaws:
    @given(hodge_tables(), hodge_tables())
    def test_tensor_commutes(self, a, b):
        assert tensor(a, b) == tensor(b, a)

    @given(hodge_tables(max_entries=3), hodge_tables(max_entries=3),
           hodge_tables(max_entries=3))
    def test_tensor_associates(self, a, b, c):
        assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))

    @given(hodge_tables(max_entries=3), hodge_tables(max_entries=3),
           hodge_tables(max_entries=3))
    def test_sum_distributes_over_tensor(self, a, b, c):
        assert tensor(direct_sum(a, b), c) == direct_sum(tensor(a, c),
                                                         tensor(b, c))

    @given(hodge_tables(), hodge_tables())
    def test_euler_multiplicative(self, a, b):
        assert tensor(a, b).euler() == a.euler() * b.euler()

    @given(hodge_tables(even_only=False), hodge_tables(even_only=False))
    def test_euler_additive(self, a, b):
        assert direct_sum(a, b).euler() == a.euler() + b.euler()


class TestTableContracts:
    def test_zero_entries_not_stored(self):
        t = HodgeTable({(0, 0): 1, (1, 1): 0}, 1)
        assert t.support() == [(0, 0)]

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            HodgeTable({(0, 0): -1}, 0)

    def test_weight_bound_enforced(self):
        with pytest.raises(ValueError):
            HodgeTable({(3, 0): 1}, 1)

    def test_equality_is_support_and_values(self):
        assert HodgeTable({(0, 0): 1}, 0) == HodgeTable({(0, 0): 1}, 3)

    def test_immutable(self):
        t = k3()
        with pytest.raises(AttributeError):
            t.dimension = 7

    def test_equiv_rejects_odd_degrees(self):
        with pytest.raises(OddCohomologyUnsupported):
            EquivHodgeTable({(1, 0): (1, 0)}, 1)

    @pytest.mark.parametrize("entries, named", [
        ({(0, 0): (-1, 0)}, "negative dimension at (0, 0)"),
        ({(1, 1): (0, -2)}, "negative dimension at (1, 1)"),
        ({(-2, 0): (1, 0)}, "invalid bidegree (-2, 0)"),
        ({(4, 0): (1, 1)}, "entry at (4, 0) exceeds"),
    ])
    def test_equiv_rejects_bad_entries(self, entries, named):
        with pytest.raises(ValueError, match=re.escape(named)) as err:
            EquivHodgeTable(entries, 1)
        assert not isinstance(err.value, OddCohomologyUnsupported)

    def test_equiv_drops_all_zero_pairs(self):
        t = EquivHodgeTable({(0, 0): (1, 0), (1, 1): (0, 0)}, 1)
        assert t.items() == [((0, 0), (1, 0))]
        assert t == EquivHodgeTable({(0, 0): (1, 0)}, 1)

    def test_forget_then_split_roundtrip(self):
        assert EquivHodgeTable.trivial_split(enriques()).forget() == enriques()


class TestTableCore:
    """Behaviour both table types take from their one shared core."""

    PLAIN = HodgeTable({(0, 0): 1, (1, 1): 20, (2, 2): 1}, 2)
    SPLIT = EquivHodgeTable({(0, 0): (1, 0), (1, 1): (10, 10), (2, 2): (1, 0)}, 2)

    @pytest.mark.parametrize("t, zero", [(PLAIN, 0), (SPLIT, (0, 0))],
                             ids=["plain", "split"])
    def test_shared_contract(self, t, zero):
        cls = type(t)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            t.dimension = 7
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            t._entries = {}
        assert t[0, 2] == zero and t[2, 0] == zero
        assert [pq for pq, _ in t.items()] == [(0, 0), (1, 1), (2, 2)]
        raised = cls(dict(t.items()), 3)
        assert raised == t and raised.dimension == 3
        assert hash(raised) == hash(t)
        assert {t: "a", raised: "b"} == {t: "b"}
        assert t != cls({(0, 0): t[0, 0]}, 2)

        class Sub(cls):
            __slots__ = ()

        sub = Sub(dict(t.items()), 2)
        assert sub == t and t == sub and hash(sub) == hash(t)
        assert eval(repr(t)) == t
        assert repr(t).startswith(f"{cls.__name__}({{(0, 0): ")

    def test_plain_never_equals_split(self):
        empty_plain, empty_split = HodgeTable({}, 0), EquivHodgeTable({}, 0)
        assert empty_plain != empty_split and empty_split != empty_plain
        assert self.SPLIT.forget() != self.SPLIT
        assert EquivHodgeTable.trivial_split(self.PLAIN) != self.PLAIN
        assert len({empty_plain, empty_split}) == 2

    def test_split_parts_and_sums(self):
        assert self.SPLIT.forget() == HodgeTable({(0, 0): 1, (1, 1): 20, (2, 2): 1}, 2)
        assert self.SPLIT.forget().dimension == 2
        assert self.SPLIT.total_dim() == 22 == self.SPLIT.forget().total_dim()
        assert self.SPLIT.plus_part() == enriques()
        assert self.SPLIT.minus_part() == HodgeTable({(1, 1): 10}, 2)


class TestExactIntegers:
    """Bidegrees, values and the dimension are exact ints in both table types."""

    @pytest.mark.parametrize("entries, dimension, named", [
        ({(0, 0): 1.5, (1, 1): 1, (2, 2): 1.5}, 2, "(0, 0): 1.5"),
        ({(0, 0): True}, 0, "(0, 0): True"),
        ({(0, 0): 1}, 1.5, "got 1.5"),
        ({(0, 0): 1}, True, "got True"),
        ({(True, 0): 1}, 1, "(True, 0): 1"),
        ({(0, 2.0): 1}, 1, "(0, 2.0): 1"),
        ({("0", 0): 1}, 1, "('0', 0): 1"),
        ({5: 1}, 2, "got 5: 1"),
        ({(1, 2, 3): 1}, 2, "got (1, 2, 3): 1"),
    ], ids=["float-value", "bool-value", "float-dim", "bool-dim", "bool-key",
            "float-key", "str-key", "int-key", "triple-key"])
    def test_plain_refuses_non_int(self, entries, dimension, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            HodgeTable(entries, dimension)

    @pytest.mark.parametrize("entries, dimension, named", [
        ({(0, 0): (1.5, 0)}, 2, "(0, 0): 1.5"),
        ({(1, 1): (1, True)}, 1, "(1, 1): True"),
        ({(0, 0): (1, 0)}, 1.5, "got 1.5"),
        ({(0, 0): (1, 0)}, True, "got True"),
        ({(True, 1): (1, 0)}, 1, "(True, 1): 1"),
        ({(0, 0): 1}, 2, "got (0, 0): 1"),
        ({(0, 0): (1, 0, 0)}, 2, "got (0, 0): (1, 0, 0)"),
        ({(0, 0): [1, 0]}, 2, "got (0, 0): [1, 0]"),
        ({5: (1, 0)}, 2, "got 5: 1"),
        ({(1, 2, 3): (1, 0)}, 2, "got (1, 2, 3): 1"),
    ], ids=["float-plus", "bool-minus", "float-dim", "bool-dim", "bool-key", "int-value",
            "triple-value", "list-value", "int-key", "triple-key"])
    def test_split_refuses_non_int(self, entries, dimension, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            EquivHodgeTable(entries, dimension)

    @pytest.mark.parametrize("entries, error, named", [
        ({("a", 0): (1, 0)}, ValueError, "must be int, got ('a', 0): 1"),
        ({(0.5, 0.5): (1, 0)}, ValueError, "must be int, got (0.5, 0.5): 1"),
        ({(5, 0): (1, 0)}, OddCohomologyUnsupported, "odd total degree at (5, 0)"),
        ({(0, 0): 1, (1, 0): 1}, OddCohomologyUnsupported, "odd total degree at (1, 0)"),
    ], ids=["str-key", "float-key", "odd-out-of-range", "odd-before-values"])
    def test_split_checks_key_types_before_odd_degrees(self, entries, error, named):
        # an int key of odd degree is refused as odd even out of range, so a
        # spec's odd row is still its first refusal
        with pytest.raises(error, match=re.escape(named)) as exc:
            EquivHodgeTable(entries, 1)
        assert exc.type is error


class TestPlainOperandsOnly:
    @pytest.mark.parametrize("op", [direct_sum, tensor], ids=["direct_sum", "tensor"])
    @pytest.mark.parametrize("a, b", [
        (k3, k3_enriques), (k3_enriques, k3), (k3_enriques, k3_enriques),
    ], ids=["plain-split", "split-plain", "split-split"])
    def test_split_operand_refused(self, op, a, b):
        with pytest.raises(TypeError, match=re.escape(
                "need a plain HodgeTable, got EquivHodgeTable; call .forget()")):
            op(a(), b())


class TestSurfaceSpecFormat:
    def test_parse_roundtrip(self):
        doc = {
            "name": "k3-with-involution",
            "dimension": 2,
            "hodge": [[0, 0, 1, 0], [2, 0, 0, 1], [1, 1, 10, 10],
                      [0, 2, 0, 1], [2, 2, 1, 0]],
        }
        name, table = parse_surface_spec(json.loads(json.dumps(doc)))
        assert name == "k3-with-involution"
        assert table == k3_enriques()

    @pytest.mark.parametrize("doc", [
        [],
        {"name": 3, "dimension": 2, "hodge": []},
        {"name": "x", "dimension": "2", "hodge": []},
        {"name": "x", "dimension": 2, "hodge": [[0, 0, 1]]},
        {"name": "x", "dimension": 2, "hodge": [[0, 0, 1, 0], [0, 0, 2, 0]]},
    ])
    def test_malformed_rejected(self, doc):
        with pytest.raises(ValueError):
            parse_surface_spec(doc)

    @pytest.mark.parametrize("rows, named, dimension", [
        ([[0, 0, 1, 0], [3, 1, 5, 0], [4, 0, 0, 2]], "entry at (3, 1) exceeds", 2),
        ([[0, 0, 1, 0], [2, 0, 1, 0], [2, 2, 1, 0]], "symmetry fails in the + eigenspace: h^(2,0)", 2),
        ([[0, 0, 1, 0], [2, 0, 0, 1], [0, 2, 1, 0], [2, 2, 1, 0]], "symmetry fails in the + eigenspace: h^(0,2)", 2),
        ([[0, 0, 1, 0], [1, 1, 2, 0]], "duality fails in the + eigenspace: h^(0,0)", 2),
        ([[0, 0, 1, 1], [1, 1, 2, 0], [2, 2, 1, 0]], "duality fails in the - eigenspace: h^(0,0)", 2),
        ([[0, 0, 1, 0], [1, 1, 1, 0]], "surface spec: entry at (1, 1) exceeds dimension 0", 0),
        ([], "surface spec: dimension must be nonnegative, got -1", -1),
        ([[0, 0, 1, 0], [-2, 0, 1, 0]], "surface spec: invalid bidegree (-2, 0)", 2),
        ([[0, 0, -1, 0]], "surface spec: negative dimension at (0, 0)", 2),
        ([], "surface spec: h^(0,0) of the + eigenspace is 0", 2),
        ([[0, 0, 0, 1], [2, 2, 0, 1]], "surface spec: h^(0,0) of the + eigenspace is 0", 2),
    ])
    def test_non_geometric_rejected(self, rows, named, dimension):
        doc = {"name": "x", "dimension": dimension, "hodge": rows}
        with pytest.raises(ValueError, match=re.escape(named)) as err:
            parse_surface_spec(doc)
        assert not isinstance(err.value, OddCohomologyUnsupported)

    def test_odd_entries_rejected_specifically(self):
        doc = {"name": "x", "dimension": 1, "hodge": [[1, 0, 1, 0]]}
        with pytest.raises(OddCohomologyUnsupported):
            parse_surface_spec(doc)
