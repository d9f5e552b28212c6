"""Exact arithmetic on bigraded dimension tables (Hodge diamonds).

A :class:`HodgeTable` records the dimensions h^{p,q} of the bigraded pieces
of the cohomology of a compact complex space; an :class:`EquivHodgeTable`
additionally splits every piece into the +1/-1 eigenspaces of an involution.
Both share one immutable core.  Bidegrees, dimensions and the complex
dimension are exact nonnegative ``int`` (bool and float are refused with
ValueError), zero entries are never stored, and every operation returns a
new table.  An :class:`EquivHodgeTable` is checked as the two
:class:`HodgeTable` of its eigenspaces.

Supported operations: direct sum, Kunneth tensor product (a diagonal shift
by k is the product with the one-entry table (uv)^k), Betti numbers and
Euler characteristic.  These take plain tables only and raise TypeError on
a split one; call :meth:`EquivHodgeTable.forget` first.
"""

from __future__ import annotations

import json
from collections.abc import Mapping


class OddCohomologyUnsupported(ValueError):
    """Raised when an operation meets an entry of odd total degree.

    Tensor products and trace computations here assume even-degree classes
    only (no Koszul signs); odd entries are rejected rather than dropped.
    """


class IntegralityViolation(ArithmeticError):
    """An exact division that must come out whole left a remainder.

    Every such quotient here is a dimension or a class size, so a remainder
    or a negative quotient signals an implementation bug, not bad input.
    """


def _validated_entries(entries, dimension):
    if type(dimension) is not int:
        raise ValueError(f"dimension must be an int, got {dimension!r}")
    if dimension < 0:
        raise ValueError(f"dimension must be nonnegative, got {dimension}")
    bound = 2 * dimension
    clean = {}
    for key, value in entries.items():
        try:
            p, q = key
        except (TypeError, ValueError):  # not a pair: refused below as a non-int bidegree
            p = q = None
        if type(p) is not int or type(q) is not int or type(value) is not int:
            raise ValueError(f"bidegree and dimension must be int, got {key!r}: {value!r}")
        if p < 0 or q < 0:
            raise ValueError(f"invalid bidegree {key!r}")
        if p > bound or q > bound:
            raise ValueError(f"entry at {key!r} exceeds dimension {dimension} "
                             f"and its weight bound {bound}")
        if value < 0:
            raise ValueError(f"negative dimension at {key!r}")
        if value:
            clean[(p, q)] = value
    return clean


def _require_surface(table, what: str, dimension: int) -> None:
    """Raise ValueError unless the table, plain or split, is one a compact
    complex manifold of the given dimension can have: p, q <= dimension,
    Hodge symmetry h^{p,q} = h^{q,p} and Serre duality h^{p,q} =
    h^{n-p,n-q}, in each eigenspace of a split table.  The message opens
    with ``what`` and names the dimension or the first failing entry."""
    n = table.dimension
    if n != dimension:
        raise ValueError(f"{what} (dimension {dimension}), got dimension {n}")
    parts = [("", table)] if isinstance(table, HodgeTable) else [
        (f" in the {sign} eigenspace", part)
        for sign, part in (("+", table.plus_part()), ("-", table.minus_part()))]
    for where, part in parts:
        for p, q in part.support():
            if p > n or q > n:
                raise ValueError(f"{what}: entry at ({p}, {q}) exceeds dimension {n}")
        for (p, q), d in part.items():
            for rule, s, t in (("Hodge symmetry", q, p), ("Serre duality", n - p, n - q)):
                if part[s, t] != d:
                    raise ValueError(f"{what}: {rule} fails{where}: "
                                     f"h^({p},{q}) = {d} but h^({s},{t}) = {part[s, t]}")


def _require_plain(table) -> None:
    if not isinstance(table, HodgeTable):
        raise TypeError(f"need a plain HodgeTable, got {type(table).__name__}; call .forget()")


def _require_split(table) -> None:
    if not isinstance(table, EquivHodgeTable):
        raise TypeError(f"need an EquivHodgeTable, got {type(table).__name__}; "
                        "lift it with EquivHodgeTable.trivial_split")


def _reject_odd(bidegrees) -> None:
    for p, q in bidegrees:
        if (p + q) % 2:
            raise OddCohomologyUnsupported(
                f"odd total degree at ({p}, {q}) is not supported"
            )


class _Table:
    """Immutable core of both table types: validated entries (p, q) -> value
    and the complex dimension.  ``table[p, q]`` returns the subclass's
    ``_zero`` for absent entries; equality compares supports and values only,
    and holds only within one table type and its subclasses."""

    __slots__ = ("_entries", "dimension")

    def __init__(self, entries, dimension):
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "dimension", dimension)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getitem__(self, key):
        return self._entries.get(key, self._zero)

    def items(self):
        """Entries as a sorted list of ((p, q), value) pairs."""
        return sorted(self._entries.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self):
        return f"{type(self).__name__}({dict(self.items())!r}, dimension={self.dimension})"


class HodgeTable(_Table):
    """Finitely supported map (p, q) -> dimension, plus the complex dimension."""

    __slots__ = ()
    _zero = 0

    def __init__(self, entries: Mapping[tuple[int, int], int], dimension: int):
        super().__init__(_validated_entries(entries, dimension), dimension)

    def support(self) -> list[tuple[int, int]]:
        return sorted(self._entries)

    def total_dim(self) -> int:
        """Sum of all stored dimensions (dimension of total cohomology)."""
        return sum(self._entries.values())

    def betti(self, k: int) -> int:
        """b_k: sum of entries of total degree k."""
        return sum(d for (p, q), d in self._entries.items() if p + q == k)

    def euler(self) -> int:
        """Topological Euler characteristic, sum of (-1)^k b_k."""
        return sum((-1) ** (p + q) * d for (p, q), d in self._entries.items())


class EquivHodgeTable(_Table):
    """Bigraded table split by an involution: (p, q) -> (d_plus, d_minus).

    Only even total degrees are allowed; summing the split recovers a plain
    :class:`HodgeTable` (see :meth:`forget`).  Each eigenspace is validated
    as a :class:`HodgeTable` of the same dimension.
    """

    __slots__ = ("_plus", "_minus")
    _zero = (0, 0)

    def __init__(self, entries: Mapping[tuple[int, int], tuple[int, int]],
                 dimension: int):
        # any other key is left to the + eigenspace's check, which names it
        _reject_odd(k for k in entries if type(k) is tuple and [*map(type, k)] == [int, int])
        for pq in (pq for pq, s in entries.items() if type(s) is not tuple or len(s) != 2):
            raise ValueError(f"split dimensions must be a pair, got {pq!r}: {entries[pq]!r}")
        plus = HodgeTable({pq: dp for pq, (dp, _) in entries.items()}, dimension)
        minus = HodgeTable({pq: dm for pq, (_, dm) in entries.items()}, dimension)
        super().__init__({pq: (plus[pq], minus[pq]) for pq in entries
                          if plus[pq] or minus[pq]}, dimension)
        object.__setattr__(self, "_plus", plus)
        object.__setattr__(self, "_minus", minus)

    def total_dim(self) -> int:
        return self._plus.total_dim() + self._minus.total_dim()

    def forget(self) -> HodgeTable:
        """Drop the eigenspace split: (p, q) -> d_plus + d_minus."""
        return direct_sum(self._plus, self._minus)

    def plus_part(self) -> HodgeTable:
        """Table of the +1 eigenspaces (the quotient's cohomology)."""
        return self._plus

    def minus_part(self) -> HodgeTable:
        return self._minus

    @classmethod
    def trivial_split(cls, table: HodgeTable) -> "EquivHodgeTable":
        """Lift a plain table: everything in the +1 eigenspace."""
        return cls({pq: (d, 0) for pq, d in table.items()}, table.dimension)


def direct_sum(a: HodgeTable, b: HodgeTable) -> HodgeTable:
    """Entrywise sum; the dimension is the maximum of the two."""
    _require_plain(a)
    _require_plain(b)
    entries = dict(a._entries)
    for pq, d in b._entries.items():
        entries[pq] = entries.get(pq, 0) + d
    return HodgeTable(entries, max(a.dimension, b.dimension))


def tensor(a: HodgeTable, b: HodgeTable) -> HodgeTable:
    """Kunneth product: result(p,q) = sum over s+u=p, t+v=q of a(s,t)*b(u,v).

    Both factors must have even-degree support only, so no Koszul signs arise.
    """
    _require_plain(a)
    _require_plain(b)
    _reject_odd(a._entries)
    _reject_odd(b._entries)
    return HodgeTable(_product(a._entries, b._entries), a.dimension + b.dimension)


def _product(a, b) -> dict[tuple[int, int], int]:
    """Product of two sparse polynomials {(p, q): c} in u^p v^q, with zero
    coefficients dropped and negative ones kept: the one multiply-add loop
    behind :func:`tensor` and the audit routes' graded traces."""
    out: dict[tuple[int, int], int] = {}
    for (s, t), d in a.items():
        for (u, v), e in b.items():
            key = (s + u, t + v)
            out[key] = out.get(key, 0) + d * e
    return {pq: c for pq, c in out.items() if c}


def _average(sums, order: int, dimension: int, what: str) -> HodgeTable:
    """The table sums / order, for bidegree sums {(p, q): s} over a group of
    that order.  Each quotient is a dimension: a remainder or a negative one
    raises IntegralityViolation naming ``what``, the sum, its entry, the order."""
    entries = {}
    for pq, value in sums.items():
        entries[pq], rem = divmod(value, order)
        if rem or entries[pq] < 0:
            fault = "does not divide by" if rem else f"averages to {entries[pq]} < 0 over"
            raise IntegralityViolation(f"{what} {value} at {pq} {fault} group order {order}")
    return HodgeTable(entries, dimension)


# ---------------------------------------------------------------------------
# Built-in surfaces and the surface-spec file format.

def k3_enriques() -> EquivHodgeTable:
    """K3 surface with a fixed-point-free involution (an Enriques quotient).

    The split records the eigenspaces of the induced involution on
    cohomology: the +1 part is the Enriques diamond (1, 10, 1), the 2-forms
    and their conjugates are anti-invariant, and h^{1,1} splits 10 + 10.
    """
    return EquivHodgeTable(
        {
            (0, 0): (1, 0),
            (2, 0): (0, 1),
            (1, 1): (10, 10),
            (0, 2): (0, 1),
            (2, 2): (1, 0),
        },
        dimension=2,
    )


def enriques() -> HodgeTable:
    """Enriques surface: diamond 1, 10, 1 in even degrees."""
    return HodgeTable({(0, 0): 1, (1, 1): 10, (2, 2): 1}, dimension=2)


def k3() -> HodgeTable:
    """Plain K3 diamond 1, (1, 20, 1), 1."""
    return k3_enriques().forget()


def point() -> HodgeTable:
    """The unit for the tensor product."""
    return HodgeTable({(0, 0): 1}, dimension=0)


#: Preset registry for the CLI and the surface-spec loader.  Plain diamonds
#: are stored trivially split so every preset supports quotient operations.
PRESETS = {
    "k3_enriques": k3_enriques,
    "enriques": lambda: EquivHodgeTable.trivial_split(enriques()),
    "k3": lambda: EquivHodgeTable.trivial_split(k3()),
}


def preset(name: str) -> EquivHodgeTable:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return factory()


def parse_surface_spec(data) -> tuple[str, EquivHodgeTable]:
    """Parse a surface-spec mapping into (name, table).

    Expected shape::

        {"name": str, "dimension": int, "hodge": [[p, q, d_plus, d_minus], ...]}

    Raises ValueError on a malformed field, row or duplicate entry first;
    then OddCohomologyUnsupported on entries of odd total degree; then
    ValueError on a table no surface can have: whatever :class:`EquivHodgeTable`
    or :func:`_require_surface` refuses, or a + eigenspace with h^{0,0} = 0.
    Both exceptions keep their type and gain the ``surface spec: `` prefix.
    """
    if not isinstance(data, dict):
        raise ValueError("surface spec must be a JSON object")
    name = data.get("name")
    dimension = data.get("dimension")
    rows = data.get("hodge")
    if not isinstance(name, str):
        raise ValueError("surface spec: 'name' must be a string")
    if not isinstance(dimension, int) or isinstance(dimension, bool):
        raise ValueError("surface spec: 'dimension' must be an integer")
    if not isinstance(rows, list):
        raise ValueError("surface spec: 'hodge' must be a list of rows")
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    for row in rows:
        if (not isinstance(row, list) or len(row) != 4
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in row)):
            raise ValueError(f"surface spec: bad hodge row {row!r}")
        p, q, d_plus, d_minus = row
        if (p, q) in entries:
            raise ValueError(f"surface spec: duplicate entry at ({p}, {q})")
        entries[(p, q)] = (d_plus, d_minus)
    try:
        table = EquivHodgeTable(entries, dimension)
    except ValueError as exc:
        raise type(exc)(f"surface spec: {exc}") from None
    _require_surface(table, "surface spec", dimension)
    if table.plus_part()[0, 0] == 0:
        raise ValueError("surface spec: h^(0,0) of the + eigenspace is 0, but the "
                         "involution fixes the constant functions")
    return name, table


def load_surface_spec(path) -> tuple[str, EquivHodgeTable]:
    """Read and parse a UTF-8 JSON surface-spec file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"surface spec {path}: invalid JSON ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"surface spec {path}: not UTF-8 ({exc})") from exc
    return parse_surface_spec(data)


def format_diamond(table: HodgeTable) -> str:
    """Render a table as a centered diamond, one total degree per row."""
    axis = table.dimension
    for p, q in table.support():
        axis = max(axis, p, q)
    cells = {}
    width = 1
    for k in range(2 * axis + 1):
        row = []
        for p in range(min(k, axis), max(0, k - axis) - 1, -1):
            entry = str(table[p, k - p])
            width = max(width, len(entry))
            row.append(entry)
        cells[k] = row
    width += 1 if width % 2 == 0 else 0
    line_len = (axis + 1) * (width + 1)
    lines = []
    for k in range(2 * axis + 1):
        lines.append(" ".join(c.center(width) for c in cells[k]).center(line_len).rstrip())
    return "\n".join(lines)
