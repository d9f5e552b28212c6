"""Exact Hodge-number arithmetic for symmetric products, Hilbert schemes of
points of surfaces, and quotients of n-fold products by signed-permutation
groups, including the Calabi-Yau double covers arising from Enriques
surfaces.  Everything is computed in arbitrary-precision integer arithmetic
and audited against independent routes: a class-sum trace average and a
brute-force projector."""

from .bigraded import (
    EquivHodgeTable,
    HodgeTable,
    IntegralityViolation,
    OddCohomologyUnsupported,
    direct_sum,
    enriques,
    format_diamond,
    k3,
    k3_enriques,
    load_surface_spec,
    parse_surface_spec,
    point,
    preset,
    tensor,
)
from .cover import cover_diamond_n2, exceptional_orbits
from .group import (
    TooLarge,
    classes,
    group_order,
)
from .hilbert import hilbert_diamond, hilbert_series
from .invariants import (
    class_sum_dims,
    class_trace,
    invariant_dims,
    sym_powers,
    sym_product,
)
from .oracle import projector_tables

__version__ = "0.1.0"

__all__ = [
    "EquivHodgeTable",
    "HodgeTable",
    "IntegralityViolation",
    "OddCohomologyUnsupported",
    "TooLarge",
    "class_sum_dims",
    "class_trace",
    "classes",
    "cover_diamond_n2",
    "direct_sum",
    "enriques",
    "exceptional_orbits",
    "format_diamond",
    "group_order",
    "hilbert_diamond",
    "hilbert_series",
    "invariant_dims",
    "k3",
    "k3_enriques",
    "load_surface_spec",
    "parse_surface_spec",
    "point",
    "preset",
    "projector_tables",
    "sym_powers",
    "sym_product",
    "tensor",
]
