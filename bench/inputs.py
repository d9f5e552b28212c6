"""Seeded inputs of the benchmark workloads.

Only eigenspace dimensions are drawn from the seed; every workload fixes its
support shape, so the cost of a workload stays comparable across seeds.
Every generated surface passes :func:`validate_spec` (p, q <= dimension,
Hodge symmetry and Serre duality per eigenspace, even total degrees only).

This module imports nothing from hodgekit: the surfaces declared here are
also the data the independent checks in ``reference.py`` start from.
"""

from __future__ import annotations

import random

WORKLOADS = ("audit", "hilbert-sweep", "quotient-deep")
SIZES = ("full", "tiny")

# The built-in presets, written out as [p, q, d_plus, d_minus] rows.  The
# plain diamonds are stored trivially split, as hodgekit's preset registry
# does.
PRESET_SURFACES = {
    "k3_enriques": {"dimension": 2, "hodge": [
        [0, 0, 1, 0], [2, 0, 0, 1], [1, 1, 10, 10], [0, 2, 0, 1], [2, 2, 1, 0]]},
    "enriques": {"dimension": 2, "hodge": [
        [0, 0, 1, 0], [1, 1, 10, 0], [2, 2, 1, 0]]},
    "k3": {"dimension": 2, "hodge": [
        [0, 0, 1, 0], [2, 0, 1, 0], [1, 1, 20, 0], [0, 2, 1, 0], [2, 2, 1, 0]]},
}


def validate_spec(spec: dict) -> None:
    """Raise ValueError unless the surface spec is geometric.

    Checks p, q <= dimension, even total degrees, nonnegative dimensions,
    Hodge symmetry h^{p,q} = h^{q,p} and Serre duality
    h^{p,q} = h^{d-p,d-q}, each per eigenspace.
    """
    dim = spec["dimension"]
    table = {}
    for p, q, d_plus, d_minus in spec["hodge"]:
        if not (0 <= p <= dim and 0 <= q <= dim):
            raise ValueError(f"{spec['name']}: ({p}, {q}) outside dimension {dim}")
        if (p + q) % 2 or d_plus < 0 or d_minus < 0:
            raise ValueError(f"{spec['name']}: bad row {[p, q, d_plus, d_minus]}")
        table[p, q] = (d_plus, d_minus)
    for (p, q), dims in table.items():
        if table.get((q, p)) != dims:
            raise ValueError(f"{spec['name']}: Hodge symmetry fails at ({p}, {q})")
        if table.get((dim - p, dim - q)) != dims:
            raise ValueError(f"{spec['name']}: Serre duality fails at ({p}, {q})")


def _distinct_pair(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    # d_plus != d_minus keeps every twisted trace factor d_plus - d_minus
    # nonzero, so the class-sum engine sees the same support on every seed
    a = rng.randint(lo, hi)
    b = rng.randint(lo, hi - 1)
    return a, b + (b >= a)


def seeded_surface(seed: int) -> dict:
    """Dimension-2 surface with rows (0,0), (2,0), (0,2), (1,1), (2,2);
    p_g drawn from 1..3 and h^{1,1} from 1..40."""
    rng = random.Random(f"surface-{seed}")
    pg, h11 = rng.randint(1, 3), rng.randint(1, 40)
    spec = {"name": f"seeded-surface-{seed}", "dimension": 2, "hodge": [
        [0, 0, 1, 0], [2, 0, pg, 0], [0, 2, pg, 0], [1, 1, h11, 0], [2, 2, 1, 0]]}
    validate_spec(spec)
    return spec


def seeded_threefold(seed: int) -> dict:
    """Even-degree threefold with support (0,0), (3,3), (1,1), (2,2), (2,0),
    (0,2), (3,1), (1,3); every eigen-dimension is nonzero."""
    rng = random.Random(f"threefold-{seed}")
    a = _distinct_pair(rng, 1, 3)
    b = _distinct_pair(rng, 1, 12)
    c = _distinct_pair(rng, 1, 4)
    rows = [(0, 0, a), (3, 3, a), (1, 1, b), (2, 2, b),
            (2, 0, c), (0, 2, c), (3, 1, c), (1, 3, c)]
    spec = {"name": f"seeded-threefold-{seed}", "dimension": 3,
            "hodge": [[p, q, *dims] for p, q, dims in rows]}
    validate_spec(spec)
    return spec


def _preset(name: str) -> dict:
    return {"name": name, **PRESET_SURFACES[name]}


def _hilb_case(surface: dict, n: int, *, preset: bool) -> dict:
    source = ["--preset", surface["name"]] if preset else ["--spec", "{spec}"]
    return {"id": f"hilb-{surface['name']}-{n}",
            "argv": ["diamond", "--format", "json", *source, "hilb", str(n)],
            "op": "hilb", "n": n, "surface": surface, "seeded": not preset}


def _quotient_case(surface: dict, n: int, group: str, *, preset: bool) -> dict:
    return {"id": f"quotient-{surface['name']}-{n}-{group}",
            "op": "quotient", "n": n, "group": group, "surface": surface,
            "seeded": not preset}


def generate(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The cases of one workload, in the order the job runs them.

    ``size="tiny"`` keeps every case and its support shape but shrinks n,
    for the benchmark's own smoke test.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; one of {SIZES}")
    tiny = size == "tiny"
    if workload == "audit":
        n_max = "3" if tiny else "8"
        return [{"id": f"verify-paper-{n_max}", "op": "audit",
                 "argv": ["verify-paper", "--n-max", n_max, "--format", "json"],
                 "seeded": False}]
    if workload == "hilbert-sweep":
        sizes = ([("enriques", 3), ("k3", 2)] if tiny else
                 [("enriques", 14), ("enriques", 16), ("enriques", 18), ("k3", 14)])
        cases = [_hilb_case(_preset(name), n, preset=True) for name, n in sizes]
        cases.append(_hilb_case(seeded_surface(seed), 3 if tiny else 14, preset=False))
        return cases
    k3_n, t_n = (3, 2) if tiny else (12, 10)
    return [
        _quotient_case(_preset("k3_enriques"), k3_n, "H", preset=True),
        _quotient_case(_preset("k3_enriques"), k3_n, "G", preset=True),
        _quotient_case(seeded_threefold(seed), t_n, "H", preset=False),
    ]
