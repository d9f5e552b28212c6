"""Golden CLI outputs: the case list, and the script that rewrites them.

``tests/test_golden.py`` compares the current stdout of every case below,
byte for byte, with the file of the same name in this directory.  Goldens
are never edited by hand; to rewrite them all, at a commit whose outputs
are known to be right, run from the repository root::

    PYTHONPATH=src python tests/golden/capture.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from hodgekit.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent
PRESETS = ("k3_enriques", "enriques", "k3")
SIZES = (2, 5, 8)
#: Hilbert schemes are also pinned at larger n, where the assembly of the
#: generating function does most of its work.
HILB_SIZES = (14, 20)
COVER_SIZES = (3, 5, 8, 20)
OPERATIONS = (("hilb",), ("sym",), ("quotient", "Sn"), ("quotient", "G"),
              ("quotient", "H"))
#: Surface-spec inputs read with --spec, each with the operations pinned on
#: it: a threefold with off-diagonal entries in both eigenspaces, and a
#: surface with h^{2,0} = 2.
SPEC_DIR = GOLDEN_DIR / "specs"
SPEC_CASES = (("seeded-threefold-1", (("quotient", "10", "H"), ("quotient", "20", "H"),
                                      ("quotient", "20", "Sn"), ("sym", "20"))),
              ("seeded-surface-3", (("hilb", "14"), ("hilb", "40"))))


def cases() -> list[tuple[str, list[str]]]:
    """(golden file name, CLI argv) for every captured output."""
    out = [# The smallest --n-max, and n = 8, whose rows still hold checks
           # 011 and 012 (n <= 5) and the oracle rows beside the census.
           ("verify-paper-n2.json",
            ["verify-paper", "--n-max", "2", "--format", "json"]),
           ("verify-paper-n6.json",
            ["verify-paper", "--n-max", "6", "--format", "json"]),
           ("verify-paper-n8.json",
            ["verify-paper", "--n-max", "8", "--format", "json"]),
           ("verify-paper-n12.json",
            ["verify-paper", "--n-max", "12", "--format", "json"]),
           # The largest --n-max: the census rows for n = 13..20.
           ("verify-paper-n20.json",
            ["verify-paper", "--n-max", "20", "--format", "json"]),
           # The table and csv renderers, each pinned on both commands.
           ("verify-paper-n6.csv",
            ["verify-paper", "--n-max", "6", "--format", "csv"]),
           ("verify-paper-n6.txt",
            ["verify-paper", "--n-max", "6", "--format", "table"]),
           ("verify-paper-n20.csv",
            ["verify-paper", "--n-max", "20", "--format", "csv"]),
           ("verify-paper-n20.txt",
            ["verify-paper", "--n-max", "20", "--format", "table"]),
           ("diamond-k3_enriques-cover-2.csv",
            ["diamond", "--preset", "k3_enriques", "--format", "csv",
             "cover", "2"]),
           ("diamond-k3_enriques-quotient-H-5.txt",
            ["diamond", "--preset", "k3_enriques", "--format", "table",
             "quotient", "5", "H"]),
           # n = 40 on k3: the top coefficients pass 2^64.
           ("diamond-k3-hilb-40.json",
            ["diamond", "--preset", "k3", "--format", "json", "hilb", "40"]),
           ("diamond-k3-sym-40.json",
            ["diamond", "--preset", "k3", "--format", "json", "sym", "40"]),
           # The H join at large n: Sym^n(V_+) (+) Sym^n(V_-) of k3_enriques.
           ("diamond-k3_enriques-quotient-H-40.json",
            ["diamond", "--preset", "k3_enriques", "--format", "json",
             "quotient", "40", "H"])]
    # The double cover past n = 2, where only the free involution is taken.
    for n in COVER_SIZES:
        out.append((f"diamond-k3_enriques-cover-{n}.json",
                    ["diamond", "--preset", "k3_enriques", "--format", "json",
                     "cover", str(n)]))
    for preset in PRESETS:
        for op, *group in OPERATIONS:
            for n in SIZES:
                name = "-".join(["diamond", preset, op, *group, str(n)]) + ".json"
                argv = ["diamond", "--preset", preset, "--format", "json",
                        op, str(n), *group]
                out.append((name, argv))
        for n in HILB_SIZES:
            out.append((f"diamond-{preset}-hilb-{n}.json",
                        ["diamond", "--preset", preset, "--format", "json",
                         "hilb", str(n)]))
        out.append((f"diamond-{preset}-cover-2.json",
                    ["diamond", "--preset", preset, "--format", "json",
                     "cover", "2"]))
    for spec, ops in SPEC_CASES:
        for op, n, *group in ops:
            name = "-".join(["diamond", spec, op, *group, n]) + ".json"
            out.append((name, ["diamond", "--spec", str(SPEC_DIR / f"{spec}.json"),
                               "--format", "json", op, n, *group]))
    return out


def run_cli(argv: list[str]) -> str:
    """stdout of one in-process CLI run; any nonzero exit is an error."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"hodgekit {' '.join(argv)} exited {code}")
    return buf.getvalue()


if __name__ == "__main__":
    for name, argv in cases():
        (GOLDEN_DIR / name).write_text(run_cli(argv), encoding="utf-8")
        print(name)
