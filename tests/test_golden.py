"""CLI stdout stays byte-identical to the goldens in tests/golden/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden.capture import GOLDEN_DIR, cases, run_cli

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name, argv", cases(), ids=[name for name, _ in cases()])
def test_stdout_matches_golden(name, argv):
    assert run_cli(argv) == (GOLDEN_DIR / name).read_text(encoding="utf-8")


def stdout_under_optimize(argv):
    """stdout bytes of one CLI run under python -O, which strips assert
    statements; a nonzero exit fails the test."""
    script = f"import sys; from hodgekit.cli import main; sys.exit(main({argv!r}))"
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_verify_paper_unchanged_under_optimize():
    # every check the kernel relies on must raise explicitly, so the audit
    # still prints the same bytes
    assert (stdout_under_optimize(["verify-paper", "--n-max", "6", "--format", "json"])
            == (GOLDEN_DIR / "verify-paper-n6.json").read_bytes())


def test_diamond_hilb_40_unchanged_under_optimize():
    # the Newton kernel decodes only the last of its 40 steps; each earlier
    # step passes its exact division check, an exception and not an assert
    argv = ["diamond", "--preset", "k3", "--format", "json", "hilb", "40"]
    assert (stdout_under_optimize(argv)
            == (GOLDEN_DIR / "diamond-k3-hilb-40.json").read_bytes())


def test_diamond_sym_40_unchanged_under_optimize():
    # Macdonald's recurrence runs through the same kernel and term builder
    # as Goettsche's; every division check holds without assert statements
    argv = ["diamond", "--preset", "k3", "--format", "json", "sym", "40"]
    assert (stdout_under_optimize(argv)
            == (GOLDEN_DIR / "diamond-k3-sym-40.json").read_bytes())


def test_spec_surface_hilb_40_unchanged_under_optimize():
    # h^{2,0} = 2 splits every Goettsche term into a diagonal and an
    # off-diagonal series; the checks of both and of their join raise
    # explicitly, so the joined diamond prints the same bytes
    name, argv = next((name, argv) for name, argv in cases()
                      if name == "diamond-seeded-surface-3-hilb-40.json")
    assert stdout_under_optimize(argv) == (GOLDEN_DIR / name).read_bytes()
