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


def test_verify_paper_unchanged_under_optimize():
    # python -O strips assert statements; every check the kernel relies on
    # must raise explicitly, so the audit still prints the same bytes
    script = ("import sys; from hodgekit.cli import main; "
              "sys.exit(main(['verify-paper', '--n-max', '6', '--format', 'json']))")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / "verify-paper-n6.json").read_bytes()
