"""CLI stdout stays byte-identical to the goldens in tests/golden/."""

import pytest

from golden.capture import GOLDEN_DIR, cases, run_cli


@pytest.mark.parametrize("name, argv", cases(), ids=[name for name, _ in cases()])
def test_stdout_matches_golden(name, argv):
    assert run_cli(argv) == (GOLDEN_DIR / name).read_text(encoding="utf-8")
