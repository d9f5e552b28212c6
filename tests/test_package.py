"""The package's public surface."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import hodgekit


def test_every_exported_name_resolves():
    assert len(set(hodgekit.__all__)) == len(hodgekit.__all__)
    for name in hodgekit.__all__:
        assert getattr(hodgekit, name) is not None


@pytest.mark.parametrize("name", ["TracePolynomial", "betti", "euler", "tate_twist",
                                  "BlowupPlan", "CenterLabel", "h_one_top",
                                  "h_top_minus", "euler_check", "MismatchReport",
                                  "h2_cover", "shift_by", "NegativeIndex",
                                  "blowup_assemble", "DimensionMismatch",
                                  "projector_invariant_dims", "labeled_basis",
                                  "apply_element", "element_trace",
                                  "signed_cycle_type", "GroupElement",
                                  "enumerate_group", "transposition",
                                  "slot_twist"])
def test_removed_name_not_exported(name):
    assert name not in hodgekit.__all__
    assert not hasattr(hodgekit, name)


def test_cli_import_loads_only_what_runs():
    # a command-line user pays every import on each invocation; -S keeps
    # site hooks from loading modules the package itself does not ask for
    src = Path(hodgekit.__file__).resolve().parent.parent
    unwanted = ["ast", "dataclasses", "dis", "inspect", "tokenize", "typing"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hodgekit.cli; "
            "print(*[name for name in sys.argv[2:] if name in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src), *unwanted],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_no_assert_in_src():
    # python -O strips assert statements, so internal invariants must raise
    src = Path(hodgekit.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_src_definition_is_used():
    # a top-level function or class that no other line of src names is dead
    src = Path(hodgekit.__file__).parent
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [f"{path.name}:{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert [d for d in defined if d.split(":")[1] not in used] == []
