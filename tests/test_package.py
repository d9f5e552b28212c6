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
                                  "slot_twist", "SignedCycleType"])
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


def test_cli_import_builds_no_parser():
    # main builds its parser on first use; built at import, it would be
    # paid by every library user and every process that never calls main
    src = Path(hodgekit.__file__).resolve().parent.parent
    code = ("import argparse, sys; sys.path.insert(0, sys.argv[1]); built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(None)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import hodgekit.cli\n"
            "print(len(built))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def test_no_assert_in_src():
    # python -O strips assert statements, so internal invariants must raise
    src = Path(hodgekit.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_instance_built_around_its_constructor():
    # object.__new__ makes an instance that its __init__ never checked
    src = Path(hodgekit.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "__new__"
             and isinstance(node.value, ast.Name) and node.value.id == "object"]
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


def test_no_two_src_functions_share_a_body():
    # a body copied into a second function is one fix that must be made twice
    src = Path(hodgekit.__file__).parent
    seen, copies = {}, []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            dump = ast.dump(ast.Module(body=body, type_ignores=[]))
            where = f"{path.name}:{node.lineno}"
            if dump in seen:
                copies.append((seen[dump], where))
            else:
                seen[dump] = where
    assert copies == []


def _defined_in(*modules):
    """The names of the functions defined in the given src modules."""
    src = Path(hodgekit.__file__).parent
    return [node.name for module in modules
            for node in ast.walk(ast.parse((src / f"{module}.py").read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)]


# The audit side: every function of the deck-group and oracle modules, the
# audit routes that live elsewhere, and the sparse product and exact average
# that the audit routes share: production must reach none of them.
AUDIT_ENTRIES = _defined_in("group", "oracle") + [
    "class_sum_dims", "class_trace", "euler_product_coefficients", "exceptional_orbits",
    "cover_diamond_n2", "_product", "_average"]
PRODUCTION_ENTRIES = ["invariant_dims", "invariant_series", "sym_powers", "sym_product",
                      "hilbert_series", "hilbert_diamond"]
PRODUCTION_KERNEL = ["_newton", "_Layout", "_power_terms", "_symmetric", "_goettsche"]


def _call_graph():
    """Every function and class of src, by name, mapped to the names its
    body refers to: a name, an attribute or an import alias, with aliases
    bound by ``import ... as`` resolved.  Same-named definitions merge, so
    the graph can only over-report what a definition reaches."""
    src = Path(hodgekit.__file__).parent
    graph = {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {alias.asname: alias.name.rpartition(".")[2] for alias in ast.walk(tree)
                 if isinstance(alias, ast.alias) and alias.asname}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            refs = graph.setdefault(node.name, set())
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.add(bound.get(sub.id, sub.id))
                elif isinstance(sub, ast.Attribute):
                    refs.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    refs.add(sub.name.rpartition(".")[2])
    return graph


def _reach(graph, start):
    seen, todo = set(), [start]
    while todo:
        for name in graph.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_audit_and_production_routes_share_no_path():
    # the audit routes count as independent evidence only while none of
    # them runs the production kernel, and production never leans on them
    graph = _call_graph()
    assert [name for name in AUDIT_ENTRIES + PRODUCTION_ENTRIES + PRODUCTION_KERNEL
            if name not in graph] == []
    crossings = [(entry, name) for entry in AUDIT_ENTRIES
                 for name in sorted(_reach(graph, entry) & set(PRODUCTION_KERNEL))]
    crossings += [(entry, name) for entry in PRODUCTION_ENTRIES
                  for name in sorted(_reach(graph, entry) & set(AUDIT_ENTRIES))]
    assert crossings == []
