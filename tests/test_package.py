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
    # site hooks from loading modules the package itself does not ask for.
    # Running both commands loads none either: argparse would bring gettext
    # and locale for its help strings
    src = Path(hodgekit.__file__).resolve().parent.parent
    unwanted = ["argparse", "ast", "dataclasses", "dis", "gettext", "inspect", "locale",
                "tokenize", "typing"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hodgekit.cli\n"
            "loaded = lambda: [name for name in sys.argv[2:] if name in sys.modules]\n"
            "after_import = loaded()\n"
            "hodgekit.cli.main(['diamond', 'sym', '1'])\n"
            "hodgekit.cli.main(['verify-paper', '--n-max', '2'])\n"
            "print('import:', *after_import); print('run:', *loaded())")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src), *unwanted],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["import:", "run:"]


#: Every module of src, parsed once, by module name: the lints below read it.
SRC = {path.stem: ast.parse(path.read_text(encoding="utf-8"), path.name)
       for path in sorted(Path(hodgekit.__file__).parent.glob("*.py"))}


def _definitions(tree):
    """The top-level functions and classes of a parsed module."""
    return [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def test_no_assert_in_src():
    # python -O strips assert statements, so internal invariants must raise
    found = [f"{module}.py:{node.lineno}" for module, tree in SRC.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_instance_built_around_its_constructor():
    # object.__new__ makes an instance that its __init__ never checked
    found = [f"{module}.py:{node.lineno}" for module, tree in SRC.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "__new__"
             and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert found == []


def test_every_src_definition_is_used():
    # a top-level function or class that no other line of src names is dead
    defined, used = [], set()
    for module, tree in SRC.items():
        defined += [f"{module}.py:{node.name}" for node in _definitions(tree)]
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
    seen, copies = {}, []
    for module, tree in SRC.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            dump = ast.dump(ast.Module(body=body, type_ignores=[]))
            where = f"{module}.py:{node.lineno}"
            if dump in seen:
                copies.append((seen[dump], where))
            else:
                seen[dump] = where
    assert copies == []


def _defined_in(*modules):
    """The names of the top-level functions of the given src modules."""
    return [node.name for module in modules for node in _definitions(SRC[module])
            if isinstance(node, ast.FunctionDef)]


# The audit side: every top-level function of the deck-group and oracle
# modules, the audit routes that live elsewhere, and the sparse product and
# exact average that the audit routes share: production must reach none of
# them.  The kernel side is derived from the production entries.
AUDIT_ENTRIES = _defined_in("group", "oracle") + [
    "class_sum_dims", "class_trace", "euler_product_coefficients", "exceptional_orbits",
    "cover_diamond_n2", "_product", "_average"]
PRODUCTION_ENTRIES = ["invariant_dims", "invariant_series", "sym_powers", "sym_product",
                      "hilbert_series", "hilbert_diamond"]


def _call_graph(trees):
    """Every top-level function and class of the given modules, by name,
    mapped to the top-level definitions its body refers to; a class holds
    its methods.  A name or an import alias (with aliases bound by ``import
    ... as`` resolved) refers to the definition of that name.  An attribute
    does too, and to every class that defines a method of that name, except
    a dunder: ``__init__`` and the like are reached only by naming their
    class, in a call or as a base.  Same-named top-level definitions merge,
    so the graph can only over-report what a definition reaches."""
    owners = {}
    for tree in trees:
        for node in _definitions(tree):
            for method in _definitions(node) if isinstance(node, ast.ClassDef) else ():
                if not (method.name.startswith("__") and method.name.endswith("__")):
                    owners.setdefault(method.name, set()).add(node.name)
    graph = {}
    for tree in trees:
        bound = {alias.asname: alias.name.rpartition(".")[2] for alias in ast.walk(tree)
                 if isinstance(alias, ast.alias) and alias.asname}
        for node in _definitions(tree):
            refs = graph.setdefault(node.name, set())
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.add(bound.get(sub.id, sub.id))
                elif isinstance(sub, ast.Attribute):
                    refs.add(sub.attr)
                    refs.update(owners.get(sub.attr, ()))
                elif isinstance(sub, ast.alias):
                    refs.add(sub.name.rpartition(".")[2])
    return {name: refs & graph.keys() for name, refs in graph.items()}


def _reach(graph, start):
    seen, todo = set(), [start]
    while todo:
        for name in graph.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_call_graph_keeps_each_method_in_its_class():
    # building A reaches A's helper only, though B's __init__ has the same
    # name; obj.method() reaches the class that defines method
    tree = ast.parse("def helper_a(): pass\n"
                     "def helper_b(): pass\n"
                     "class A:\n"
                     "    def __init__(self): helper_a()\n"
                     "class B:\n"
                     "    def __init__(self): helper_b()\n"
                     "    def method(self): pass\n"
                     "def build(): return A()\n"
                     "def call(obj): return obj.method()\n")
    graph = _call_graph([tree])
    assert sorted(graph) == ["A", "B", "build", "call", "helper_a", "helper_b"]
    assert _reach(graph, "build") == {"A", "helper_a"}
    assert _reach(graph, "call") == {"B", "helper_b"}


def test_audit_and_production_routes_share_no_path():
    # the audit routes count as independent evidence only while none of
    # them runs the production kernel, and production never leans on them;
    # the kernel is whatever production reaches outside bigraded, the
    # table layer both sides share
    graph = _call_graph(SRC.values())
    assert [name for name in AUDIT_ENTRIES + PRODUCTION_ENTRIES if name not in graph] == []
    kernel = set().union(*(_reach(graph, entry) for entry in PRODUCTION_ENTRIES))
    kernel -= {node.name for node in _definitions(SRC["bigraded"])}
    assert kernel >= {"_newton", "_Layout", "_power_terms", "_symmetric", "_goettsche"}
    crossings = [(entry, name) for entry in AUDIT_ENTRIES
                 for name in sorted(_reach(graph, entry) & kernel)]
    crossings += [(entry, name) for entry in PRODUCTION_ENTRIES
                  for name in sorted(_reach(graph, entry) & set(AUDIT_ENTRIES))]
    assert crossings == []
