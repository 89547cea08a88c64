"""The package's public surface: what perfbench binds, and what __all__
exports, must exist and be used."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import isotough

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(isotough.__file__).resolve().parent


def test_tracer_targets_resolve(monkeypatch):
    # the tracer looks each target up only when it is installed, so a
    # deleted function would first fail a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = [f"{module.__name__}.{name}"
               for module, name, *_ in tracer._TARGETS
               if not hasattr(module, name)]
    assert missing == []


def isotough_bindings(path):
    """(module, name) for each name the file imports from isotough, and
    for each attribute it reads off an isotough module it imports."""
    tree = ast.parse(path.read_text())
    bindings, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "isotough":
            for alias in node.names:
                bindings.append((node.module, alias.name))
                if node.module == "isotough":
                    modules[alias.asname or alias.name] = \
                        f"isotough.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            bindings.append((modules[node.value.id], node.attr))
    return bindings


def test_perfbench_imports_from_isotough_resolve():
    bindings = isotough_bindings(PERFBENCH / "workloads.py") \
        + isotough_bindings(PERFBENCH / "tracer.py")
    assert bindings
    missing = [f"{module}.{name}" for module, name in bindings
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def references_outside_own_def(tree, names):
    """Names of `names` read as a name or an attribute anywhere in the
    tree except inside the function that defines them."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id in names:
            if node.id not in inside:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            if node.attr not in inside:
                found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_exported_function_has_a_caller_in_the_package():
    # classes, exceptions and constants are exempt: a result type is
    # returned rather than called
    functions = {name for name in isotough.__all__
                 if inspect.isfunction(getattr(isotough, name))}
    called = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            called |= references_outside_own_def(
                ast.parse(path.read_text()), functions)
    assert sorted(functions - called) == []
