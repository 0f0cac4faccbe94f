"""The public API is what the command line runs.

Every public function or class in src/heiswalk must be reached from the
command line's entry point `cli.main` or from a name that the benchmark
tracer wraps (`benchmark/tracing.py`'s LAYERS), following references
through the package: a call from another module, or from a reached
function of its own module, counts, and so does a type that reached code
builds or names.  A module-level assignment is followed once its name is
reached; other module-level statements run on import, so what they
reference is reached.  A decorator defined in the same module registers
the function it decorates on import (as `cli._experiment` fills the
experiment table that `cli.main` reads), so that function is reached.
Code only the tests need lives in tests/oracles.py.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heiswalk"
TRACING = ROOT / "benchmark" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("heiswalk_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def _top_level(tree):
    """Name -> node of every function, class and assigned name of a module."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        out[sub.id] = node
    return out


def _references(node, module, defs, imported, modules):
    """(module, name) of every top-level name that node refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in defs[module]:
                out.add((module, sub.id))
            elif sub.id in imported:
                out.add(imported[sub.id])
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = modules.get(sub.value.id)
            if target is not None and sub.attr in defs[target]:
                out.add((target, sub.attr))
    return out


def unreached_public_names():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    defs = {module: _top_level(tree) for module, tree in trees.items()}
    edges, reached = {}, {("cli", "main")}
    reached |= {(layer, name) for layer, names in _layers().items() for name in names}
    for module, tree in trees.items():
        imported, modules = {}, {}  # local name -> (module, name); local name -> module
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        imported[local] = (node.module, alias.name)
        for name, node in defs[module].items():
            edges[(module, name)] = _references(node, module, defs, imported, modules)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign,
                                     ast.Import, ast.ImportFrom)):
                reached |= _references(node, module, defs, imported, modules)
            elif isinstance(node, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id in defs[module]
                    for d in (getattr(dec, "func", dec) for dec in node.decorator_list)):
                reached.add((module, node.name))
    stack = list(reached)
    while stack:
        for ref in edges.get(stack.pop(), ()):
            if ref not in reached:
                reached.add(ref)
                stack.append(ref)
    return sorted(
        f"{module}.{name}"
        for module, names in defs.items()
        for name, node in names.items()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not name.startswith("_") and (module, name) not in reached
    )


def test_every_public_name_is_reached_from_the_cli_or_the_tracer():
    assert unreached_public_names() == []
