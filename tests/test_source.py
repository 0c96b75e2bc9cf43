"""The package carries no name that only the tests use: every top-level
function, class and assigned name of src/pdem is referenced somewhere in
src/pdem other than at its own definition (an export from __init__ counts),
and every name __init__ exports is referenced outside __init__ too, in
src/pdem or in the benchmark's workloads."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "pdem"
# the benchmark's entry points into the package, such as oracle.Grid
WORKLOADS = SOURCE.parent.parent / "perfbench" / "workloads.py"


def _modules():
    """{module name: its parsed source} for every module of the package."""
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE.glob("*.py"))}


def _defined(node):
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _references(module, node, modules):
    """(module, name) of each top-level name a statement refers to: a bare
    name of its own module, an attribute of a package module, or a name
    imported from one."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield module, n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in modules:
            yield n.value.id, n.attr
        elif isinstance(n, ast.ImportFrom) and n.level == 1 and n.module in modules:
            yield from ((n.module, alias.name) for alias in n.names)


def _used(modules, readers):
    """(definitions, used): each top-level name of modules by (module, name),
    with the statement that defines it, and the set of those that a module
    of readers refers to other than at its own definition."""
    definitions = {}  # (module, name) -> the statement that defines it
    references = set()  # (module, name, statement) of each reference
    for module, tree in modules.items():
        for node in tree.body:
            for name in _defined(node):
                definitions[module, name] = node
    for module in readers:
        for node in modules[module].body:
            references.update((m, name, id(node)) for m, name in _references(module, node, modules))
    used = {(m, name) for m, name, where in references if id(definitions.get((m, name))) != where}
    return definitions, used


def test_every_top_level_name_is_used_by_the_package():
    modules = _modules()
    definitions, used = _used(modules, modules)
    unused = sorted(
        f"{module}.{name}" for module, name in definitions
        if (module, name) not in used and not name.startswith("__")
    )
    assert definitions
    assert unused == []


def test_every_export_is_used_outside_the_tests():
    modules = _modules()
    exports = [
        (node.module, alias.name) for node in modules["__init__"].body
        if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names
    ]
    _, used = _used(modules, [m for m in modules if m != "__init__"])
    workloads = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    benchmark = set(_references("workloads", workloads, modules))
    unused = sorted(f"{m}.{name}" for m, name in exports if (m, name) not in used | benchmark)
    assert exports
    assert unused == []
