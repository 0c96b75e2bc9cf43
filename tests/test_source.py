"""The package carries no name that only the tests use: every top-level
function, class and assigned name of src/pdem is referenced somewhere in
src/pdem other than at its own definition (an export from __init__ counts)."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "pdem"


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


def test_every_top_level_name_is_used_by_the_package():
    modules = _modules()
    definitions = {}  # (module, name) -> the statement that defines it
    references = set()  # (module, name, statement) of each reference
    for module, tree in modules.items():
        for node in tree.body:
            for name in _defined(node):
                definitions[module, name] = node
            references.update((m, name, id(node)) for m, name in _references(module, node, modules))
    used = {(m, name) for m, name, where in references if id(definitions.get((m, name))) != where}
    unused = sorted(
        f"{module}.{name}" for module, name in definitions
        if (module, name) not in used and not name.startswith("__")
    )
    assert definitions
    assert unused == []
