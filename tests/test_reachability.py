"""Every top-level definition in the package is used somewhere in it.

A module-level function, class or assigned name that no module of the
package reads (by a Name or an Attribute node) is code that only tests
reach. Imports are not uses, and neither is a name's own definition: a
function that only calls itself, or a class that only its own methods
name, is still unused. The package's __init__ only re-exports, so its
names are neither definitions nor uses.
"""
import ast
from pathlib import Path

import safecascade

PACKAGE = Path(safecascade.__file__).resolve().parent


def _defined_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]


def _used_names(stmt: ast.stmt) -> set[str]:
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def unreachable_definitions() -> list[str]:
    """module.name for each top-level definition no other statement uses."""
    defined, uses = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = _defined_names(stmt)
            defined += [(f"{path.stem}.{name}", name, stmt) for name in names]
            uses.append((stmt, _used_names(stmt)))
    return [qual for qual, name, own in defined
            if not any(name in used for stmt, used in uses if stmt is not own)]


def test_every_top_level_definition_is_used_in_the_package():
    unused = unreachable_definitions()
    assert not unused, "defined but used nowhere in the package: " + ", ".join(unused)
