"""Every top-level definition, defaulted parameter and defaulted dataclass
field in the package is used somewhere in it.

A module-level function, class or assigned name that no module of the
package reads (by a Name or an Attribute node) is code that only tests
reach. Imports are not uses, and neither is a name's own definition: a
function that only calls itself, or a class that only its own methods
name, is still unused. The package's __init__ only re-exports, so its
names are neither definitions nor uses.

Likewise a parameter with a default, or a dataclass field with a default,
that no call in the package sets is a knob only tests turn: its value is a
constant. A call sets a parameter by keyword or by position; a call of a
class sets its __init__'s parameters or, for a dataclass without one, its
fields. Calls are matched by the called name alone (a Name or an
Attribute), so a method call sets that parameter of every method of the
name, which errs towards keeping a knob.
"""
import ast
from pathlib import Path

import safecascade

PACKAGE = Path(safecascade.__file__).resolve().parent

# Defaulted parameters no call in the package sets, and why each stays.
EXEMPT = {
    # The console script calls main() with nothing; tests and the benchmark
    # pass argv.
    "cli.main(argv)",
    # Acceptance criterion 4 refines the axis slice to 3,000 points.
    "cli.axis_slice_grid(points)",
}


def _modules() -> list[tuple[str, ast.Module]]:
    return [(path.stem, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]


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
    for module, tree in _modules():
        for stmt in tree.body:
            names = _defined_names(stmt)
            defined += [(f"{module}.{name}", name, stmt) for name in names]
            uses.append((stmt, _used_names(stmt)))
    return [qual for qual, name, own in defined
            if not any(name in used for stmt, used in uses if stmt is not own)]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _field_call(value: ast.expr | None) -> ast.Call | None:
    if isinstance(value, ast.Call) and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field":
        return value
    return None


def _dataclass_fields(cls: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has a default) for each field __init__ takes, in order."""
    fields = []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        spec = _field_call(stmt.value)
        if spec is None:
            fields.append((stmt.target.id, stmt.value is not None))
            continue
        options = {kw.arg: kw.value for kw in spec.keywords}
        if isinstance(options.get("init"), ast.Constant) and options["init"].value is False:
            continue
        fields.append((stmt.target.id, "default" in options or "default_factory" in options))
    return fields


def _signature(fn: ast.FunctionDef, method: bool) -> tuple[list[str], set[str]]:
    """A function's positional parameter names (a method's without self or
    cls) and the names of its parameters with a default."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = set(positional[len(positional) - len(args.defaults):] if args.defaults else [])
    defaulted |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    is_static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    if method and not is_static:
        positional = positional[1:]
    return positional, defaulted


def _callables(modules) -> dict[str, list[tuple[str, list[str], set[str]]]]:
    """Called name -> (qualified name, positional parameters, defaulted
    parameters) of every function, method and class it may call."""
    table: dict[str, list] = {}

    def add(name, qual, positional, defaulted):
        table.setdefault(name, []).append((qual, positional, defaulted))

    for module, tree in modules:
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                add(stmt.name, f"{module}.{stmt.name}", *_signature(stmt, method=False))
            elif isinstance(stmt, ast.ClassDef):
                methods = {s.name: s for s in stmt.body if isinstance(s, ast.FunctionDef)}
                for name, fn in methods.items():
                    add(name, f"{module}.{stmt.name}.{name}", *_signature(fn, method=True))
                if "__init__" in methods:
                    add(stmt.name, f"{module}.{stmt.name}.__init__",
                        *_signature(methods["__init__"], method=True))
                elif _is_dataclass(stmt):
                    fields = _dataclass_fields(stmt)
                    add(stmt.name, f"{module}.{stmt.name}",
                        [name for name, _ in fields], {name for name, has in fields if has})
    return table


def unset_defaults(modules=None) -> list[str]:
    """owner(param) for each defaulted parameter or field that no call in
    modules ((name, ast.Module) pairs; the package by default) sets. The
    owners are module-level functions and classes and their methods; a
    class's __init__ is named by its class."""
    modules = _modules() if modules is None else modules
    table = _callables(modules)
    unset = {f"{qual}({name})" for entries in table.values()
             for qual, _, defaulted in entries for name in defaulted}
    for _, tree in modules:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = node.func.id if isinstance(node.func, ast.Name) else \
                node.func.attr if isinstance(node.func, ast.Attribute) else None
            unpacked = any(isinstance(arg, ast.Starred) for arg in node.args) or \
                any(kw.arg is None for kw in node.keywords)
            for qual, positional, defaulted in table.get(called, ()):
                given = defaulted if unpacked else \
                    positional[:len(node.args)] + [kw.arg for kw in node.keywords]
                unset -= {f"{qual}({name})" for name in given}
    return sorted(key.replace(".__init__(", "(") for key in unset)


def test_every_top_level_definition_is_used_in_the_package():
    unused = unreachable_definitions()
    assert not unused, "defined but used nowhere in the package: " + ", ".join(unused)


SCANNED = '''
from dataclasses import dataclass, field

def f(a, b=1, *, c=2): ...
def g(a, b=1): ...
def h(a, b=1): ...

@dataclass
class D:
    x: int
    y: int = 0
    z: int = field(default=1)
    w: int = field(init=False, default=0)

class K:
    def __init__(self, p, q=0): ...
    def m(self, r=0): ...

f(0, 1)
g(0)
h(*pair)
D(1, 2)
K(1, q=2).m(3)
'''


def test_the_default_scan_maps_keywords_positions_and_classes():
    # f's b is set by position and c by nothing; an unpacked argument may
    # set any of h's parameters; D(1, 2) sets y but not z
    # (w is not an __init__ field); K(...) sets __init__'s q by keyword,
    # and .m(3) sets r by position after self.
    assert unset_defaults([("mod", ast.parse(SCANNED))]) == ["mod.D(z)", "mod.f(c)", "mod.g(b)"]


def test_every_default_is_set_somewhere_in_the_package():
    unset = set(unset_defaults())
    offenders = sorted(unset - EXEMPT)
    assert not offenders, "defaults no call in the package sets: " + ", ".join(offenders)
    stale = sorted(EXEMPT - unset)
    assert not stale, "exempt defaults that a call now sets, or that are gone: " + ", ".join(stale)
