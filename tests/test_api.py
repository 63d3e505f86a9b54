"""No public function exists only for the tests, and no export is stale.

Every public top-level function and every public method of a top-level
class in src/coopmec/*.py must be referenced somewhere in src/coopmec/ or
scripts/ outside its own definition; `__init__.py` re-exports do not count.
A function is referenced by a loaded name or attribute of its name, a
method only by an attribute.  The check goes by name, so it can miss dead
code that shares a name with live code, but it cannot flag live code.

Likewise every `CoopMecError` subclass in errors.py must be raised, by a
`raise` statement, somewhere in src/coopmec/: an error type nothing raises
cannot linger in `__all__`.  And every annotated field of the solver
records (`IcrbiTrace`, `MatchingState`, `RoundLog`) and of the per-scenario
data (`FeasibilityBounds`, `ScenarioArrays`, `OpenPairs`) must be loaded as an attribute
somewhere in src/coopmec/ or scripts/: a record holds only what the solve
or its callers read, not write-only bookkeeping.  Every attribute that
`icrbi._Kernel.__init__` stores must be loaded by another kernel method: a
term precomputed once per solve is dead once its last reader goes.

No setting exists only for the tests either: every defaulted parameter of
a public function or method must be passed, by keyword or by position, by
some call in src/coopmec/ or scripts/ outside its own definition.  A call
matches by the callee's name, as above, and one that unpacks `*args` or
`**kwargs` counts as passing every parameter it could fill.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "coopmec"
SCRIPTS = ROOT / "scripts"

# public names nothing in src/ or scripts/ calls, kept on purpose
ALLOWED = {
    "scenario.read_scenario": "scenario-file reader: the package's input boundary",
}

# defaulted parameters no call in src/ or scripts/ passes, kept on purpose
UNPASSED = {
    "cli.main.argv": "the console script calls main() and argparse reads sys.argv",
}


# record fields nothing in src/ or scripts/ reads, kept on purpose
WRITE_ONLY = {
    "IcrbiTrace.n_root_pairs": "solverbench reads it through getattr",
}
RECORDS = [("icrbi", "IcrbiTrace"), ("matching", "MatchingState"), ("decentral", "RoundLog"),
           ("model", "FeasibilityBounds"), ("model", "ScenarioArrays"), ("model", "OpenPairs")]


def modules() -> list[Path]:
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def public_functions():
    """(module.qualname, is_method, file, FunctionDef) of every public
    top-level function and public method of a top-level class."""
    for path in modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node, False)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{m.name}", m, True) for m in node.body
                        if isinstance(m, ast.FunctionDef)]
            else:
                continue
            for qual, fn, is_method in defs:
                if not fn.name.startswith("_"):
                    yield f"{path.stem}.{qual}", is_method, path, fn


def source_trees():
    """(file, parsed module) over the package (without __init__.py) and the scripts."""
    for path in modules() + sorted(SCRIPTS.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def references() -> tuple[dict, dict]:
    """Loaded names and loaded attributes -> [(file, line)] over the package
    (without __init__.py) and the scripts."""
    names, attrs = defaultdict(list), defaultdict(list)
    for path, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs[node.attr].append((path, node.lineno))
    return names, attrs


def unreferenced() -> list[str]:
    names, attrs = references()
    out = []
    for qual, is_method, path, fn in public_functions():
        sites = attrs[fn.name] + ([] if is_method else names[fn.name])
        if not any(p != path or not fn.lineno <= line <= fn.end_lineno for p, line in sites):
            out.append(qual)
    return out


def test_every_public_function_has_a_caller():
    extra = [q for q in unreferenced() if q not in ALLOWED]
    assert extra == [], f"public but only the tests call: {extra}"


def test_allow_list_is_current():
    # an entry that gained a caller, or whose function is gone, is dropped
    defined = {q for q, *_ in public_functions()}
    assert set(ALLOWED) <= defined
    assert set(ALLOWED) <= set(unreferenced())


def test_every_export_resolves():
    import coopmec
    assert [name for name in coopmec.__all__ if not hasattr(coopmec, name)] == []
    assert len(set(coopmec.__all__)) == len(coopmec.__all__)


def raised_names() -> set[str]:
    """Names a `raise` statement in the package raises or constructs."""
    out = set()
    for path in modules():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    out.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    out.add(exc.attr)
    return out


def test_every_error_type_is_raised():
    from coopmec import errors
    types = [name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.CoopMecError)
             and obj is not errors.CoopMecError]
    assert len(types) >= 5
    assert [name for name in types if name not in raised_names()] == []


def record_fields() -> list[str]:
    """Class.field of every annotated field of the records."""
    out = []
    for stem, cls in RECORDS:
        tree = ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
        node = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
        out += [f"{cls}.{item.target.id}" for item in node.body
                if isinstance(item, ast.AnnAssign)]
    return out


def test_every_record_field_is_read():
    _, attrs = references()
    unread = [q for q in record_fields() if not attrs[q.split(".")[1]]]
    assert [q for q in unread if q not in WRITE_ONLY] == [], "write-only record fields"
    assert set(WRITE_ONLY) <= set(unread)           # the allow-list is current


def kernel_state() -> tuple[set[str], set[str]]:
    """Attributes icrbi._Kernel.__init__ stores on self, and those the
    kernel's other methods load."""
    tree = ast.parse((PACKAGE / "icrbi.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Kernel")
    stored, loaded = set(), set()
    for fn in cls.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                continue
            if fn.name == "__init__" and isinstance(node.ctx, ast.Store):
                stored.add(node.attr)
            elif fn.name != "__init__" and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return stored, loaded


def test_every_kernel_term_is_read():
    stored, loaded = kernel_state()
    assert {"rows", "starts", "mid", "mu_scale"} <= stored           # the walk sees them
    assert sorted(stored - loaded) == [], "kernel state that no other method reads"


def defaulted_parameters(fn: ast.FunctionDef, is_method: bool):
    """(name, call position or None) of each parameter with a default; the
    position counts the arguments a call spells out, so a method's is one
    less than in its signature (`self` comes bound)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - is_method) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
            if d is not None]
    return out


def passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def calls() -> dict:
    """Callee name -> [(file, line, Call)]: `f(...)` and `x.f(...)`."""
    out = defaultdict(list)
    for path, tree in source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None:
                    out[name].append((path, node.lineno, node))
    return out


def unpassed_parameters() -> list[str]:
    sites = calls()
    out = []
    for qual, is_method, path, fn in public_functions():
        outside = [c for p, line, c in sites[fn.name]
                   if p != path or not fn.lineno <= line <= fn.end_lineno]
        out += [f"{qual}.{param}" for param, pos in defaulted_parameters(fn, is_method)
                if not any(passes(c, param, pos) for c in outside)]
    return out


def test_every_default_is_overridden_somewhere():
    unpassed = unpassed_parameters()
    assert [q for q in unpassed if q not in UNPASSED] == [], "settings only the tests pass"
    assert set(UNPASSED) <= set(unpassed)           # the allow-list is current
