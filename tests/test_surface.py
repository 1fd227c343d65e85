"""The package's import surface: no dead imports, no dangling exports, no
dead definitions, no dead record fields, and a cold start that imports
neither dataclasses nor inspect.

No linter ships with the project, so these checks stand in for one.
"""

import ast
import importlib
import json
from collections import Counter
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_PACKAGE = _ROOT / "src" / "confalg"


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported_names(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.update(alias.asname or alias.name for alias in node.names)
    return out


def test_every_import_is_used_or_exported():
    unused = {}
    for path in sorted(_PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names = _imported_names(tree) - used - _declared_all(tree)
        if names:
            unused[path.name] = sorted(names)
    assert not unused, f"imported but never used: {unused}"


def test_every_exported_name_resolves():
    missing = {}
    for module in ("confalg", "confalg.dsl", "confalg.suites"):
        mod = importlib.import_module(module)
        names = [name for name in mod.__all__ if not hasattr(mod, name)]
        if names:
            missing[module] = names
    assert not missing, f"__all__ names that do not resolve: {missing}"


def _mentions(node):
    """How often each name appears under node as a Name, an Attribute or a
    string constant; the last covers __all__ and the benchmark's trace points."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out[n.value] += 1
    return out


def _definitions(tree):
    """(name, defining node) for every function, method and class in tree,
    and for every private name assigned at its top level."""
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield node.name, node
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.startswith("_"):
                yield target.id, node


def _program_trees():
    """path -> syntax tree of every module under src/ and perfbench/."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in ("src", "perfbench")
        for path in sorted((_ROOT / top).rglob("*.py"))
    }


def test_every_definition_is_named_elsewhere():
    # a function, method, class or private module constant is live only if
    # src/ or perfbench/ names it outside its own definition; dunders are
    # reached through the language, and public constants through the tests
    trees = _program_trees()
    named = Counter()
    for tree in trees.values():
        named.update(_mentions(tree))
    dead = []
    for path, tree in trees.items():
        if _PACKAGE not in path.parents:
            continue
        for name, node in _definitions(tree):
            if name.startswith("__") and name.endswith("__"):
                continue
            if named[name] == _mentions(node)[name]:
                dead.append(f"{path.name}:{name}")
    assert not dead, f"defined but never named elsewhere: {dead}"


#: the modules whose slotted classes are records: the syntax-tree nodes of
#: dsl and the catalogue and report records of suites
_RECORD_MODULES = ("dsl.py", "suites.py")


def _slot_fields(tree):
    """(class name, field name) for each name in a class's __slots__."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            ):
                for name in ast.literal_eval(stmt.value):
                    yield node.name, name


def test_every_record_field_is_read():
    # a field is live only if src/ or perfbench/ reads it as an attribute,
    # or names it in a string constant (a walk over field names does)
    trees = _program_trees()
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    fields = [
        (path.name, cls, field)
        for path, tree in trees.items()
        if path.parent == _PACKAGE and path.name in _RECORD_MODULES
        for cls, field in _slot_fields(tree)
    ]
    # the six nodes' 11 fields and the four records' 18, so the check
    # cannot pass by finding none
    assert len(fields) == 29, fields
    dead = [f"{name}:{cls}.{field}" for name, cls, field in fields
            if field not in read]
    assert not dead, f"record fields never read: {dead}"


def test_cold_start_imports_neither_dataclasses_nor_inspect(run_cli):
    # what a cold `confalg run` pays before its first verdict; each of these
    # costs several milliseconds to import. -S keeps site from importing
    # any of them first, as a .pth file of an installed package can
    r = run_cli(launcher=("-S", "-c", (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import confalg\n"
        "from confalg import suites\n"
        "suites.get_context()\n"
        "for tag in suites.SUITE_TAGS:\n"
        "    suites.catalog_by_suite(tag)\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )))
    assert r.returncode == 0, r.stderr
    added = json.loads(r.stdout)
    assert "confalg.suites" in added
    heavy = {"dataclasses", "inspect", "importlib.resources", "pathlib", "zipfile"}
    assert not heavy & set(added), added


#: the package's modules, bottom up; errors sits below them all
_LAYERS = ("errors", "poly", "field", "nc", "conformal", "observables", "dsl",
           "suites", "cli")


def _package_imports(tree):
    """(module, imported names) of each import from the package in tree;
    `from . import dsl` imports the module dsl itself."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.level != 1:
            continue
        if node.module:
            yield node.module, [alias.name for alias in node.names]
        else:
            for alias in node.names:
                yield alias.name, []


def test_modules_import_only_from_the_layers_below():
    # errors may be imported anywhere; the package's __init__ re-exports all
    rank = {name: i for i, name in enumerate(_LAYERS)}
    bad = []
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        assert path.stem in rank, f"{path.name} has no place in _LAYERS"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for module, _ in _package_imports(tree):
            if module != "errors" and rank[module] >= rank[path.stem]:
                bad.append(f"{path.name} imports {module}")
    assert not bad, bad


def _poly_names(tree):
    """The polynomial-level names tree imports or refers to."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    for module, imported in _package_imports(tree):
        names.update(imported)
        if module == "poly":
            names.add("poly")
    return sorted(
        n for n in names
        if n in ("poly", "Polynomial", "RationalFunction", "Q_POLY")
        or n.startswith("RF_")
    )


def test_only_field_assembles_coefficients_from_polynomials():
    # nc and observables build coefficients with FieldElem arithmetic alone
    found = {}
    for name in ("nc", "observables"):
        tree = ast.parse((_PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        names = _poly_names(tree)
        if names:
            found[name] = names
    assert not found, found
