"""The package's import surface: no dead imports, no dangling exports.

No linter ships with the project, so these two checks stand in for one.
"""

import ast
import importlib
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "confalg"


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
