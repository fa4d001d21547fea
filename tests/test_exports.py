"""The package's lazy export table agrees with each module's __all__, and no module imports a name it never uses."""

import ast
import importlib
import pathlib
import symtable

import waveprop as wp


def test_exports_resolve_and_match_module_all():
    for name, module in wp._EXPORTS.items():
        mod = importlib.import_module(f"waveprop.{module}")
        assert getattr(wp, name) is getattr(mod, name), name
        assert name in mod.__all__, f"{name} is exported but not in {module}.__all__"
    for module in sorted(set(wp._EXPORTS.values())):
        mod = importlib.import_module(f"waveprop.{module}")
        stale = [name for name in mod.__all__ if wp._EXPORTS.get(name) != module]
        assert stale == [], f"{module}.__all__ names missing from waveprop._EXPORTS: {stale}"


def _read_below(table, name: str, binds: bool) -> bool:
    """Whether a binding of name is read in this scope or in a nested scope that sees it."""
    if name in table.get_identifiers():
        sym = table.lookup(name)
        if not binds and (sym.is_local() or sym.is_parameter()):
            return False  # shadowed here and in every scope below
        if sym.is_referenced():
            return True
    return any(_read_below(child, name, False) for child in table.get_children())


def _unused_imports(text: str, filename: str) -> list[str]:
    """Names a module imports and never reads, scope by scope.

    A name read only in an annotation, or listed in __all__, counts as
    read; `from __future__` imports are skipped.
    """
    tree = ast.parse(text)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            exempt |= {alias.name for alias in node.names}
        notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
        exempt |= {n.id for note in notes if note is not None for n in ast.walk(note) if isinstance(n, ast.Name)}
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exempt |= {n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant)}
    unused, scopes = [], [symtable.symtable(text, filename, "exec")]
    while scopes:
        table = scopes.pop()
        scopes.extend(table.get_children())
        unused += [f"{sym.get_name()} in {table.get_name()}" for sym in table.get_symbols()
                   if sym.is_imported() and sym.get_name() not in exempt
                   and not _read_below(table, sym.get_name(), True)]
    return sorted(unused)


def test_src_has_no_unused_imports():
    src = pathlib.Path(wp.__file__).parent
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8"), path.name)
              for path in sorted(src.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}
