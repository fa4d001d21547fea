"""The package's lazy exports are each module's __all__, importing the package loads no numpy, no run-time path loads scipy, no module imports a name it never uses, and deleted options and exports stay deleted."""

import ast
import importlib
import inspect
import pathlib
import subprocess
import sys
import symtable

import waveprop as wp


def test_exports_resolve_and_match_module_all():
    owner = {}
    for module in wp._MODULES:
        mod = importlib.import_module(f"waveprop.{module}")
        for name in mod.__all__:
            assert name not in owner, f"{name} is in both {owner[name]}.__all__ and {module}.__all__"
            owner[name] = module
            assert getattr(wp, name) is getattr(mod, name), name
    assert wp.__all__ == sorted(owner) + ["__version__"]
    assert dir(wp) == sorted(wp.__all__)


def test_importing_the_package_loads_no_numpy():
    # the command line pins the BLAS thread count before numpy loads
    src = str(pathlib.Path(wp.__file__).parent.parent)
    code = "import sys, waveprop; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_no_run_time_path_imports_scipy():
    # scipy is a test-only dependency: every module and these subcommands run on numpy alone
    src = str(pathlib.Path(wp.__file__).parent.parent)
    code = """
import contextlib, importlib, io, sys
import waveprop
for module in waveprop._MODULES:
    importlib.import_module(f"waveprop.{module}")
from waveprop import cli
checks = ["--check", "transmutation", "--check", "product-heat", "--check", "mass-kernels", "--check", "moments"]
for argv in (["kg"], ["damped"], ["rule", "--dim", "3", "--level", "24"], ["verify", *checks]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


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


# options that no caller in the package set differently, and exports only tests called
_DELETED_PARAMETERS = {
    ("trotter", "fm_evaluate"): ["order"],
    ("trotter", "sin_fm_evaluate"): ["order"],
    ("trotter", "fm_quadrature_crosscheck"): ["order"],
    ("trotter", "taylor_limit_check"): ["m_values"],
    ("trotter", "cos_noncomm"): ["m0"],
    ("trotter", "sin_noncomm"): ["m0"],
    ("pde", "harmonic_oscillator"): ["m0"],
    ("pde", "grushin_demo"): ["m_cap"],
    ("quadrature", "stable_sum"): ["axis"],
    ("quadrature", "ball_moment"): ["d"],
    ("fields", "gaussian_bump"): ["origins", "amplitude"],
    ("fields", "assert_no_wrap"): ["support_radius"],
    ("fields", "spectral_wave_reference"): ["symbol"],
    ("pde", "_shell_multiplier"): ["pref"],
}


def test_deleted_options_and_exports_stay_deleted():
    for (module, name), params in _DELETED_PARAMETERS.items():
        signature = inspect.signature(getattr(importlib.import_module(f"waveprop.{module}"), name))
        assert not set(params) & set(signature.parameters), (name, params)
    assert {"dirichlet_moment", "effective_support_radius", "HermitianOperator",
            "SpectralDecomposition", "as_matrix"}.isdisjoint(wp.__all__)
    # the grid oracle takes the routes' shift, so the Fourier-symbol exports and the evenness test are gone
    assert {"wave_symbol", "klein_gordon_symbol", "damped_symbol"}.isdisjoint(wp.__all__)
    for module, name in (("operators", "HermitianOperator"), ("operators", "SpectralDecomposition"),
                         ("operators", "as_matrix"), ("quadrature", "DirichletRule"), ("fields", "_is_even")):
        assert not hasattr(importlib.import_module(f"waveprop.{module}"), name), name
    assert not hasattr(wp.GridField, "norm")
    # the splitting walk is reached through fm_evaluate, a Monte Carlo error is mass * std / sqrt(n)
    assert "taylor_series_build" not in wp.__all__
    assert not hasattr(importlib.import_module("waveprop.trotter"), "taylor_series_build")
    assert not hasattr(wp.SphereRule, "error_estimate") and not hasattr(wp.BallRule, "error_estimate")
    assert not hasattr(wp.CommutingFamily, "norm_sum")
    # every grid route reads one shell law over (2m-1)!!: no table of measures and prefactors
    assert not hasattr(importlib.import_module("waveprop.pde"), "_route")
    # one rule picks every series order: the ascent's own order rule and both tolerances are gone
    for module in ("operators", "ascent", "trotter"):
        for name in ("_truncation_order", "SERIES_TAIL_TOL", "SERIES_ORDER_CAP", "DEFAULT_ORDER_TOL",
                     "_ladder_cos", "_ladder_sin"):
            assert not hasattr(importlib.import_module(f"waveprop.{module}"), name), (module, name)
