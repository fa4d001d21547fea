"""The package's lazy export table agrees with each module's __all__."""

import importlib

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
