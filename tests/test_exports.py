"""Every name a module of the package exports resolves, and a star import of
each module works, so a stale ``__all__`` entry fails here."""

import importlib
import pkgutil

import pytest

import obbo

MODULES = sorted(
    ["obbo"] + [m.name for m in pkgutil.walk_packages(obbo.__path__, prefix="obbo.")]
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(getattr(module, "__all__", ())) <= namespace.keys()
