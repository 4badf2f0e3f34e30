"""Every name a module of the package exports must exist, so a deletion
cannot leave a stale `__all__` entry behind."""

import importlib
import pkgutil

import pytest

import oada

MODULES = ["oada"] + sorted(m.name for m in pkgutil.iter_modules(oada.__path__, "oada."))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
