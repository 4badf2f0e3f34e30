"""Every name a module of the package exports must exist, so a deletion
cannot leave a stale `__all__` entry behind; and importing the package
loads none of scipy beyond scipy.sparse."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import oada

MODULES = ["oada"] + sorted(m.name for m in pkgutil.iter_modules(oada.__path__, "oada."))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_the_package_loads_no_scipy_optimize_or_linalg():
    # scipy's optimize and linalg packages, with their Fortran libraries,
    # add about 27 MB to every process's resident memory; the package needs
    # neither, so a stray import of either shows here first
    source_dir = os.path.dirname(os.path.dirname(os.path.abspath(oada.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source_dir, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", "import sys, oada, oada.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, check=True)
    loaded = child.stdout.split()
    assert "oada.cli" in loaded
    assert not [m for m in loaded if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "linalg"])]
