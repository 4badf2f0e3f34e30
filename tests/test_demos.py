"""Smoke test: every script in demos/ runs to the end in a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import oada

SOURCE_DIR = Path(oada.__file__).resolve().parent.parent
DEMOS = sorted((SOURCE_DIR.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # A temporary cwd takes the CSVs that demo 03 writes.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SOURCE_DIR), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            cwd=tmp_path, env=env, timeout=600)
    assert result.returncode == 0, result.stderr
