"""The demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(script):
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr


def test_lasso_anatomy_prints_the_lasso_shape():
    proc = _run(ROOT / "demos" / "lasso_anatomy.py")
    assert "prefix 2 positions, loop 4 positions" in proc.stdout.splitlines()
