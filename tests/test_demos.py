"""Smoke tests: every demo runs to completion as a script."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("script", ["01_minimum_drivers_for_targets.py",
                                    "02_flow_machinery.py",
                                    "03_certify_and_steer.py",
                                    "04_fraction_sweep.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # run in a scratch directory: demo 03 writes its trajectory CSV there
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
