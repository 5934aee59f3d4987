"""Smoke runs of the shipped scripts, the only non-test callers of the adapter API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import interestprof

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("run_worked_example.py", [], "user u1, image img1"),
    ("purity_sweep.py", ["--users-per-topic", "1", "--images", "10"],
     "purity  mech  k=5     k=10    k=25    k=50"),
])
def test_script_runs_and_prints_its_header(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(Path(interestprof.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(SCRIPTS_DIR / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].rstrip() == header
