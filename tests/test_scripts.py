"""The shipped scripts, run as subprocesses, print their pinned stdout byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import interestprof

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"

WORKED_EXAMPLE_STDOUT = (
    "user u1, image img1\n"
    "  espresso   p=0.08  ->  Drink\n"
    "  cup        p=0.07  ->  Drink\n"
    "  dough      p=0.06  ->  Food\n"
    "  ladle      p=0.05  ->  Drink\n"
    "  sandal     p=0.04  ->  Fashion\n"
    "\n"
    "image-level probability scores: {'Drink': 0.2, 'Fashion': 0.04, 'Food': 0.06}\n"
    "image-level occurrence scores:  {'Drink': 0.6, 'Fashion': 0.2, 'Food': 0.2}\n"
    "\n"
    "user vector (prob): {'Drink': 0.6667, 'Fashion': 0.1333, 'Food': 0.2}\n"
    "user vector (occ):  {'Drink': 1.0}\n"
    "predicted topic:    Drink\n"
)

PURITY_SWEEP_STDOUT = (
    "purity  mech  k=5     k=10    k=25    k=50  \n"
    "--------------------------------------------\n"
    "1.0     occ   1.000   1.000   1.000   1.000 \n"
    "1.0     prob  1.000   1.000   1.000   1.000 \n"
    "0.8     occ   1.000   1.000   1.000   1.000 \n"
    "0.8     prob  1.000   1.000   1.000   1.000 \n"
    "0.6     occ   1.000   1.000   1.000   1.000 \n"
    "0.6     prob  1.000   1.000   1.000   1.000 \n"
    "0.4     occ   1.000   1.000   1.000   1.000 \n"
    "0.4     prob  1.000   1.000   1.000   1.000 \n"
    "0.3     occ   0.917   1.000   1.000   1.000 \n"
    "0.3     prob  0.958   1.000   1.000   1.000 \n"
)


STDOUT = {"run_worked_example.py": WORKED_EXAMPLE_STDOUT, "purity_sweep.py": PURITY_SWEEP_STDOUT}


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
    assert proc.stdout == STDOUT[script]
