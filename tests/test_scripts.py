"""The scripts run to completion against the installed package API.

Each script runs as a subprocess in a scratch directory, so files it writes
stay out of the repository. `quantum_imbalance_experiment.py` is acceptance
criterion 1's layout and takes a few seconds on the exact oracle.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", ["twin_peak_demo.py", "squashing_sweep.py",
                                    "quantum_imbalance_experiment.py"])
def test_script_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
