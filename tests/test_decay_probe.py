"""scripts/decay_probe.py run as a program from a checkout."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from thetacb.identities import ARROWS

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "decay_probe.py"


def test_runs_from_a_checkout(tmp_path):
    # no PYTHONPATH and a foreign working directory: the script has to find
    # the package on its own
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(_PATH), "--halvings", "1"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == list(ARROWS)
