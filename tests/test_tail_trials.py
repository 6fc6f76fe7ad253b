"""scripts/tail_trials.py run as a program from a checkout."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tail_percentile_is_the_benchmarks(monkeypatch):
    monkeypatch.syspath_prepend(str(_ROOT / "perfbench"))  # run.py imports hostspeed
    bench = _load("perfbench_run", _ROOT / "perfbench" / "run.py")
    tail = _load("tail_trials", _ROOT / "scripts" / "tail_trials.py")
    for trials in (64, 1152, 1392):
        assert tail.tail_percentile(trials) == bench.tail_percentile(trials)


def test_runs_from_a_checkout(tmp_path):
    # no PYTHONPATH and a foreign working directory: each run has to find
    # the package on its own
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "tail_trials.py"),
         "--identities", "qcb,elliptic_cb", "--m-max", "1", "--n-max", "1", "--trials", "2",
         "--runs", "2", "--top", "3"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # 2 identities x 4 cells x 2 trials; p = floor(1000 (1 - 10/16)) / 10
    head, at_p = lines[0].split(" = ")
    assert head == "16 trials, 2 runs: tail p37.5" and at_p.endswith(" ms")
    assert lines[1] == "slowest 3 (identity m n trial ms):"
    slowest = [line.split() for line in lines[2:5]]
    assert all(row[0] in ("qcb", "elliptic_cb") and row[1] in "01" and row[2] in "01"
               and row[3] in "01" for row in slowest)
    times = [float(row[4]) for row in slowest]
    assert times == sorted(times, reverse=True)
    assert lines[5] == "at or above p37.5 (identity trials):"
    counts = {name: int(count) for name, count in (line.split() for line in lines[6:])}
    assert set(counts) <= {"qcb", "elliptic_cb"}
    # at least the ten trials beyond p, at most every trial
    assert 10 <= sum(counts.values()) <= 16
    assert float(at_p.split()[0]) <= min(times)


def test_a_configuration_error_exits_two():
    done = subprocess.run([sys.executable, str(_ROOT / "scripts" / "tail_trials.py"),
                           "--identities", "", "--runs", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("configuration error: identities names no identity")
