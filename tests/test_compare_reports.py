"""scripts/compare_reports.py on two tiny hand-written reports."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _trial(identity, m, trial, residual, verdict, x=0.5):
    return {"type": "trial", "identity": identity, "m": m, "n": 0, "trial": trial,
            "seed": 7, "params": {"x": [x, 0.0]}, "residual": residual,
            "tolerance": 1e-8, "verdict": verdict}


def _write(path, trials):
    lines = [json.dumps(t) for t in trials] + [json.dumps({"type": "summary"})]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_matching_reports(tmp_path, capsys):
    parent = _write(tmp_path / "parent.jsonl", [
        _trial("qcb", 0, 0, 1e-16, "pass"),
        _trial("qcb", 1, 0, 2e-8, "fail"),
        _trial("elliptic_cb", 0, 0, 3e-9, "pass"),
        _trial("elliptic_cb", 1, 0, math.nan, "fail"),
    ])
    change = _write(tmp_path / "change.jsonl", [
        _trial("qcb", 0, 0, 1e-16, "pass", x=0.25),
        _trial("qcb", 1, 0, 4e-9, "pass"),
        _trial("elliptic_cb", 0, 0, 2e-8, "fail"),
        _trial("elliptic_cb", 1, 0, 1e-15, "pass"),
    ])
    assert compare_reports.main([parent, change]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "trials: parent 4, change 4, coordinates identical"
    assert "identical parameters: 3/4" in out
    flips = out.index("verdict changes: pass -> fail 1, fail -> pass 2")
    assert out[flips + 1:flips + 4] == [
        "  pass -> fail: elliptic_cb (0, 0) trial 0: 3e-09 -> 2e-08",
        "  fail -> pass: elliptic_cb (1, 0) trial 0: nan -> 1e-15",
        "  fail -> pass: qcb (1, 0) trial 0: 2e-08 -> 4e-09",
    ]
    assert "non-finite residuals: parent 1, change 0" in out
    assert "  elliptic_cb (0, 0) trial 0: 3e-09 -> 2e-08 (move 1.7e-08)" in out
    assert "  qcb (1, 0) trial 0: 2e-08 -> 4e-09 (move 1.6e-08)" in out


def test_differing_coordinates_exit_one(tmp_path, capsys):
    parent = _write(tmp_path / "parent.jsonl", [_trial("qcb", 0, 0, 0.0, "pass"),
                                                _trial("qcb", 0, 1, 0.0, "pass")])
    change = _write(tmp_path / "change.jsonl", [_trial("qcb", 0, 0, 0.0, "pass")])
    assert compare_reports.main([parent, change]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "trials: parent 2, change 1, coordinates DIFFER"
    assert out[1] == "  only in parent: 1, only in change: 0"
    assert out[-1] == "  qcb: unchanged"


def test_a_closed_pipe_ends_the_output_quietly(tmp_path):
    # as in `compare_reports.py A B | head` once head has exited: every
    # write to stdout fails with EPIPE
    report = _write(tmp_path / "report.jsonl",
                    [_trial("qcb", m, t, 1e-16, "pass") for m in range(4) for t in range(3)])
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, str(_PATH), report, report], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")


def test_trials_at_differing_parameters_are_listed_and_not_read_as_moves(tmp_path, capsys):
    parent = _write(tmp_path / "parent.jsonl", [
        _trial("qcb", 0, 0, 1e-16, "pass"),
        _trial("qcb", 1, 0, 2e-16, "pass"),
        _trial("qcb", 2, 1, 1e-16, "pass"),
    ])
    change = _write(tmp_path / "change.jsonl", [
        _trial("qcb", 0, 0, 5e-9, "pass", x=0.25),
        _trial("qcb", 1, 0, 3e-16, "pass"),
        _trial("qcb", 2, 1, 1e-16, "pass", x=0.75),
    ])
    assert compare_reports.main([parent, change]) == 0
    out = capsys.readouterr().out.splitlines()
    listed = out.index("identical parameters: 1/3")
    assert out[listed + 1:listed + 3] == ["  parameters differ: qcb (0, 0) trial 0",
                                          "  parameters differ: qcb (2, 0) trial 1"]
    # the 5e-9 move is between two different points; the largest move read
    # is the one at identical parameters
    assert out[-1] == "  qcb (1, 0) trial 0: 2e-16 -> 3e-16 (move 1e-16)"


def test_the_listing_stops_at_its_cap(tmp_path, capsys):
    count = compare_reports.MAX_LISTED + 5
    parent = _write(tmp_path / "parent.jsonl",
                    [_trial("qcb", m, 0, 1e-16, "pass") for m in range(count)])
    change = _write(tmp_path / "change.jsonl",
                    [_trial("qcb", m, 0, 1e-16, "pass", x=0.25) for m in range(count)])
    assert compare_reports.main([parent, change]) == 0
    out = capsys.readouterr().out.splitlines()
    listed = [line for line in out if line.startswith("  parameters differ: ")]
    assert len(listed) == compare_reports.MAX_LISTED
    assert listed[0] == "  parameters differ: qcb (0, 0) trial 0"
    assert "  ... and 5 more" in out
    # no matched trial at identical parameters: no move is read for qcb
    assert out[-1] == "largest residual move per identity:"


def test_each_direction_of_verdict_change_is_listed_up_to_the_cap(tmp_path, capsys):
    count = compare_reports.MAX_LISTED + 3
    parent = _write(tmp_path / "parent.jsonl",
                    [_trial("qcb", m, 0, 1e-16, "pass") for m in range(count)]
                    + [_trial("qcb", m, 1, 2e-8, "fail") for m in range(2)])
    change = _write(tmp_path / "change.jsonl",
                    [_trial("qcb", m, 0, 3e-8, "fail") for m in range(count)]
                    + [_trial("qcb", m, 1, 1e-16, "pass") for m in range(2)])
    assert compare_reports.main([parent, change]) == 0
    out = capsys.readouterr().out.splitlines()
    flips = out.index(f"verdict changes: pass -> fail {count}, fail -> pass 2")
    worse = [line for line in out if line.startswith("  pass -> fail: ")]
    assert len(worse) == compare_reports.MAX_LISTED
    assert worse[0] == "  pass -> fail: qcb (0, 0) trial 0: 1e-16 -> 3e-08"
    after = flips + compare_reports.MAX_LISTED + 1
    assert out[after:after + 3] == ["  ... and 3 more",
                                    "  fail -> pass: qcb (0, 0) trial 1: 2e-08 -> 1e-16",
                                    "  fail -> pass: qcb (1, 0) trial 1: 2e-08 -> 1e-16"]
