"""scripts/report_digests.py on a tiny spec file."""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

from thetacb import cli

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"
_spec = importlib.util.spec_from_file_location("report_digests", _PATH)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)

_TINY = {
    "workloads": {
        "tiny_double": {
            "config": {"identities": ["qcb", "b_system"], "m_max": 1, "n_max": 1,
                       "trials": 1, "precision": 0, "p_max": 0.5},
            "default_seed": 0, "heldout_seed": 11},
        "tiny_mp": {
            "config": {"identities": ["lattice_master_equality"], "m_max": 0, "n_max": 1,
                       "trials": 1, "precision": 20, "p_max": 0.2},
            "default_seed": 3, "heldout_seed": 4},
    }
}


def _write_spec(tmp_path) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_TINY))
    return str(path)


def _cli_digest(tmp_path, config: dict, seed: int) -> str:
    out = tmp_path / f"report-{seed}.jsonl"
    argv = ["--identities", ",".join(config["identities"]), "--m-max", str(config["m_max"]),
            "--n-max", str(config["n_max"]), "--trials", str(config["trials"]),
            "--precision", str(config["precision"]), "--p-max", str(config["p_max"]),
            "--seed", str(seed), "--out", str(out)]
    assert cli.main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_digests_are_the_sha256_of_the_reports_the_cli_writes(tmp_path, capsys):
    assert report_digests.main(["--spec", _write_spec(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    want = []
    for name, workload in _TINY["workloads"].items():
        for role in ("default_seed", "heldout_seed"):
            seed = workload[role]
            want.append(f"{name} seed {seed} {_cli_digest(tmp_path, workload['config'], seed)}")
    assert lines == want


def test_workloads_selects_and_orders(tmp_path, capsys):
    spec = _write_spec(tmp_path)
    assert report_digests.main(["--spec", spec, "--workloads", "tiny_mp"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == ["tiny_mp seed 3", "tiny_mp seed 4"]


def test_unknown_workload_and_missing_spec_exit_two(tmp_path, capsys):
    assert report_digests.main(["--spec", _write_spec(tmp_path), "--workloads", "nope"]) == 2
    assert "unknown workloads: nope" in capsys.readouterr().err
    assert report_digests.main(["--spec", str(tmp_path / "missing.json")]) == 2
    assert "spec error" in capsys.readouterr().err


#: The sha256 of the report of each benchmark workload at its default and
#: held-out seeds.  A change that alters a report on purpose says so and
#: pins the new digests here, as the ``float.hex`` pins are re-pinned.
_PINNED = [
    ("campaign_default", 0, "4c4338fd98b47c99436ac0b1cbff847b5379b401055a0c1de592d1f4daa73b72"),
    ("campaign_default", 11, "d0e696337daea4e4acd53d3ce2481ecb0a19ef549bc895879a754e2bcd303b4a"),
    ("campaign_deep", 2, "6bb1fe8b8f2f7e9bce9d872ef7ea903f25923e17e6cd08fc5c759a93946b7f3d"),
    ("campaign_deep", 11, "b827da7b0cef70d8ae1f94e3c50add76a4de9fb41e1126816d77ec6832711dec"),
    ("campaign_mp40", 0, "497887c2346e00a3f874f73940a22ad9da15b678eb5b9d64a1c97be38f2a9d17"),
    ("campaign_mp40", 11, "a52417c0161d03ef3145a67089a118a481d8de2881f3f00edb179697a261a947"),
]


def test_the_benchmark_workloads_reports_are_pinned():
    # every workload of the benchmark's spec (read, never written), run in
    # this process as the script runs it
    spec_path = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    assert list(report_digests.digests(spec, tuple(spec["workloads"]))) == _PINNED
