"""scripts/census.py on tiny configurations."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from thetacb import cli

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "census.py"
_spec = importlib.util.spec_from_file_location("census", _PATH)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

_TINY = ["--identities", "qcb,elliptic_cb", "--m-max", "1", "--n-max", "1", "--trials", "1"]


def _lines(capsys) -> list[dict]:
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def _summary(trials) -> dict:
    """The per-identity summary line the census ends with, from its trial lines."""
    names = sorted({line["identity"] for line in trials})
    return {"type": "identities", "identities": {name: {
        "failing": sum(line["identity"] == name for line in trials),
        "worst_residual": max(line["residual"] for line in trials if line["identity"] == name),
        "worst_residual_40": max(line["residual_40"] for line in trials
                                 if line["identity"] == name)} for name in names}}


def test_double_rounding_failures_are_false_failures(capsys):
    # below double rounding, a tolerance every double trial misses and every
    # 40-digit rerun meets
    assert census.main(["--seeds", "0-1", "--tol", "1e-25", *_TINY]) == 0
    *trials, count, summary = _lines(capsys)
    assert count == {"type": "count", "campaigns": 2, "failing": len(trials),
                     "false": len(trials), "genuine": 0, "resampled": 0}
    assert trials and summary == _summary(trials)
    assert summary["identities"].keys() == {"qcb", "elliptic_cb"}
    reports = {seed: cli.run_campaign(cli.CampaignConfig(
        identities=("qcb", "elliptic_cb"), m_max=1, n_max=1, trials=1, tol=1e-25, seed=seed))
        for seed in (0, 1)}
    for line in trials:
        rec = next(rec for rec in reports[line["campaign_seed"]].records
                   if (rec["identity"], rec["m"], rec["n"], rec["trial"])
                   == (line["identity"], line["m"], line["n"], line["trial"]))
        assert rec["verdict"] == "fail"
        assert (line["trial_seed"], line["params"], line["residual"]) == \
            (rec["seed"], rec["params"], rec["residual"])
        assert line["residual_40"] <= 1e-25
    failing = sum(rec["verdict"] == "fail" for report in reports.values()
                  for rec in report.records)
    assert failing == len(trials)


def test_a_failure_that_holds_at_forty_digits_is_genuine(monkeypatch, capsys):
    monkeypatch.setitem(cli.REGISTRY, "qcb", ("always off by one", None, lambda pp, m, n: 1.0))
    assert census.main(["--seeds", "3", *_TINY]) == 1
    *trials, count, summary = _lines(capsys)
    assert {line["identity"] for line in trials} == {"qcb"}
    assert count == {"type": "count", "campaigns": 1, "failing": 4, "false": 0, "genuine": 4,
                     "resampled": 0}
    assert all(line["residual_40"] == 1.0 for line in trials)
    assert summary == {"type": "identities", "identities": {"qcb": {
        "failing": 4, "worst_residual": 1.0, "worst_residual_40": 1.0}}}


def test_seeds_66_to_71_of_the_default_campaign_are_pinned(capsys):
    # a short range that holds the worst false failure of the 200-seed
    # census, 8.6e-2 in doubles at seed 69, where the xabc check divides
    # by a weight within the guard and resamples: a change to a residual,
    # to theta or to a guard re-pins this list, declared
    assert census.main(["--seeds", "66-71"]) == 0
    *trials, count, summary = _lines(capsys)
    assert count == {"type": "count", "campaigns": 6, "failing": 2, "false": 2, "genuine": 0,
                     "resampled": 2}
    assert summary == _summary(trials)
    assert [(line["campaign_seed"], line["identity"], line["m"], line["n"], line["trial"],
             line["residual"]) for line in trials] == [
        (69, "homogeneous_elliptic_ab", 3, 3, 1, 0.0857761770612228),
        (70, "homogeneous_elliptic_xabc", 2, 3, 0, 1.8600501920939724e-08),
    ]
    assert all(line["residual_40"] < 1e-24 for line in trials)


def test_a_bad_seed_range_exits_two(capsys):
    assert census.main(["--seeds", "5-4", *_TINY]) == 2
    assert "empty seed range" in capsys.readouterr().err


def test_two_jobs_print_what_one_process_prints(capsys, monkeypatch):
    # the workers import the script by name, as the script's own run does
    monkeypatch.syspath_prepend(str(_PATH.parent))
    monkeypatch.setitem(sys.modules, "census", census)
    flags = ["--seeds", "0-3", "--tol", "1e-25", *_TINY]
    assert census.main(flags) == 0
    one = capsys.readouterr().out
    assert census.main(["--jobs", "2", *flags]) == 0
    assert capsys.readouterr().out == one
    assert one.count("\n") > 2


def test_more_jobs_than_cpus_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    for jobs in ("0", "3"):
        assert census.main(["--seeds", "0", "--jobs", jobs, *_TINY]) == 2
        assert "--jobs must lie in [1, 2]" in capsys.readouterr().err
