"""Campaign front-end tests: registry coverage, determinism, config
handling, report structure and exit codes."""

from __future__ import annotations

import importlib.util
import inspect
import json
import math
from pathlib import Path
from random import Random

import pytest

from conftest import count_theta_calls, fresh_copy
from thetacb import bezout, cli, noncomm, special
from thetacb.cli import (
    REGISTRY,
    THETA_FREE,
    CampaignConfig,
    build_config,
    list_identities,
    main,
    parse_config_file,
    run_campaign,
)
from thetacb.identities import IdentityReport
from thetacb.params import IdentitySize
from thetacb.sampling import P_HI, _draw, check_genericity, sample_param_point
from thetacb.weights import elliptic_weight


class TestRegistry:
    def test_has_enough_identities(self):
        assert len(list_identities()) >= 15

    def test_contains_headline_identities(self):
        names = {name for name, _ in list_identities()}
        assert "elliptic_cb" in names
        assert "frenkel_turaev" in names
        assert {"classical_cb", "qcb", "abq1_cb", "abq2_cb", "abcq_cb"} <= names

    def test_descriptions_are_nonempty(self):
        assert all(desc for _, desc in list_identities())


class TestConfig:
    def test_parse_file(self):
        text = """
        # campaign settings
        identities = classical_cb, qcb
        m_max = 4
        tol = 1e-9
        seed = 11
        """
        values = parse_config_file(text)
        config = build_config(values, {})
        assert config.identities == ("classical_cb", "qcb")
        assert config.m_max == 4 and config.seed == 11
        assert config.tol == 1e-9

    def test_flags_override_file(self):
        values = parse_config_file("m_max = 4\nseed = 11")
        config = build_config(values, {"seed": "99", "trials": 2})
        assert config.seed == 99 and config.m_max == 4 and config.trials == 2

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError):
            parse_config_file("m_max 4")
        with pytest.raises(ValueError):
            parse_config_file("nope = 3")

    def test_repeated_key_rejected(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="line 3: repeated key 'seed'"):
            parse_config_file("seed = 1\nm_max = 0\nseed = 5\n")
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("identities = qcb\nseed = 1\nm_max = 0\nn_max = 0\n"
                       "trials = 1\nseed = 5\n")
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", "configuration error: line 6: repeated key 'seed'\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(trials=0)
        with pytest.raises(ValueError):
            CampaignConfig(tol=-1.0)

    @pytest.mark.parametrize("flags", [["--p-max", "0.01"], ["--p-max", "0"],
                                       ["--p-max", "0.9"], ["--precision", "-3"]])
    def test_out_of_range_nome_bound_or_precision_exits_two(self, flags, capsys):
        assert main(["--identities", "qcb", *flags]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--guard", "-1"], ["--guard", "0"],
                                       ["--tol", "nan"], ["--tol", "inf"]])
    def test_bad_guard_or_tolerance_exits_two(self, flags, capsys):
        # before: a guard <= 0 switched the genericity scan off, tol nan
        # failed and tol inf passed every trial
        assert main(["--identities", "qcb", *flags]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_identity_rejected_at_config_time(self, capsys):
        with pytest.raises(ValueError, match="unknown identities: foo"):
            CampaignConfig(identities=("qcb", "foo"))
        assert main(["--identities", "foo"]) == 2
        assert capsys.readouterr().err == "configuration error: unknown identities: foo\n"

    def test_key_error_inside_a_check_is_not_a_configuration_error(self, monkeypatch):
        def broken(pp, m, n):
            raise KeyError("inside the check")

        monkeypatch.setitem(cli.REGISTRY, "broken_check", ("raises KeyError", None, broken))
        with pytest.raises(KeyError):
            main(["--identities", "broken_check", "--m-max", "0", "--n-max", "0",
                  "--trials", "1"])


class TestCampaign:
    def test_deterministic_report_bytes(self):
        config = CampaignConfig(identities=("classical_cb", "elliptic_cb"),
                                m_max=2, n_max=1, trials=2, seed=5)
        first = run_campaign(config).to_text()
        second = run_campaign(config).to_text()
        assert first == second

    def test_trial_counts_are_config_driven(self):
        config = CampaignConfig(identities=("qcb",), m_max=2, n_max=2,
                                trials=3, seed=1)
        report = run_campaign(config)
        assert report.summary["qcb"]["trials"] == 9 * 3
        assert len(report.records) == 27

    def test_records_parse_back_into_reports(self):
        config = CampaignConfig(identities=("abq1_cb",), m_max=1, n_max=1,
                                trials=1, seed=2)
        report = run_campaign(config)
        for rec in report.records:
            parsed = IdentityReport.from_record(rec)
            assert parsed.identity == "abq1_cb"
            assert parsed.verdict

    def test_zero_tolerance_fails_with_exit_one(self, tmp_path):
        out = tmp_path / "report.jsonl"
        code = main(["--identities", "classical_cb", "--m-max", "1",
                     "--n-max", "1", "--trials", "1", "--tol", "0",
                     "--out", str(out)])
        assert code == 1
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["verdict"] == "fail"

    def test_pass_exit_zero_and_byte_identical_files(self, tmp_path):
        args = ["--identities", "qcb,classical_cb", "--m-max", "2",
                "--n-max", "2", "--trials", "1", "--seed", "9"]
        out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_summary_counts_nonfinite_residuals(self, monkeypatch, tmp_path):
        monkeypatch.setitem(cli.REGISTRY, "nan_check",
                            ("always NaN", None, lambda pp, m, n: math.nan))
        out = tmp_path / "report.jsonl"
        code = main(["--identities", "nan_check,qcb", "--m-max", "1", "--n-max", "0",
                     "--trials", "2", "--seed", "3", "--out", str(out)])
        assert code == 1
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        summary = lines[-1]["identities"]
        assert summary["nan_check"] == {"trials": 4, "failures": 4, "nonfinite": 4,
                                        "max_residual": 0.0}
        assert summary["qcb"]["nonfinite"] == 0 and summary["qcb"]["failures"] == 0
        # the trial records keep the residual as a JSON number
        residuals = [rec["residual"] for rec in lines[:-1] if rec["identity"] == "nan_check"]
        assert len(residuals) == 4 and all(math.isnan(r) for r in residuals)

    def test_an_overflow_in_a_check_is_a_failed_nonfinite_trial(self, tmp_path):
        # elliptic_cb at (12, 14), trial 0 of campaign seed 3: a theta
        # reduction of the check overflows in cmath.exp
        tseed = cli._trial_seed(3, "elliptic_cb", 12, 14, 0)
        assert tseed == 7444341477398701693
        runner = REGISTRY["elliptic_cb"][2]
        pp, residual = cli._run_trial(Random(tseed), CampaignConfig(), runner, 12, 14)
        assert math.isnan(residual)
        with pytest.raises(OverflowError):
            runner(fresh_copy(pp), 12, 14)

        out = tmp_path / "report.jsonl"
        code = main(["--identities", "elliptic_cb", "--m-max", "14", "--n-max", "14",
                     "--trials", "1", "--seed", "3", "--out", str(out)])
        assert code == 1
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        failed = [(rec["m"], rec["n"]) for rec in lines[:-1] if rec["verdict"] == "fail"]
        assert failed == [(12, 14)]
        summary = lines[-1]["identities"]["elliptic_cb"]
        assert (summary["trials"], summary["failures"], summary["nonfinite"]) == (225, 1, 1)

    def test_an_overflow_in_the_genericity_scan_rejects_the_draw(self):
        # lattice_master_equality at (7, 14), trial 0 of campaign seed 4: a
        # weight of the scan's normalisation condition overflows in cmath.exp
        tseed = cli._trial_seed(4, "lattice_master_equality", 7, 14, 0)
        assert tseed == 10894086853100150828
        first = _draw(Random(tseed), P_HI)
        reads = fresh_copy(first)
        with pytest.raises(OverflowError):
            for j in range(15):
                elliptic_weight(reads, 0, j)
        assert not check_genericity(first, IdentitySize(7, 14))
        runner = REGISTRY["lattice_master_equality"][2]
        pp, residual = cli._run_trial(Random(tseed), CampaignConfig(), runner, 7, 14)
        assert pp != first and residual <= CampaignConfig().tol

    def test_repeated_identity_rejected_at_config_time(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="repeated identities: qcb"):
            CampaignConfig(identities=("qcb", "classical_cb", "qcb"))
        assert main(["--identities", "qcb,qcb", "--m-max", "0", "--n-max", "0",
                     "--trials", "1"]) == 2
        assert capsys.readouterr() == ("", "configuration error: repeated identities: qcb\n")
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("identities = qcb, qcb\ntrials = 1\n")
        assert main(["--config", str(cfg)]) == 2

    def test_unknown_identity_exits_two(self):
        assert main(["--identities", "not_a_thing"]) == 2

    def test_bad_config_file_exits_two(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense == 3")
        assert main(["--config", str(bad)]) == 2

    def test_config_file_drives_run(self, tmp_path):
        cfg = tmp_path / "campaign.cfg"
        cfg.write_text("identities = classical_cb\nm_max = 1\nn_max = 1\n"
                       "trials = 1\nseed = 4\n")
        out = tmp_path / "report.jsonl"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        summary = json.loads(lines[-1])
        assert summary["config"]["seed"] == 4
        assert summary["identities"]["classical_cb"]["failures"] == 0

    def test_double_frenkel_turaev_campaign_reads_no_scalar_theta(self, monkeypatch):
        # the scan's batch and the sum's own batch fill every entry it reads
        config = CampaignConfig(identities=("frenkel_turaev",), m_max=3, n_max=3, seed=0)
        report = []
        assert count_theta_calls(monkeypatch, lambda: report.append(run_campaign(config))) == 0
        assert report[0].all_pass

    @pytest.mark.parametrize("name", ["homogeneous_elliptic_ab", "binomial_elliptic_ab"])
    def test_ab_elliptic_campaign_reads_no_scalar_theta(self, monkeypatch, name):
        # its shifted leaves read the entries the scan's batch filled
        config = CampaignConfig(identities=(name,), m_max=3, n_max=3, seed=0)
        report = []
        assert count_theta_calls(monkeypatch, lambda: report.append(run_campaign(config))) == 0
        assert report[0].all_pass

    def test_theta_free_campaign_evaluates_no_theta(self, monkeypatch):
        # their scans read the p = 0 point's closed forms, and the checks
        # read no theta at p != 0
        batch, batches = special._theta_batch, [0]

        def counting(*args):
            batches[0] += 1
            return batch(*args)

        monkeypatch.setattr(special, "_theta_batch", counting)
        config = CampaignConfig(identities=tuple(sorted(THETA_FREE)), m_max=2, n_max=2, seed=0)
        report = []
        assert count_theta_calls(monkeypatch, lambda: report.append(run_campaign(config))) == 0
        assert batches[0] == 0
        assert report[0].all_pass and len(report[0].records) == 15 * 9 * 3

    def test_extended_precision_campaign(self):
        config = CampaignConfig(identities=("matrix_pair",), m_max=1, n_max=1,
                                trials=1, seed=3, precision=30, tol=1e-12)
        report = run_campaign(config)
        assert report.all_pass

    def test_every_registered_identity_passes_smoke(self):
        config = CampaignConfig(m_max=1, n_max=1, trials=1, seed=12)
        report = run_campaign(config)
        assert set(report.summary) == set(REGISTRY)
        failing = {name: s for name, s in report.summary.items() if s["failures"]}
        assert not failing


class TestThetaFree:
    """The checks whose trials scan the p = 0 point must not read p."""

    def test_every_name_is_registered(self):
        assert THETA_FREE <= REGISTRY.keys()
        assert len(THETA_FREE) == 15

    @pytest.mark.parametrize("name", sorted(THETA_FREE))
    def test_residual_is_the_same_at_every_nome(self, name):
        runner = REGISTRY[name][2]
        for seed, (m, n) in enumerate([(0, 0), (2, 1), (3, 3)]):
            pp = sample_param_point(Random(seed), IdentitySize(m, n), theta_free=True)
            want = runner(pp, m, n)
            assert math.isfinite(want)
            for p in (-0.7 * pp.p.conjugate(), 0j):
                assert runner(pp.replace(p=p), m, n) == want, (m, n, p)


#: runner name -> (module, name) of the residual function it folds
_FOLDED = {
    "convolution": (noncomm, "convolution_residual"),
    "w_binomial_recursion": (noncomm, "relative_residual"),
    "h_binomial_recursion": (noncomm, "relative_residual"),
    "qbinom_pascal": (noncomm, "relative_residual"),
    "h_complement": (cli, "relative_residual"),
    "mod_reduction": (bezout, "mod_reduction_check"),
}


class TestResidualFolds:
    """A runner that folds several residuals into one reports NaN when any
    of them is NaN, not only the first."""

    @pytest.mark.parametrize("name", sorted(_FOLDED))
    def test_a_nan_second_residual_reaches_the_record(self, monkeypatch, name):
        config = CampaignConfig(identities=(name,), m_max=1, n_max=1, trials=1, seed=8)
        plain = run_campaign(config).records
        assert all(math.isfinite(rec["residual"]) for rec in plain)

        module, attr = _FOLDED[name]
        residual = getattr(module, attr)
        description, cap, runner = REGISTRY[name]
        calls = [0]

        def second_is_nan(*args):
            calls[0] += 1
            value = residual(*args)
            return math.nan if calls[0] == 2 else value

        def counted_runner(pp, m, n):
            calls[0] = 0
            return runner(pp, m, n)

        monkeypatch.setattr(module, attr, second_is_nan)
        monkeypatch.setitem(REGISTRY, name, (description, cap, counted_runner))
        records = {(rec["m"], rec["n"]): rec for rec in run_campaign(config).records}
        # (1, 1) folds at least two residuals in every one of these runners
        assert math.isnan(records[1, 1]["residual"])
        assert records[1, 1]["verdict"] == "fail"


def test_bezout_qcb_keeps_a_nan_coefficient_gap(monkeypatch, generic_point):
    # the first coefficient agrees; a NaN in the second must reach the residual
    inner = bezout.qcb_cofactors

    def nan_second_coefficient(q, m, n):
        c1, c2 = inner(q, m, n)
        return bezout.Poly((c1.coeffs[0], math.nan, *c1.coeffs[2:])), c2

    monkeypatch.setattr(bezout, "qcb_cofactors", nan_second_coefficient)
    runner = REGISTRY["bezout_qcb"][2]
    assert math.isnan(runner(generic_point, 2, 2))


class TestBenchmarkContract:
    """What the campaign benchmark under perfbench/ relies on: it rebuilds
    registry entries around their runner and wraps library functions by
    module and name, skipping names that no longer exist."""

    def test_registry_values_are_plain_triples(self):
        for name, entry in REGISTRY.items():
            assert type(entry) is tuple and len(entry) == 3, name
            description, cap, runner = entry
            assert isinstance(description, str), name
            assert cap is None or type(cap) is int, name
            assert callable(runner), name

    def test_campaign_runs_with_a_rebuilt_entry(self, monkeypatch):
        config = CampaignConfig(identities=("qcb", "frenkel_turaev"), m_max=1, n_max=1,
                                trials=2, seed=6)
        plain = run_campaign(config).to_text()
        entry = REGISTRY["frenkel_turaev"]
        calls = []

        def wrapper(*args):
            calls.append(args)
            return entry[-1](*args)

        monkeypatch.setitem(REGISTRY, "frenkel_turaev", (*entry[:-1], wrapper))
        assert run_campaign(config).to_text() == plain
        assert len(calls) == 8

    def test_traced_functions_exist(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.TRACED
        for _span, module, attr in spans.TRACED:
            fn = getattr(importlib.import_module(module), attr, None)
            assert inspect.isfunction(fn), f"{module}.{attr}"
