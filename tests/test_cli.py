"""Campaign front-end tests: registry coverage, determinism, config
handling, report structure and exit codes."""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import json
import math
import subprocess
import sys
import typing
from pathlib import Path
from random import Random

import mpmath
import pytest

from conftest import count_theta_calls, fresh_copy
from thetacb import bezout, cli, noncomm, sampling, special
from thetacb.cli import (
    REGISTRY,
    CampaignConfig,
    build_config,
    list_identities,
    main,
    parse_config_file,
    run_campaign,
)
from thetacb.errors import DegenerateParameterError, ResamplingExhaustedError
from thetacb.params import IdentitySize, ParamPoint
from thetacb.sampling import _draw, check_genericity, sample_param_point
from thetacb.weights import elliptic_weight

#: The checks that read no theta at p != 0: they divide only by factors
#: 1 - z q^j, which the scan of a draw's p = 0 point covers.
THETA_FREE = frozenset({
    "classical_cb", "qcb", "abq1_cb", "abq2_cb", "abcq_cb", "cb_variant", "cb_homogeneous",
    "qbinom_pascal", "binomial_q_commuting", "homogeneous_q_commuting",
    "connection_first", "connection_second", "bezout_qcb", "matrix_pair", "mod_reduction",
})


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

    def test_every_field_is_a_flag_and_a_config_key(self):
        # one text per field type; the flag and the file key read it alike,
        # and the flag's help is the field's help metadata
        texts = {int: ("2", 2), float: ("0.25", 0.25), str: ("report.jsonl", "report.jsonl"),
                 tuple: ("qcb, classical_cb", ("qcb", "classical_cb"))}
        parser = cli._build_parser()
        helps = {opt: action.help for action in parser._actions for opt in action.option_strings}
        flags = {"-h", "--help", "--config", "--list"}
        for f in dataclasses.fields(CampaignConfig):
            hint = typing.get_type_hints(CampaignConfig)[f.name]
            kind = typing.get_origin(hint) or hint
            if kind not in texts:  # X | None reads as X
                kind = typing.get_args(hint)[0]
            text, want = texts[kind]
            flag = "--" + f.name.replace("_", "-")
            flags.add(flag)
            assert helps[flag] == f.metadata.get("help"), flag
            args = parser.parse_args([flag, text])
            from_flag = build_config({}, {f.name: getattr(args, f.name)})
            from_file = build_config(parse_config_file(f"{f.name} = {text}"), {})
            for config in (from_flag, from_file):
                value = getattr(config, f.name)
                assert value == want and type(value) is kind, (f.name, value)
        assert helps.keys() == flags

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
        report = run_campaign(config)
        first = report.to_text()
        second = run_campaign(config).to_text()
        assert first == second
        keys = {"identity", "m", "n", "trial", "seed", "params", "residual", "resamples",
                "tolerance", "verdict"}
        for rec in report.records:
            assert set(rec) == keys
            assert rec["verdict"] == ("pass" if rec["residual"] <= rec["tolerance"] else "fail")

    def test_trial_counts_are_config_driven(self):
        config = CampaignConfig(identities=("qcb",), m_max=2, n_max=2,
                                trials=3, seed=1)
        report = run_campaign(config)
        assert report.summary["qcb"]["trials"] == 9 * 3
        assert len(report.records) == 27

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
        assert all(rec["verdict"] == "fail" for rec in lines[:-1]
                   if rec["identity"] == "nan_check")

    def test_an_overflow_in_a_check_is_a_failed_nonfinite_trial(self, tmp_path):
        # elliptic_cb at (12, 14), a draw of campaign seed 3 before cells
        # shared their draws: a theta reduction of the check overflows in
        # cmath.exp
        pp = ParamPoint(x=1.0774786425079295 + 0.6032367834338705j,
                        a=0.36868868041306374 + 0.11640679032508988j,
                        b=1.712831227824309 - 0.1529280745922206j,
                        c=0.20782469350648547 + 0.9053447970947643j,
                        q=0.22937383000169403 - 0.27631205277621035j,
                        p=-0.3247143793063654 + 0.06154000646977108j)
        runner = REGISTRY["elliptic_cb"][2]
        with pytest.raises(OverflowError):
            runner(fresh_copy(pp), 12, 14)
        cell = cli._Cell(12, 14, 0, seed=0, point=pp)
        got, residual, seed, resamples = cli._run_trial(CampaignConfig(), "elliptic_cb",
                                                        runner, cell)
        assert got == pp and math.isnan(residual) and (seed, resamples) == (0, 0)

        out = tmp_path / "report.jsonl"
        code = main(["--identities", "elliptic_cb", "--m-max", "14", "--n-max", "14",
                     "--trials", "1", "--seed", "3", "--out", str(out)])
        assert code == 1
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        failed = [(rec["m"], rec["n"]) for rec in lines[:-1] if rec["verdict"] == "fail"]
        assert failed == [(13, 10)]
        summary = lines[-1]["identities"]["elliptic_cb"]
        assert (summary["trials"], summary["failures"], summary["nonfinite"]) == (225, 1, 1)

    def test_an_overflow_in_the_genericity_scan_rejects_the_draw(self, monkeypatch):
        # the first draw of lattice_master_equality (7, 14), trial 0 of
        # campaign seed 4 before cells shared their draws: a weight of the
        # scan's normalisation condition overflows in cmath.exp
        first = ParamPoint(x=0.7163061505735739 + 0.3864003748760559j,
                           a=0.3923428609013259 - 0.8997108599145471j,
                           b=-0.341320475274602 - 0.07788146195057777j,
                           c=0.415169170623072 + 0.14406639996555956j,
                           q=0.3193616957438442 - 0.02951390414285011j,
                           p=-0.31879912382789954 + 0.3468982377923248j)
        reads = fresh_copy(first)
        with pytest.raises(OverflowError):
            for j in range(15):
                elliptic_weight(reads, 0, j)
        assert not check_genericity(fresh_copy(first), IdentitySize(7, 14))
        # a cell whose stream draws that point first goes on to the next draw
        draws = iter([fresh_copy(first)])
        monkeypatch.setattr(sampling, "_draw",
                            lambda rng, p_hi: next(draws, None) or _draw(rng, p_hi))
        runner = REGISTRY["lattice_master_equality"][2]
        pp, residual, _, resamples = cli._run_trial(CampaignConfig(), "lattice_master_equality",
                                                    runner, cli._Cell(7, 14, 0, seed=4))
        assert pp != first and residual <= CampaignConfig().tol and resamples == 0

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
        # the checks read no theta at p != 0: the only thetas of their
        # campaign are the batches of the cells' elliptic scans
        batch, batches, in_check = special._theta_batch, [0, 0], [False]

        def counting(*args):
            batches[in_check[0]] += 1
            return batch(*args)

        def flagged(runner):
            def run(*args):
                in_check[0] = True
                try:
                    return runner(*args)
                finally:
                    in_check[0] = False
            return run

        monkeypatch.setattr(special, "_theta_batch", counting)
        for name in THETA_FREE:
            description, cap, runner = REGISTRY[name]
            monkeypatch.setitem(REGISTRY, name, (description, cap, flagged(runner)))
        config = CampaignConfig(identities=tuple(sorted(THETA_FREE)), m_max=2, n_max=2, seed=0)
        report = []
        assert count_theta_calls(monkeypatch, lambda: report.append(run_campaign(config))) == 0
        assert batches[1] == 0 and batches[0] >= 9 * 3
        assert report[0].all_pass and len(report[0].records) == 15 * 9 * 3

    def test_extended_precision_campaign(self):
        config = CampaignConfig(identities=("matrix_pair",), m_max=1, n_max=1,
                                trials=1, seed=3, precision=30, tol=1e-12)
        report = run_campaign(config)
        assert report.all_pass

    def test_run_campaign_applies_the_precision(self):
        # a library call gets the digits a --precision flag gets, and leaves
        # the working precision as it found it
        prec = mpmath.mp.prec
        config = CampaignConfig(identities=("elliptic_cb",), m_max=1, n_max=1,
                                trials=1, seed=3, precision=30)
        report = run_campaign(config)
        assert mpmath.mp.prec == prec
        assert all(rec["residual"] < 1e-25 for rec in report.records)
        for rec in report.records:
            for pair in rec["params"].values():
                for text in pair:
                    digits = text.lstrip("-").replace(".", "").lstrip("0")
                    assert len(digits) >= 25, text

    def test_every_registered_identity_passes_smoke(self):
        config = CampaignConfig(m_max=1, n_max=1, trials=1, seed=12)
        report = run_campaign(config)
        assert set(report.summary) == set(REGISTRY)
        failing = {name: s for name, s in report.summary.items() if s["failures"]}
        assert not failing


class TestSharedDraws:
    """Every check of an (m, n, trial) cell runs at the cell's one draw."""

    @pytest.fixture(scope="class")
    def all_checks(self):
        report = run_campaign(CampaignConfig(seed=0))
        by_name = {}
        for rec in report.records:
            by_name.setdefault(rec["identity"], []).append(json.dumps(rec, sort_keys=True))
        return by_name

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_a_single_identity_replays_its_records_bit_for_bit(self, all_checks, name):
        report = run_campaign(CampaignConfig(identities=(name,), seed=0))
        assert [json.dumps(rec, sort_keys=True) for rec in report.records] == all_checks[name]

    def test_the_checks_of_a_cell_share_its_point(self, all_checks):
        cells = {}
        for lines in all_checks.values():
            for rec in map(json.loads, lines):
                assert rec["resamples"] == 0
                assert rec["seed"] == cli._trial_seed(0, rec["m"], rec["n"], rec["trial"])
                cells.setdefault((rec["m"], rec["n"], rec["trial"]), set()).add(
                    json.dumps(rec["params"]))
        assert len(cells) == 4 * 4 * 3 and all(len(points) == 1 for points in cells.values())

    def test_a_check_degenerate_at_the_shared_point_falls_back_to_its_own_draw(
            self, monkeypatch):
        config = CampaignConfig(identities=("elliptic_cb", "qcb"), m_max=1, n_max=1,
                                trials=1, seed=0)
        plain = run_campaign(config).records
        description, cap, runner = REGISTRY["qcb"]

        def shared(m, n):
            return sample_param_point(Random(cli._trial_seed(0, m, n, 0)), IdentitySize(m, n))

        def degenerate_at_the_shared_point(pp, m, n):
            if pp == shared(m, n):
                raise DegenerateParameterError("a denominator the scan does not read")
            return runner(pp, m, n)

        monkeypatch.setitem(REGISTRY, "qcb", (description, cap, degenerate_at_the_shared_point))
        records = run_campaign(config).records
        assert records[:4] == plain[:4] and all(rec["resamples"] == 0 for rec in records[:4])
        for rec, before in zip(records[4:], plain[4:]):
            assert rec["identity"] == "qcb" and rec["verdict"] == "pass"
            assert rec["resamples"] >= 1 and rec["params"] != before["params"]
            assert rec["seed"] == cli._trial_seed(0, "qcb", rec["m"], rec["n"], 0)

    def test_a_check_that_never_finds_a_point_exhausts_its_draws(self, monkeypatch):
        def degenerate(pp, m, n):
            raise DegenerateParameterError("always")

        monkeypatch.setitem(REGISTRY, "qcb", ("always degenerate", None, degenerate))
        with pytest.raises(ResamplingExhaustedError, match="qcb"):
            run_campaign(CampaignConfig(identities=("qcb",), m_max=0, n_max=0, trials=1))

    def test_the_checks_of_a_cell_read_one_store(self, monkeypatch):
        # the checks of a cell read one store; a check of cli._OWN_STORE
        # reads a copy of the scanned store that holds none of their reads
        stores = []

        def reading(pp, m, n):
            stores.append(pp.thetas)
            pp.thetas[pp.x * (2 + len(stores))][0]  # an entry no scan fills
            return 0.0

        names = ("classical_cb", "frenkel_turaev", "qcb")
        assert "frenkel_turaev" in cli._OWN_STORE
        for name in names:
            monkeypatch.setitem(REGISTRY, name, ("reads", None, reading))
        run_campaign(CampaignConfig(identities=names, m_max=0, n_max=0, trials=1))
        first, own, second = stores
        assert first is second and own is not first and own.nome is first.nome
        # both hold the scan's entries beside the reads of their checks
        scanned = {z for z in first if z in own}
        assert scanned and all(first[z]._values == own[z]._values for z in scanned)
        assert len(first) == len(scanned) + 2 and len(own) == len(scanned) + 1

    def test_only_the_scan_and_the_own_store_checks_fill_a_batch(self, monkeypatch):
        # a batch a shared-store check filled would make the records of the
        # cell's other checks depend on whether it ran
        fill, callers, running = special.ThetaLadders.fill, set(), [None]

        def recording(store, entries):
            callers.add(running[0])
            return fill(store, entries)

        def named(name, runner):
            def run(*args):
                running[0] = name
                try:
                    return runner(*args)
                finally:
                    running[0] = None
            return run

        monkeypatch.setattr(special.ThetaLadders, "fill", recording)
        for name, (description, cap, runner) in list(REGISTRY.items()):
            monkeypatch.setitem(REGISTRY, name, (description, cap, named(name, runner)))
        assert run_campaign(CampaignConfig(m_max=2, n_max=2, trials=1, seed=1)).all_pass
        assert callers == {None, *cli._OWN_STORE}


#: The campaign_mp40 benchmark workload, cut to one trial per cell.
MP40 = CampaignConfig(identities=("elliptic_cb", "lattice_master_equality", "b_system",
                                  "frenkel_turaev"),
                      m_max=1, n_max=1, trials=1, seed=0, precision=40, p_max=0.2)


class TestSharedStoreAt40Digits:
    """The checks of a cell share one 40-digit store, and each replays alone."""

    @pytest.fixture(scope="class")
    def all_checks(self):
        by_name = {}
        for rec in run_campaign(MP40).records:
            by_name.setdefault(rec["identity"], []).append(json.dumps(rec, sort_keys=True))
        return by_name

    @pytest.mark.parametrize("name", MP40.identities)
    def test_a_single_identity_replays_its_records_bit_for_bit(self, all_checks, name):
        report = run_campaign(dataclasses.replace(MP40, identities=(name,)))
        assert [json.dumps(rec, sort_keys=True) for rec in report.records] == all_checks[name]


class TestThetaFree:
    """The checks whose denominators the p = 0 scan covers must not read p."""

    def test_every_name_is_registered(self):
        assert THETA_FREE <= REGISTRY.keys()
        assert len(THETA_FREE) == 15

    @pytest.mark.parametrize("name", sorted(THETA_FREE))
    def test_residual_is_the_same_at_every_nome(self, name):
        runner = REGISTRY[name][2]
        for seed, (m, n) in enumerate([(0, 0), (2, 1), (3, 3)]):
            pp = sample_param_point(Random(seed), IdentitySize(m, n))
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


#: Campaign draws at which a check cancels terms far larger than its result,
#: (name, m, n, point), each point pinned by its six parameters.  On a fresh
#: point they read 3.93e-6, 1.32e-7 and 1.72e-5 in doubles while the checks
#: divided by the result alone.
_CANCELLING = [
    # deep and default seed 10, trial 0, trial seed 17372368888134836989
    ("frenkel_turaev", 2, 3,
     ParamPoint(x=0.3854534614716634 + 0.39443744751342685j,
                a=0.365569202295858 + 0.06948122736756085j,
                b=0.3360470621845516 - 0.16326197297355036j,
                c=-0.33363614195587743 + 0.47438943103986536j,
                q=0.6824344553386275 + 0.3038072857450564j,
                p=0.35939636470730013 - 0.2137357400992277j)),
    # deep seed 2, trial 0, trial seed 2156733461355681565
    ("b_system", 7, 2,
     ParamPoint(x=1.288950440972642 + 0.6940123708659884j,
                a=-0.6777131626408989 - 0.9344520840279179j,
                b=0.33603240380994176 - 0.40376136502836824j,
                c=-0.6768985062253167 + 1.073988200766208j,
                q=-0.2821114792211216 + 0.2280639709907604j,
                p=0.39459274493847973 - 0.12840015456416215j)),
    # deep seed 21, trial 1, trial seed 5051159550948221654
    ("b_system", 8, 2,
     ParamPoint(x=-1.275299096490749 - 0.1154262854557599j,
                a=1.731840292806946 - 0.7954730767844858j,
                b=-0.23798969619391674 + 0.38491386117416393j,
                c=0.6562693542811128 - 0.58610573600928j,
                q=0.07216247944882453 + 0.40845520211227954j,
                p=0.440805721780599 - 0.10573584809968666j)),
]


@pytest.mark.parametrize("name, m, n, point", _CANCELLING,
                         ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in _CANCELLING])
def test_cancelling_draw_passes_in_doubles(name, m, n, point):
    assert REGISTRY[name][2](point, m, n) <= CampaignConfig().tol


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

    def test_benchmark_selftest_passes(self):
        # trial counts pinned by perfbench/spec.json, traced call counts
        # equal to cProfile's, and reports unchanged under tracing
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1])["passed"] is True

    def test_traced_functions_exist(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.TRACED
        for _span, module, attr in spans.TRACED:
            fn = getattr(importlib.import_module(module), attr, None)
            assert inspect.isfunction(fn), f"{module}.{attr}"
