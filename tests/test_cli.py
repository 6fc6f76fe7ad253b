"""Campaign front-end tests: registry coverage, determinism, config
handling, report structure and exit codes."""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path
from random import Random

import mpmath
import pytest

from conftest import fresh_copy, patch_theta
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
#: 1 - z q^j, of their point's p = 0 store or formed by the check, each
#: checked against the point's guard where it is divided by.
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
        texts = {int: ("20", 20), float: ("0.25", 0.25), str: ("report.jsonl", "report.jsonl"),
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
                                       ["--p-max", "0.9"], ["--precision", "-3"],
                                       ["--precision", "5"]])
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


def _count_theta_calls_in_checks(monkeypatch, config, args=None):
    """Run ``config``'s campaign; count its ``special.theta`` calls outside
    and inside its checks' runners, as ``[outside, inside]``, and append
    each call's (nome, argument) to ``args[0]`` or ``args[1]`` alike."""
    calls, in_check = [0, 0], [False]

    def counting(inner):
        def call(*call_args):
            calls[in_check[0]] += 1
            if args is not None:
                args[in_check[0]].append((call_args[2], call_args[0]))
            return inner(*call_args)
        return call

    def flagged(runner):
        def run(*args):
            in_check[0] = True
            try:
                return runner(*args)
            finally:
                in_check[0] = False
        return run

    patch_theta(monkeypatch, counting)
    for name in config.identities:
        description, cap, runner = REGISTRY[name]
        monkeypatch.setitem(REGISTRY, name, (description, cap, flagged(runner)))
    return calls, run_campaign(config)


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

    def test_each_line_is_its_whole_record_encoded(self):
        # to_text encodes each distinct params dict once and splices it in:
        # every line is still the sorted-key encoding of the whole record,
        # at a double and a 40-digit campaign, and with an identity name
        # that holds the placeholder's text
        for precision in (0, 40):
            config = CampaignConfig(identities=("elliptic_cb", "qcb"), m_max=1, n_max=1,
                                    trials=2, seed=3, precision=precision)
            report = run_campaign(config)
            odd = {**report.records[0], "identity": 'x"params":0'}
            report = dataclasses.replace(report, records=[*report.records, odd])
            lines = report.to_text().splitlines()
            assert len(lines) == len(report.records) + 1
            for rec, line in zip(report.records, lines):
                assert line == json.dumps({"type": "trial", **rec}, sort_keys=True,
                                          separators=(",", ":"))
                assert json.loads(line)["params"] == rec["params"]

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
                            lambda rng, p_hi, guard: next(draws, None) or _draw(rng, p_hi, guard))
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

    def test_a_double_frenkel_turaev_record_replays_alone(self, tmp_path):
        # the sum reads the cell's store after the checks before it in name
        # order; its records are those of a campaign of it alone
        flags = ["--m-max", "3", "--n-max", "3", "--trials", "2", "--seed", "5"]
        every, alone = tmp_path / "every.jsonl", tmp_path / "alone.jsonl"
        main([*flags, "--out", str(every)])
        main([*flags, "--identities", "frenkel_turaev", "--out", str(alone)])
        lines = [line for line in every.read_text().splitlines()
                 if '"identity":"frenkel_turaev"' in line]
        assert len(lines) == 32 and lines == alone.read_text().splitlines()[:-1]

    @pytest.mark.parametrize("name", ["homogeneous_elliptic_ab", "binomial_elliptic_ab"])
    def test_ab_elliptic_campaign_computes_each_theta_once(self, monkeypatch, name):
        # its shifted leaves read the cell's store: the check computes each
        # entry the scan did not store once, and no entry the scan stored
        config = CampaignConfig(identities=(name,), m_max=3, n_max=3, seed=0)
        args = [[], []]
        calls, report = _count_theta_calls_in_checks(monkeypatch, config, args)
        assert calls[0] > 0 and calls[1] > 0
        # a store's thetas share its nome, so (nome, argument) names an entry
        every = args[0] + args[1]
        assert len(set(every)) == len(every)
        assert report.all_pass

    def test_theta_free_campaign_evaluates_no_theta(self, monkeypatch):
        # the checks read no theta at p != 0: the only thetas of their
        # campaign are the reads of the cells' elliptic scans
        config = CampaignConfig(identities=tuple(sorted(THETA_FREE)), m_max=2, n_max=2, seed=0)
        calls, report = _count_theta_calls_in_checks(monkeypatch, config)
        assert calls[1] == 0 and calls[0] >= 9 * 3
        assert report.all_pass and len(report.records) == 15 * 9 * 3

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
        # every check of a cell reads the one store, the very-well-poised
        # sum included, and finds there the reads of the checks before it
        stores, seen = [], []

        def reading(pp, m, n):
            stores.append(pp.thetas)
            seen.append(set(pp.thetas))
            pp.thetas[pp.x * (2 + len(stores))][0]  # an entry no scan reads
            return 0.0

        names = ("classical_cb", "frenkel_turaev", "qcb")
        for name in names:
            monkeypatch.setitem(REGISTRY, name, ("reads", None, reading))
        run_campaign(CampaignConfig(identities=names, m_max=0, n_max=0, trials=1))
        first, second, third = stores
        assert first is second is third
        assert seen[0] < seen[1] < seen[2] and len(seen[2]) == len(seen[0]) + 2

    def test_at_an_mpmath_campaign_every_check_reads_the_cell_store(self, monkeypatch):
        stores = []

        def reading(pp, m, n):
            stores.append(pp.thetas)
            return 0.0

        names = ("classical_cb", "frenkel_turaev", "qcb")
        for name in names:
            monkeypatch.setitem(REGISTRY, name, ("reads", None, reading))
        run_campaign(CampaignConfig(identities=names, m_max=0, n_max=0, trials=1,
                                    precision=20))
        first, own, second = stores
        assert first is own is second

    def test_every_entry_of_a_cell_store_is_a_fresh_theta(self, monkeypatch):
        # whichever check or scan read it first, bit for bit
        stores = {}

        def keeping(runner):
            def run(pp, m, n):
                stores[id(pp.thetas)] = pp.thetas
                return runner(pp, m, n)
            return run

        for name, (description, cap, runner) in list(REGISTRY.items()):
            monkeypatch.setitem(REGISTRY, name, (description, cap, keeping(runner)))
        run_campaign(CampaignConfig(m_max=2, n_max=2, trials=1, seed=1))
        entries = 0
        for store in stores.values():
            for z, ladder in store.items():
                for j, value in ladder.items():
                    assert value == special.theta(z * store.shared.q**j, store.shared.p), (z, j)
                    entries += 1
        assert entries > 500

    def test_each_distinct_entry_is_computed_once_per_cell(self, monkeypatch):
        # a store read is a theta call with the store's nome; no argument is
        # evaluated twice at one nome, however many checks read it
        computed = {}

        def counting(inner):
            def call(x, p, _nome=None):
                if _nome is not None:
                    computed[_nome, x] = computed.get((_nome, x), 0) + 1
                return inner(x, p, _nome)
            return call

        patch_theta(monkeypatch, counting)
        run_campaign(CampaignConfig(m_max=2, n_max=2, trials=1, seed=1))
        assert len(computed) > 500 and max(computed.values()) == 1


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
    """The checks that divide only by factors 1 - z q^j must not read p."""

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


@pytest.mark.parametrize("digits", [0, 40])
def test_the_convolution_runner_shares_one_evaluator_across_its_splits(monkeypatch, digits):
    # the runner's splits k = 0 .. n + m read one evaluator's leaves, and
    # fold the residuals that a fresh evaluator per split gives
    made = []
    inner = noncomm.Evaluator.__init__

    def counting(self, tag, pp):
        made.append(tag)
        inner(self, tag, pp)

    runner = REGISTRY["convolution"][2]
    with mpmath.workdps(digits or 15):
        for seed, (m, n) in enumerate([(0, 0), (2, 1), (3, 3)]):
            pp = sample_param_point(Random(60 + seed), IdentitySize(m, n))
            pp = sampling.to_mp(pp) if digits else fresh_copy(pp)
            want = [noncomm.convolution_residual(fresh_copy(pp), n, m, k)
                    for k in range(n + m + 1)]
            monkeypatch.setattr(noncomm.Evaluator, "__init__", counting)
            made.clear()
            got = runner(pp, m, n)
            monkeypatch.undo()
            assert made == [noncomm.AlgebraTag.ELLIPTIC_XABC]
            assert got == max(want) and math.isfinite(got)


#: Campaign draws at which a check cancels terms far larger than its result,
#: (name, m, n, point), each point pinned by its six parameters and named
#: as in ROADMAP item 1's table.  On a fresh point the first three read
#: 3.93e-6, 1.32e-7 and 1.72e-5 in doubles while the checks divided by the
#: result alone.  The other ten are the per-check draws of their campaigns
#: from before every check of a cell shared one draw.
_CANCELLING = [
    # P7: deep and default seed 10, trial 0, trial seed 17372368888134836989
    ("frenkel_turaev", 2, 3,
     ParamPoint(x=0.3854534614716634 + 0.39443744751342685j,
                a=0.365569202295858 + 0.06948122736756085j,
                b=0.3360470621845516 - 0.16326197297355036j,
                c=-0.33363614195587743 + 0.47438943103986536j,
                q=0.6824344553386275 + 0.3038072857450564j,
                p=0.35939636470730013 - 0.2137357400992277j)),
    # P1: deep seed 2, trial 0, trial seed 2156733461355681565
    ("b_system", 7, 2,
     ParamPoint(x=1.288950440972642 + 0.6940123708659884j,
                a=-0.6777131626408989 - 0.9344520840279179j,
                b=0.33603240380994176 - 0.40376136502836824j,
                c=-0.6768985062253167 + 1.073988200766208j,
                q=-0.2821114792211216 + 0.2280639709907604j,
                p=0.39459274493847973 - 0.12840015456416215j)),
    # P5: deep seed 21, trial 1, trial seed 5051159550948221654
    ("b_system", 8, 2,
     ParamPoint(x=-1.275299096490749 - 0.1154262854557599j,
                a=1.731840292806946 - 0.7954730767844858j,
                b=-0.23798969619391674 + 0.38491386117416393j,
                c=0.6562693542811128 - 0.58610573600928j,
                q=0.07216247944882453 + 0.40845520211227954j,
                p=0.440805721780599 - 0.10573584809968666j)),
    # P2: deep seed 3, trial 2
    ("b_system", 1, 6,
     ParamPoint(x=-0.8222117020866451 - 0.535063678367169j,
                a=0.6027718910105923 + 0.8645262860197455j,
                b=-1.1546086055628628 + 0.7584432972516735j,
                c=0.19190225563793095 + 0.26648530405190074j,
                q=-0.7386416551125687 - 0.24264546097555642j,
                p=0.4316903126428314 + 0.05430953731247874j)),
    # P3: deep seed 6, trial 0
    ("b_system", 6, 3,
     ParamPoint(x=1.5500439015328271 - 0.4765224253241184j,
                a=-1.7518720417304614 - 0.07084107733470427j,
                b=0.2804414998154156 + 0.413006258470607j,
                c=0.06545110635925745 - 0.21109596314027831j,
                q=0.24180776260236495 - 0.3616177118878239j,
                p=0.3379947195422292 + 0.14221235827607412j)),
    # P4: deep seed 21, trial 1
    ("b_system", 7, 1,
     ParamPoint(x=-0.20983930487721061 + 0.06851664115275j,
                a=0.2927089123434412 - 0.6560480293191866j,
                b=-0.09590492558475841 - 0.3166367667903552j,
                c=0.30163330085617496 - 0.37211457448287466j,
                q=0.15367298147530004 - 0.578336736000054j,
                p=0.4867827166987982 + 0.08483699942975512j)),
    # P6: deep seed 8, trial 2
    ("frenkel_turaev", 5, 4,
     ParamPoint(x=0.271961250545403 - 0.7720627072906792j,
                a=-0.4040289938056997 + 0.5556897974071725j,
                b=-0.97502651889403 - 0.2421751665473599j,
                c=-0.19805721231128262 - 0.48200972594290387j,
                q=0.17101879989065055 - 0.32784523078305083j,
                p=0.4230857542433983 - 0.2531014798823958j)),
    # P8: deep seed 15, trial 0
    ("frenkel_turaev", 7, 2,
     ParamPoint(x=-0.877308148974892 - 0.15226460591542318j,
                a=-0.2376416524953141 - 0.11775823177000845j,
                b=-0.5405520728585095 - 0.9111299273662155j,
                c=0.2284784365706543 - 0.34884780302122753j,
                q=0.49332498050161644 - 0.23614867835606015j,
                p=0.17324958844409763 - 0.02053797739859531j)),
    # P9: deep seed 18, trial 0
    ("frenkel_turaev", 6, 3,
     ParamPoint(x=-0.6845540723807113 + 0.05357021401261155j,
                a=0.19397800292908562 + 0.2712891702107058j,
                b=-0.10341625945574486 + 0.18667796831368264j,
                c=0.5055616885130059 + 1.4317067963240855j,
                q=0.21870557808839358 + 0.24382896236317766j,
                p=0.44486886666391573 - 0.06356004111285399j)),
    # P10: deep seed 24, trial 0
    ("frenkel_turaev", 2, 8,
     ParamPoint(x=0.2636320552201475 - 0.4278980986980105j,
                a=-0.7918677461608642 - 0.6813260127255136j,
                b=-0.6252204797017559 - 0.11739684452056823j,
                c=-1.0383484177240114 + 1.1761041234512413j,
                q=0.5038263345954277 - 0.34713882098425397j,
                p=0.3882501223745127 - 0.11345562875318105j)),
    # P11: deep seed 27, trial 1
    ("frenkel_turaev", 2, 8,
     ParamPoint(x=-0.36201778090964837 + 0.4630245732857839j,
                a=0.6446642708798312 + 1.2530823243984648j,
                b=0.7978675500119451 + 0.5421769710195128j,
                c=-0.5339147931587614 + 0.6663712017077057j,
                q=0.5338994872576566 + 0.36347451347338244j,
                p=0.05156889433245717 + 0.007616463322140149j)),
    # P21: seed 2 at depth 14, trial 0
    ("b_system", 12, 12,
     ParamPoint(x=-0.3817866198106547 + 0.11393445275548587j,
                a=1.0146259446661192 - 0.10312334255985675j,
                b=0.13600320992051237 - 0.544549728515169j,
                c=1.790810230072496 + 0.2494045265945565j,
                q=0.1829375049734981 - 0.7874063958302645j,
                p=0.3077728688021926 - 0.011429163972093252j)),
    # P22: seed 2 at depth 14, trial 0
    ("b_system", 14, 5,
     ParamPoint(x=0.6487017900196291 + 0.2600714076288416j,
                a=0.263515047296234 - 0.9157694217716741j,
                b=-0.42223360881589267 - 0.36361577146341256j,
                c=-0.7546666915402892 - 0.11534947160567531j,
                q=0.7794255471551225 + 0.37904159316939057j,
                p=0.45623390107955375 + 0.1253488727418444j)),
]


@pytest.mark.parametrize("name, m, n, point", _CANCELLING,
                         ids=[f"{row[0]}-{row[1]}-{row[2]}" for row in _CANCELLING])
def test_cancelling_draw_passes_in_doubles(name, m, n, point):
    assert REGISTRY[name][2](point, m, n) <= CampaignConfig().tol


def test_a_weight_within_the_guard_resamples_the_check_once():
    # P27: default seed 69, cell (3, 3), trial 1, whose shared draw the
    # homogeneous_elliptic_xabc check reads with a weight denominator
    # within the guard; it passes at the first draw of its own stream
    config, name = CampaignConfig(seed=69), "homogeneous_elliptic_xabc"
    cell = cli._Cell(3, 3, 1, cli._trial_seed(69, 3, 3, 1))
    pp, residual, seed, resamples = cli._run_trial(config, name, REGISTRY[name][2], cell)
    assert cell.point.x == -0.5035720466390124 - 1.2822796665674618j
    assert (seed, resamples) == (cli._trial_seed(69, name, 3, 3, 1), 1)
    assert pp is not cell.point and residual <= config.tol


#: ROADMAP item 1's rows of the binomial and homogeneous checks, (row, name,
#: m, n, point, residual as ``float.hex``), each point pinned by its six
#: parameters: the normal-form residuals on a fresh point, bit for bit.
_NORMAL_FORM_ROWS = [
    ("P12", "homogeneous_elliptic_ab", 3, 3,
     ParamPoint(x=-1.3786294985106753 + 0.16884060518367142j,
                a=0.24796839643641383 + 0.593604795303361j,
                b=0.07856652524375991 + 0.303877359724527j,
                c=0.06562705561030881 + 0.4897908069488071j,
                q=0.42039614729038 + 0.5680303038842757j,
                p=0.16340911553195858 - 0.07105989340891329j),
     "0x1.f2c698ef0876dp-28"),
    ("P13", "homogeneous_elliptic_ab", 3, 3,
     ParamPoint(x=0.29087152772003955 - 0.13672326057966502j,
                a=0.044918310464054645 + 0.2091089772990687j,
                b=0.22178697934924996 - 0.0002499608516402137j,
                c=-0.18021590312230643 - 0.11599836186667382j,
                q=0.4799100052077906 + 0.5245501054594653j,
                p=0.23028898601307443 - 0.024414160584908987j),
     "0x1.a0f061a9162f8p-25"),
    ("P14", "homogeneous_elliptic_ab", 0, 3,
     ParamPoint(x=1.1402198247070343 - 1.3105906638116773j,
                a=-0.029667319597097327 - 0.5490115537015764j,
                b=0.877675390427202 + 0.4422176027504852j,
                c=-0.4110241995730285 + 0.717609880825629j,
                q=-0.07852864475260887 + 0.7548869841453648j,
                p=0.4764934384642356 - 0.05036829652574997j),
     "0x1.105479092a7e2p-28"),
    ("P15", "homogeneous_elliptic_ab", 0, 3,
     ParamPoint(x=0.2847246675789329 + 0.045999091293416394j,
                a=-0.1443043388456615 - 0.23932654663298986j,
                b=0.27165899484958517 - 0.41367077988645556j,
                c=-0.19913931073979022 + 0.24921254002546145j,
                q=-0.046364796704009635 + 0.5557847617451132j,
                p=0.46758373759252697 - 0.15376653063932805j),
     "0x1.54f693a497144p-26"),
    ("P16", "homogeneous_elliptic_xabc", 3, 0,
     ParamPoint(x=-0.4172400287181757 + 1.2659903255073213j,
                a=-0.5489173536906076 + 0.010594640906175812j,
                b=-0.2876795106584647 - 0.05914428466093024j,
                c=-0.7583388534174045 + 0.5928340079374828j,
                q=0.032380491110463476 - 0.766191231857458j,
                p=0.46884293680219713 + 0.08093196270085053j),
     "0x1.530416e1ecf05p-25"),
    ("P17", "binomial_elliptic_ab", 6, 0,
     ParamPoint(x=-1.3357362879543955 + 0.47005368695886485j,
                a=0.2973922119491361 + 0.1929460573152787j,
                b=0.004928569528400685 + 0.8551805856212014j,
                c=-0.2242335966458061 + 0.34657941233376593j,
                q=-0.36787737243930324 - 0.053682042189243134j,
                p=0.48230761042471987 + 0.0801790002258324j),
     "0x1.56288189dfc73p-24"),
    ("P18", "binomial_elliptic_ab", 8, 0,
     ParamPoint(x=-0.17926543361262848 - 1.0251336627138594j,
                a=1.0641560825669323 - 0.27006412411253955j,
                b=-0.14094340248939174 - 0.36013370207818773j,
                c=-0.20939939478207598 + 0.5209536693970459j,
                q=0.33682115241938176 - 0.45362145752266947j,
                p=0.2706616070836588 - 0.056261948324981506j),
     "0x1.952a80553b9c0p-10"),
    ("P19", "binomial_elliptic_ab", 5, 0,
     ParamPoint(x=0.5444346543696765 - 0.02371938597349201j,
                a=0.6003774403128994 + 0.046203274070769684j,
                b=0.00533348808493976 - 0.2785079929025271j,
                c=0.6551122684379317 - 0.22437076329973554j,
                q=-0.1480703528790706 - 0.31074444706501486j,
                p=0.35228372995609575 - 0.2015911892852429j),
     "0x1.77db34d07db23p-23"),
    ("P20", "homogeneous_elliptic_ab", 5, 2,
     ParamPoint(x=-0.6995877631500479 + 0.0032707573593857174j,
                a=0.931360969696288 - 0.7478606378724963j,
                b=0.5007817661778412 - 1.798229153547861j,
                c=-0.28238502022648565 + 0.054978810061115664j,
                q=0.4383355183377556 - 0.24525779138959325j,
                p=0.1272874834485211 + 0.126541117878477j),
     "0x1.d6cb3cf52b2ebp-24"),
    ("P23", "homogeneous_elliptic_ab", 3, 3,
     ParamPoint(x=0.22627676451701656 - 0.019447958900030732j,
                a=0.23075571474829965 + 0.03456295900731236j,
                b=-0.5133432452731176 + 0.9560097393876347j,
                c=-0.5839227105541401 - 1.3842723140114583j,
                q=0.2967649952888019 + 0.5955167298574331j,
                p=0.32413302451170184 + 0.13001932076360134j),
     "0x1.4c73b05c8145bp-20"),
    ("P24", "homogeneous_elliptic_ab", 3, 3,
     ParamPoint(x=1.2889409718435665 - 1.2339130531217735j,
                a=-0.4222935027645277 + 0.6664530432890718j,
                b=0.22060573263519584 - 0.15675378620285893j,
                c=-0.43331645461524426 - 0.014567478307001998j,
                q=0.466085724188462 + 0.7007876233176431j,
                p=0.2725709362418221 - 0.03439372819641474j),
     "0x1.a04a03d5a2c46p-25"),
    ("P25", "homogeneous_elliptic_ab", 1, 3,
     ParamPoint(x=0.17372838160861911 + 0.40845161099464017j,
                a=-0.2151921270607581 - 0.20960241700629417j,
                b=0.6494763966596683 - 0.7533280910935634j,
                c=-0.5598124831079934 + 0.3758660150216283j,
                q=0.21841441609717113 - 0.3880204697904412j,
                p=0.38564384170323357 + 0.0680763866947388j),
     "0x1.715ba7bb24d37p-22"),
    ("P26", "homogeneous_elliptic_ab", 3, 3,
     ParamPoint(x=1.0231050950904312 - 0.4521130225995028j,
                a=1.089493549999112 + 0.40780130049345353j,
                b=-0.39176444917543524 + 0.5679074776362593j,
                c=1.0759928968606858 + 0.7643012484553144j,
                q=0.27898579699855064 - 0.524017480537496j,
                p=0.3305307780153147 + 0.0620399724350724j),
     "0x1.68949f356c491p-22"),
]


@pytest.mark.parametrize("name, m, n, point, residual", [row[1:] for row in _NORMAL_FORM_ROWS],
                         ids=[row[0] for row in _NORMAL_FORM_ROWS])
def test_normal_form_residual_is_pinned_bit_for_bit(name, m, n, point, residual):
    assert REGISTRY[name][2](point, m, n).hex() == residual


def test_bezout_qcb_solves_at_the_working_precision(tmp_path):
    # the cofactor system is solved in 40-digit arithmetic, not in doubles
    out = tmp_path / "report.jsonl"
    main(["--identities", "bezout_qcb", "--precision", "40", "--m-max", "3", "--n-max", "3",
          "--trials", "1", "--seed", "0", "--out", str(out)])
    summary = json.loads(out.read_text().splitlines()[-1])["identities"]["bezout_qcb"]
    assert summary["trials"] == 16 and summary["max_residual"] <= 1e-35


def test_a_campaign_of_every_check_imports_no_numpy():
    # every registered check, in doubles and at 40 digits, in a fresh
    # interpreter
    root = Path(__file__).resolve().parents[1]
    code = ("import os, sys\n"
            "from thetacb.cli import main\n"
            "for extra in ([], ['--precision', '40']):\n"
            "    main(['--m-max', '1', '--n-max', '1', '--trials', '1', '--out', os.devnull,"
            " *extra])\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"]


def test_a_double_campaign_of_every_check_imports_no_mpmath():
    # every registered check in doubles, in a fresh interpreter: mpmath's
    # raw-number functions are bound on the first 40-digit use only
    root = Path(__file__).resolve().parents[1]
    code = ("import os, sys\n"
            "from thetacb.cli import main\n"
            "main(['--m-max', '1', '--n-max', '1', '--trials', '1', '--out', os.devnull])\n"
            "print('mpmath' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"]


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
        # every traced name is a function of the program but those it no
        # longer defines on purpose, which the tracer skips and reads as
        # zero calls: the scan's per-entry margin, now tested where each
        # store entry is formed, and the scalar theta-shifted factorial,
        # now only a window of a store's ladder
        gone = {("thetacb.sampling", "theta_margin"), ("thetacb.special", "theta_fact")}
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.TRACED
        for _span, module, attr in spans.TRACED:
            fn = getattr(importlib.import_module(module), attr, None)
            if (module, attr) in gone:
                assert fn is None, f"{module}.{attr}"
            else:
                assert inspect.isfunction(fn), f"{module}.{attr}"
