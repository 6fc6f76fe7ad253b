"""Count the false failures of a campaign configuration over a range of seeds.

    python3 scripts/census.py --seeds 0-29 [--jobs N] [thetacb flags]

The thetacb flags (``--config``, ``--identities``, ``--m-max``, ...) give
the campaign, which runs in doubles at every seed of the range
(``--seed`` and ``--precision`` are ignored).  Every trial that fails,
non-finite residuals included, is rerun at ``DIGITS`` digits through the
campaign's own trial path (``cli._run_trial``) at the same cell, so at
the same draw; a rerun that draws another point is an error.  For each
such trial the census prints one JSON line: identity, m, n, trial,
campaign seed, trial seed, the six parameters of the draw, and the
residual in doubles and at ``DIGITS`` digits.  Then one line counts the
failing trials: ``false`` ones pass at ``DIGITS`` digits, ``genuine``
ones fail there too; it also counts the ``resampled`` trials, failing or
not, that evaluated at a draw of their check's own stream, so a guard
that turns a failure into a resample shows there.  The last line sums
them up per identity: the count of failing trials, the worst residual in
doubles and the worst at ``DIGITS`` digits (NaN when any is NaN).

``--jobs N`` shares the seeds among N processes, at most one per CPU; the
lines still come in seed order, so the output is the one process's.

Exit status: 0 when no failure is genuine, 1 otherwise, 2 on a usage or
configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import multiprocessing
import os
import sys
from functools import partial
from pathlib import Path

# run from a checkout: import the package from its src/ directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mpmath  # noqa: E402

from thetacb import cli  # noqa: E402
from thetacb.special import worst_residual  # noqa: E402

#: Working digits of the reruns.
DIGITS = 40


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def rerun(config: cli.CampaignConfig, rec: dict) -> float:
    """The residual of trial record ``rec`` of the double campaign
    ``config``, evaluated again at ``DIGITS`` digits at the same draw."""
    m, n, trial = rec["m"], rec["n"], rec["trial"]
    cell = cli._Cell(m, n, trial, cli._trial_seed(config.seed, m, n, trial))
    wide = dataclasses.replace(config, precision=DIGITS)
    with mpmath.workdps(DIGITS):
        _pp, residual, seed, resamples = cli._run_trial(
            wide, rec["identity"], cli.REGISTRY[rec["identity"]][2], cell)
    if (seed, resamples) != (rec["seed"], rec["resamples"]):
        raise RuntimeError(f"the {DIGITS}-digit rerun of {rec['identity']} ({m}, {n}) "
                           f"trial {trial} drew another point")
    return residual


def seed_failures(config: cli.CampaignConfig, seed: int) -> tuple[list[dict], int]:
    """One line per failing trial of ``config`` at campaign seed ``seed``,
    each with its residual at ``DIGITS`` digits, and the number of its
    trials that resampled."""
    campaign = dataclasses.replace(config, seed=seed, precision=0)
    records = cli.run_campaign(campaign).records
    return ([{"identity": rec["identity"], "m": rec["m"], "n": rec["n"],
              "trial": rec["trial"], "campaign_seed": seed, "trial_seed": rec["seed"],
              "params": rec["params"], "residual": rec["residual"],
              f"residual_{DIGITS}": rerun(campaign, rec)}
             for rec in records if rec["verdict"] != "pass"],
            sum(rec["resamples"] > 0 for rec in records))


def census(config: cli.CampaignConfig, seeds: range, jobs: int = 1):
    """One line per failing trial of ``config`` at each seed, in seed
    order, then the count and the summary per identity.  ``jobs``
    processes share the seeds."""
    failing = genuine = resampled = 0
    by_identity: dict[str, list[dict]] = {}
    pool = multiprocessing.get_context("spawn").Pool(jobs) if jobs > 1 else None
    with pool or contextlib.nullcontext():
        for found, seed_resampled in (pool.imap if pool else map)(partial(seed_failures, config),
                                                                  seeds):
            resampled += seed_resampled
            for line in found:
                failing += 1
                # a NaN at 40 digits is no pass
                genuine += not (line[f"residual_{DIGITS}"] <= config.tol)
                by_identity.setdefault(line["identity"], []).append(line)
                yield line
    yield {"type": "count", "campaigns": len(seeds), "failing": failing,
           "false": failing - genuine, "genuine": genuine, "resampled": resampled}
    yield {"type": "identities", "identities": {
        name: {"failing": len(lines),
               "worst_residual": worst_residual(line["residual"] for line in lines),
               f"worst_residual_{DIGITS}": worst_residual(line[f"residual_{DIGITS}"]
                                                          for line in lines)}
        for name, lines in sorted(by_identity.items())}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True,
                        help="campaign seeds FIRST-LAST, both included")
    parser.add_argument("--jobs", type=int, default=1,
                        help="processes that share the seeds, at most one per CPU (default 1)")
    args, rest = parser.parse_known_args(argv)
    flags = cli._build_parser().parse_args(rest)
    try:
        seeds = _seed_range(args.seeds)
        if not 1 <= args.jobs <= (os.cpu_count() or 1):
            raise ValueError(f"--jobs must lie in [1, {os.cpu_count() or 1}], the CPUs")
        file_values = {}
        if flags.config:
            with open(flags.config, encoding="utf-8") as handle:
                file_values = cli.parse_config_file(handle.read())
        config = cli.build_config(file_values, {key: getattr(flags, key) for key in cli._READERS})
    except (OSError, ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for line in census(config, seeds, args.jobs):
        print(json.dumps(line, sort_keys=True), flush=True)
        if line.get("type") == "count":
            genuine = line["genuine"]
    return 1 if genuine else 0


if __name__ == "__main__":
    raise SystemExit(main())
