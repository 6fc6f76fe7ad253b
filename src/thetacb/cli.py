"""Batch verification front-end.

``thetacb`` (or ``python -m thetacb.cli``) samples generic parameter
points, runs named identity checks over a grid of truncation depths, and
emits a line-delimited report: one JSON record per trial followed by one
summary record.  Identical configurations produce byte-identical reports.

Exit status: 0 when every trial passed, 1 on any identity failure, 2 on
configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields
from functools import partial
from random import Random
from typing import Callable

from . import bezout, identities, lattice, noncomm
from .errors import DegenerateParameterError, ResamplingExhaustedError
from .noncomm import AlgebraTag
from .params import IdentitySize, ParamPoint
from .sampling import DEFAULT_GUARD, P_HI, P_LO, sample_param_point
from .special import addition_formula_residual, qpoch, relative_residual, worst_residual
from .weights import elliptic_weight


@dataclass(frozen=True)
class CampaignConfig:
    """Settings of one verification campaign; every field can come from a
    flat key = value config file and be overridden by a CLI flag of the
    same name."""

    identities: tuple[str, ...] = ()
    m_max: int = 3
    n_max: int = 3
    trials: int = 3
    seed: int = 0
    tol: float = 1e-8
    p_max: float = 0.5
    precision: int = 0
    guard: float = DEFAULT_GUARD
    out: str | None = None

    def __post_init__(self):
        unknown = [name for name in self.identities if name not in REGISTRY]
        if unknown:
            raise ValueError(f"unknown identities: {', '.join(unknown)}")
        repeated = sorted({name for name in self.identities if self.identities.count(name) > 1})
        if repeated:
            raise ValueError(f"repeated identities: {', '.join(repeated)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tolerance must be finite and nonnegative")
        if not (math.isfinite(self.guard) and self.guard > 0):
            raise ValueError("guard must be finite and positive")
        if self.m_max < 0 or self.n_max < 0:
            raise ValueError("depth bounds must be nonnegative")
        if not P_LO <= self.p_max <= P_HI:
            raise ValueError(f"p_max must lie in [{P_LO}, {P_HI}]")
        if self.precision < 0:
            raise ValueError("precision must be nonnegative")


# ---------------------------------------------------------------------------
# Identity registry: name -> (description, runner(pp, m, n) -> residual).

def _at_m(check: Callable, tag: AlgebraTag) -> Callable:
    """The runner of a check(tag, pp, m) that reads only m: its records carry
    an n it never evaluates, until a size rule records what each evaluates."""
    return lambda pp, m, n: check(tag, pp, m)


def _convolution(pp, m, n):
    return worst_residual(noncomm.convolution_residual(pp, n, m, k) for k in range(n + m + 1))


def _frenkel_turaev(pp, m, n):
    lhs, rhs = noncomm.frenkel_turaev(pp, min(m + n, 6))
    return relative_residual(lhs, rhs)


def _theta_addition(pp, m, n):
    return addition_formula_residual(pp.x, pp.a, pp.b, pp.c, pp.p)


def _h_complement(pp, m, n):
    # 1 - h(i, j) = h(j, i) with a and b exchanged
    return worst_residual(relative_residual(1 - elliptic_weight(pp, i, j),
                                            elliptic_weight(pp, j, i, swap=True))
                          for i in range(min(m, 4) + 1) for j in range(min(n, 4) + 1))


def _lattice_sum(pp, m, n):
    return lattice.total_weight_residual(pp, IdentitySize(m, n))


def _lattice_master(pp, m, n):
    return lattice.master_equality_residual(pp, IdentitySize(m, n))


def _b_system(pp, m, n):
    return lattice.b_system_residual(pp, IdentitySize(max(m, 1), max(n, 1)))


def _cb_variant(pp, m, n):
    # (1-x)^(m+n+1) expanded with signs: the homogeneous form at (-x, 1)
    return identities.cb_homogeneous_residual(-pp.x, 1, m, n)


def _cb_homogeneous(pp, m, n):
    return identities.cb_homogeneous_residual(pp.x, pp.a, m, n)


def _connection(kind: str) -> Callable:
    def run(pp, m, n):
        a, b, q, x = pp.a, pp.b, pp.q, pp.x
        size = min(max(m, n), 6)
        if kind == "first":
            terms = [bezout.connection_first(size, k, a, b, q) * qpoch(a * x, q, k)
                     for k in range(size + 1)]
            target = qpoch(b * x, q, size)
        else:
            terms = [bezout.connection_second(size, k, a, b, q)
                     * qpoch(a * x, q, k) * qpoch(a / x, q, k)
                     for k in range(size + 1)]
            target = qpoch(b * x, q, size) * qpoch(b / x, q, size)
        scale = max([1.0] + [abs(t) for t in terms])
        return float(abs(sum(terms) - target)) / scale

    return run


def _bezout_qcb(pp, m, n):
    q1, q2 = bezout.bezout_solve(bezout.qpoch_poly(1, pp.q, n + 1),
                                 bezout.poly_monomial(m + 1), m, n)
    c1, c2 = bezout.qcb_cofactors(pp.q, m, n)
    scale = max([1.0] + [abs(z) for z in c1.coeffs + c2.coeffs])
    return worst_residual(abs(z) for gap in (q1 - c1, q2 - c2) for z in gap.coeffs) / scale


def _matrix_pair(pp, m, n):
    return bezout.matrix_pair_check(min(max(m, n), 8), pp.q)


def _mod_reduction(pp, m, n):
    return worst_residual(bezout.mod_reduction_check(family, pp.a, pp.b, pp.q, m, n)
                          for family in ("first", "second"))


#: name -> (description, size cap (m+n), runner)
REGISTRY: dict[str, tuple[str, int | None, Callable]] = {
    "classical_cb": ("classical two-term binomial expansion of unity",
                     None, partial(identities.cb_residual, "classical")),
    "qcb": ("one-parameter basic expansion of unity",
            None, partial(identities.cb_residual, "qcb")),
    "abq1_cb": ("two-parameter basic expansion, first kind",
                None, partial(identities.cb_residual, "abq1")),
    "abq2_cb": ("two-parameter basic expansion, second kind",
                None, partial(identities.cb_residual, "abq2")),
    "abcq_cb": ("three-parameter basic expansion of unity",
                None, partial(identities.cb_residual, "abcq")),
    "elliptic_cb": ("four-parameter theta-function expansion of unity",
                    None, partial(identities.cb_residual, "elliptic")),
    "cb_variant": ("signed variant expanding (1-x)^(m+n+1)", None, _cb_variant),
    "cb_homogeneous": ("two-variable homogeneous expansion of (x+y)^(m+n+1)",
                       None, _cb_homogeneous),
    "lattice_sum_to_one": ("brute-force path weights sum to one", 10, _lattice_sum),
    "lattice_master_equality": ("boundary split of the weighted path sum",
                                None, _lattice_master),
    "b_system": ("closed normalised table solves its difference system",
                 None, _b_system),
    "h_complement": ("complement symmetry of the step weight", None, _h_complement),
    "theta_addition": ("four-term theta addition formula", None, _theta_addition),
    "qbinom_pascal": ("Pascal recursion of the q-binomial", None,
                      _at_m(noncomm.pascal_residual, AlgebraTag.Q_COMMUTING)),
    "w_binomial_recursion": ("recursion of the two-parameter elliptic binomial", 8,
                             _at_m(noncomm.pascal_residual, AlgebraTag.ELLIPTIC_AB)),
    "h_binomial_recursion": ("recursion of the four-parameter elliptic binomial", 8,
                             _at_m(noncomm.pascal_residual, AlgebraTag.ELLIPTIC_XABC)),
    "binomial_q_commuting": ("binomial theorem for q-commuting variables", 8,
                             _at_m(noncomm.binomial_theorem_residual, AlgebraTag.Q_COMMUTING)),
    "binomial_elliptic_ab": ("binomial theorem for (a,b)-elliptic variables", 8,
                             _at_m(noncomm.binomial_theorem_residual, AlgebraTag.ELLIPTIC_AB)),
    "binomial_elliptic_xabc": ("binomial theorem for (x,a,b,c)-elliptic variables", 8,
                               _at_m(noncomm.binomial_theorem_residual,
                                     AlgebraTag.ELLIPTIC_XABC)),
    "homogeneous_q_commuting": ("homogeneous expansion, q-commuting variables", 8,
                                partial(noncomm.homogeneous_cb_residual, AlgebraTag.Q_COMMUTING)),
    "homogeneous_elliptic_ab": ("homogeneous expansion, (a,b)-elliptic variables", 8,
                                partial(noncomm.homogeneous_cb_residual, AlgebraTag.ELLIPTIC_AB)),
    "homogeneous_elliptic_xabc": (
        "homogeneous expansion, (x,a,b,c)-elliptic variables", 8,
        partial(noncomm.homogeneous_cb_residual, AlgebraTag.ELLIPTIC_XABC)),
    "convolution": ("elliptic binomial convolution formula", 8, _convolution),
    "frenkel_turaev": ("terminating very-well-poised theta summation",
                       None, _frenkel_turaev),
    "connection_first": ("basis connection sum, first kind", None,
                         _connection("first")),
    "connection_second": ("basis connection sum, second kind", None,
                          _connection("second")),
    "bezout_qcb": ("cofactor solve matches closed one-parameter cofactors",
                   10, _bezout_qcb),
    "matrix_pair": ("monomial/(x;q)_k transition matrices invert each other",
                    None, _matrix_pair),
    "mod_reduction": ("cofactor divisibility at the modulus roots",
                      None, _mod_reduction),
}


#: The checks that read no theta at p != 0: they divide only by factors
#: 1 - z q^j, so their trials scan the draw's p = 0 point
#: (``sample_param_point(theta_free=True)``), where no theta is evaluated.
THETA_FREE = frozenset({
    "classical_cb", "qcb", "abq1_cb", "abq2_cb", "abcq_cb", "cb_variant", "cb_homogeneous",
    "qbinom_pascal", "binomial_q_commuting", "homogeneous_q_commuting",
    "connection_first", "connection_second", "bezout_qcb", "matrix_pair", "mod_reduction",
})


def list_identities() -> list[tuple[str, str]]:
    """All registered identity names with one-line descriptions."""
    return [(name, entry[0]) for name, entry in sorted(REGISTRY.items())]


# ---------------------------------------------------------------------------
# Campaign execution.

def _trial_seed(seed: int, identity: str, m: int, n: int, trial: int) -> int:
    blob = f"{seed}|{identity}|{m}|{n}|{trial}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def run_campaign(config: CampaignConfig) -> "CampaignReport":
    """Run every (identity, m, n, trial), sampling one generic point per
    trial with a seed derived from the trial coordinates so the report is
    reproducible and independent of execution order."""
    names = config.identities or tuple(sorted(REGISTRY))
    records = []
    summary: dict[str, dict] = {}
    for name in names:
        _desc, cap, runner = REGISTRY[name]
        worst = 0.0
        failures = 0
        nonfinite = 0
        count = 0
        for m in range(config.m_max + 1):
            for n in range(config.n_max + 1):
                if cap is not None and m + n > cap:
                    continue
                for trial in range(config.trials):
                    tseed = _trial_seed(config.seed, name, m, n, trial)
                    pp, residual = _run_trial(Random(tseed), config, runner, m, n,
                                              theta_free=name in THETA_FREE)
                    report = identities.IdentityReport.from_residual(
                        name, pp, m, n, residual, config.tol)
                    rec = report.to_record()
                    rec["trial"] = trial
                    rec["seed"] = tseed
                    records.append(rec)
                    if math.isfinite(residual):
                        worst = max(worst, residual)
                    else:
                        nonfinite += 1
                    failures += 0 if report.verdict else 1
                    count += 1
        summary[name] = {"trials": count, "failures": failures,
                         "nonfinite": nonfinite, "max_residual": worst}
    all_pass = all(s["failures"] == 0 for s in summary.values())
    return CampaignReport(config=config, records=records, summary=summary,
                          all_pass=all_pass)


def _run_trial(rng: Random, config: CampaignConfig, runner: Callable,
               m: int, n: int, theta_free: bool = False) -> tuple[ParamPoint, float]:
    """Sample and evaluate, resampling when an identity-specific
    denominator turns out degenerate (the generic scan cannot know every
    family's denominators); the retry consumes the same deterministic
    stream, so reports stay reproducible and trial counts unchanged.
    A ``theta_free`` check (:data:`THETA_FREE`) has the sampler scan the
    draw's p = 0 point, and is evaluated at the draw itself.  An
    ``OverflowError`` of the check gives a NaN residual: the trial fails
    and counts as non-finite, and the campaign goes on."""
    for _ in range(20):
        pp = sample_param_point(rng, IdentitySize(m, n), guard=config.guard,
                                p_max=config.p_max, precision_digits=config.precision,
                                theta_free=theta_free)
        try:
            return pp, float(runner(pp, m, n))
        except DegenerateParameterError:
            continue
        except OverflowError:
            return pp, math.nan
    raise ResamplingExhaustedError(
        f"no evaluable point for this identity at depths ({m}, {n})")


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    records: list[dict]
    summary: dict[str, dict]
    all_pass: bool

    def to_text(self) -> str:
        lines = []
        for rec in self.records:
            lines.append(json.dumps({"type": "trial", **rec},
                                    sort_keys=True, separators=(",", ":")))
        cfg = {f.name: getattr(self.config, f.name) for f in fields(self.config)
               if f.name != "out"}  # destination is not part of the campaign
        cfg["identities"] = list(cfg["identities"])
        lines.append(json.dumps(
            {"type": "summary", "config": cfg, "identities": self.summary,
             "verdict": "pass" if self.all_pass else "fail"},
            sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Configuration file and flags.

_CONFIG_KEYS = {f.name for f in fields(CampaignConfig)}


def parse_config_file(text: str) -> dict:
    """Flat key = value lines, each key at most once; '#' starts a
    comment; identities is a comma-separated list."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        out[key] = value
    return out


def _coerce(key: str, value):
    if isinstance(value, str):
        if key == "identities":
            return tuple(name.strip() for name in value.split(",") if name.strip())
        if key in ("m_max", "n_max", "trials", "seed", "precision"):
            return int(value)
        if key in ("tol", "p_max", "guard"):
            return float(value)
    return value


def build_config(file_values: dict, flag_values: dict) -> CampaignConfig:
    merged: dict = {}
    for key, value in file_values.items():
        merged[key] = _coerce(key, value)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = _coerce(key, value)
    return CampaignConfig(**merged)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetacb",
        description="Randomized numerical verification of the basic and "
                    "elliptic two-term expansions of unity and their "
                    "surrounding identities.")
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--identities",
                        help="comma-separated identity names (default: all)")
    parser.add_argument("--m-max", dest="m_max", type=int)
    parser.add_argument("--n-max", dest="n_max", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--p-max", dest="p_max", type=float)
    parser.add_argument("--precision", type=int,
                        help="decimal digits for extended precision (0 = double)")
    parser.add_argument("--guard", type=float)
    parser.add_argument("--out", help="report path (default: stdout)")
    parser.add_argument("--list", action="store_true",
                        help="list identity names and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name, description in list_identities():
            print(f"{name}: {description}")
        return 0

    try:
        file_values = {}
        if args.config:
            with open(args.config, encoding="utf-8") as handle:
                file_values = parse_config_file(handle.read())
        flag_values = {key: getattr(args, key) for key in _CONFIG_KEYS}
        config = build_config(file_values, flag_values)
    except (OSError, ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        if config.precision > 0:
            import mpmath

            with mpmath.workdps(config.precision):
                report = run_campaign(config)
        else:
            report = run_campaign(config)
    except ResamplingExhaustedError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    text = report.to_text()
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"output error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    raise SystemExit(main())
