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
import contextlib
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from random import Random
from typing import Callable, get_args, get_origin, get_type_hints

from . import bezout, identities, lattice, noncomm
from .errors import DegenerateParameterError, ResamplingExhaustedError
from .noncomm import AlgebraTag
from .params import IdentitySize, ParamPoint
from .sampling import DEFAULT_GUARD, P_HI, P_LO, sample_param_point, to_mp
from .special import addition_formula_residual, qpoch, relative_residual, worst_residual
from .weights import elliptic_weight


@dataclass(frozen=True)
class CampaignConfig:
    """Settings of one verification campaign.  Every field is a key of the
    flat key = value config file and a CLI flag of the same name (``_``
    written ``-``), read by the field's type; a flag overrides the file.
    A field's ``help`` metadata is its flag's help text."""

    identities: tuple[str, ...] = field(
        default=(), metadata={"help": "comma-separated identity names (default: all)"})
    m_max: int = 3
    n_max: int = 3
    trials: int = 3
    seed: int = 0
    tol: float = 1e-8
    p_max: float = 0.5
    precision: int = field(
        default=0, metadata={"help": "decimal digits for extended precision, 15 or more "
                                     "(0 = double)"})
    guard: float = DEFAULT_GUARD
    out: str | None = field(default=None, metadata={"help": "report path (default: stdout)"})

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
        if self.precision < 0 or 0 < self.precision < 15:
            # below 15 digits (53 bits) sampling.to_mp rounds the double draw
            raise ValueError("precision must be 0 (double) or at least 15 digits")


# ---------------------------------------------------------------------------
# Identity registry: name -> (description, runner(pp, m, n) -> residual).

def _at_m(check: Callable, tag: AlgebraTag) -> Callable:
    """The runner of a check(tag, pp, m) that reads only m: its records carry
    an n it never evaluates, until a size rule records what each evaluates."""
    return lambda pp, m, n: check(tag, pp, m)


def _convolution(pp, m, n):
    # one evaluator for every k: the splits share their leaves
    ev = noncomm.Evaluator(AlgebraTag.ELLIPTIC_XABC, pp)
    return worst_residual(noncomm.convolution_residual(pp, n, m, k, ev)
                          for k in range(n + m + 1))


def _frenkel_turaev(pp, m, n):
    lhs, rhs, scale = noncomm.frenkel_turaev(pp, min(m + n, 6))
    return relative_residual(lhs, rhs, scale)


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
        a, b, q, x, guard = pp.a, pp.b, pp.q, pp.x, pp.guard
        size = min(max(m, n), 6)
        if kind == "first":
            terms = [bezout.connection_first(size, k, a, b, q, guard) * qpoch(a * x, q, k)
                     for k in range(size + 1)]
            target = qpoch(b * x, q, size)
        else:
            terms = [bezout.connection_second(size, k, a, b, q, guard)
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
    return worst_residual(bezout.mod_reduction_check(family, pp.a, pp.b, pp.q, m, n, pp.guard)
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


def list_identities() -> list[tuple[str, str]]:
    """All registered identity names with one-line descriptions."""
    return [(name, entry[0]) for name, entry in sorted(REGISTRY.items())]


# ---------------------------------------------------------------------------
# Campaign execution.

def _trial_seed(*coords) -> int:
    """The seed of a random stream named by its coordinates: (seed, m, n,
    trial) for a cell's shared draw, (seed, identity, m, n, trial) for the
    draws of one check that could not use it."""
    blob = "|".join(map(str, coords)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


@dataclass
class _Cell:
    """One (m, n, trial) cell of a campaign: the seed of its draw and,
    once the first check of the cell has run, the one evaluation point the
    cell's checks share at that draw (``point``, made by :func:`_own_point`
    from the scanned draw: its theta store is the scan's at a double
    campaign and keeps every check's reads for the next, see
    :func:`_run_trial`) and the record ``params`` of the draw, built once
    for the cell's records at resamples 0."""

    m: int
    n: int
    trial: int
    seed: int
    point: ParamPoint | None = None
    params: dict | None = None


def run_campaign(config: CampaignConfig) -> "CampaignReport":
    """Run every (identity, m, n, trial).  The cells (m, n, trial) are
    walked in order, and every selected check whose cap admits a cell is
    evaluated at the cell's one generic point, drawn with a seed derived
    from the cell's coordinates, so the report is reproducible, independent
    of execution order and of which other checks the campaign selects.
    Records are emitted identity by identity.  A positive ``precision``
    runs the whole campaign under ``mpmath.workdps``, each trial at its
    draw converted to mpmath scalars."""
    digits = contextlib.nullcontext()
    if config.precision > 0:
        import mpmath  # only extended-precision campaigns load it

        digits = mpmath.workdps(config.precision)
    names = config.identities or tuple(sorted(REGISTRY))
    records: dict[str, list[dict]] = {name: [] for name in names}
    with digits:
        for m in range(config.m_max + 1):
            for n in range(config.n_max + 1):
                for trial in range(config.trials):
                    cell = _Cell(m, n, trial, _trial_seed(config.seed, m, n, trial))
                    for name in names:
                        _desc, cap, runner = REGISTRY[name]
                        if cap is not None and m + n > cap:
                            continue
                        pp, residual, seed, resamples = _run_trial(config, name, runner, cell)
                        params = _params(pp) if resamples or cell.params is None else cell.params
                        if not resamples:
                            cell.params = params
                        records[name].append({
                            "identity": name, "m": m, "n": n, "trial": trial, "seed": seed,
                            "params": params,
                            "residual": residual, "resamples": resamples,
                            "tolerance": float(config.tol),
                            "verdict": "pass" if residual <= config.tol else "fail"})
    summary = {}
    for name, recs in records.items():
        residuals = [rec["residual"] for rec in recs]
        summary[name] = {"trials": len(recs),
                         "failures": sum(rec["verdict"] == "fail" for rec in recs),
                         "nonfinite": sum(not math.isfinite(r) for r in residuals),
                         "max_residual": max([0.0, *filter(math.isfinite, residuals)])}
    all_pass = all(s["failures"] == 0 for s in summary.values())
    return CampaignReport(config=config, records=[rec for recs in records.values() for rec in recs],
                          summary=summary, all_pass=all_pass)


def _params(pp: ParamPoint) -> dict:
    """A point's record ``params``: the pair of each scalar (:func:`_pair`)."""
    return {f.name: _pair(getattr(pp, f.name)) for f in fields(pp)}


def _pair(z) -> list:
    """A scalar's record pair [re, im]: floats, or full-precision strings for mpmath."""
    if isinstance(z, complex):
        return [z.real, z.imag]
    return [str(z.real), str(z.imag)]


def _draws(config: CampaignConfig, name: str, cell: _Cell):
    """The points check ``name`` tries at ``cell`` in turn (:func:`_own_point`),
    each with the seed of the stream that drew it: the cell's shared point,
    drawn and scanned on the cell's first trial, then up to 20 draws of the
    check's own stream, for a check that divides by a denominator within
    the campaign's guard at the shared point (a check raises
    ``DegenerateParameterError`` there, see ``thetacb.sampling``)."""
    size = IdentitySize(cell.m, cell.n)
    if cell.point is None:
        cell.point = _own_point(config, sample_param_point(
            Random(cell.seed), size, guard=config.guard, p_max=config.p_max))
    yield cell.seed, cell.point
    seed = _trial_seed(config.seed, name, cell.m, cell.n, cell.trial)
    rng = Random(seed)
    for _ in range(20):
        yield seed, _own_point(config, sample_param_point(rng, size, guard=config.guard,
                                                          p_max=config.p_max))


def _own_point(config: CampaignConfig, point: ParamPoint) -> ParamPoint:
    """The evaluation point of the scanned double draw ``point``: converted
    by :func:`to_mp` (a new, empty store) at an mpmath campaign, else the
    draw itself, whose store holds what its scan read."""
    return to_mp(point) if config.precision > 0 else point


def _run_trial(config: CampaignConfig, name: str, runner: Callable,
               cell: _Cell) -> tuple[ParamPoint, float, int, int]:
    """Evaluate check ``name`` at ``cell``: (point, residual, seed,
    resamples), where seed names the stream that drew the point and
    resamples is 0 at the cell's shared point and k after k draws of the
    check's own stream (:func:`_draws`).

    At the cell's draw every check evaluates at the cell's one point
    (``cell.point``) and reads its one theta store, by reference, so a
    theta the scan or one check read is not computed again by the next.
    Its bits still never depend on which other checks ran: every entry of
    that store is a scalar ``theta`` read, by the scan or by a check, whose
    bits depend only on the entry's argument and the store's nome, and
    each entry's test against the campaign's guard on its value and
    argument only.  A check at a draw of its own stream evaluates on that
    draw's store.  An ``OverflowError`` of the check gives a NaN
    residual: the trial fails and counts as non-finite, and the campaign
    goes on."""
    for resamples, (seed, pp) in enumerate(_draws(config, name, cell)):
        try:
            return pp, float(runner(pp, cell.m, cell.n)), seed, resamples
        except DegenerateParameterError:
            continue
        except OverflowError:
            return pp, math.nan, seed, resamples
    raise ResamplingExhaustedError(
        f"no evaluable point for {name} at depths ({cell.m}, {cell.n})")


#: The report's one JSON encoder: sorted keys, no spaces; the bytes of
#: ``json.dumps`` with those settings, without a new encoder per line.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    records: list[dict]
    summary: dict[str, dict]
    all_pass: bool

    def to_text(self) -> str:
        """The report as JSON lines with sorted keys: one line per trial
        record, then the summary line.  The records of one cell share one
        ``params`` dict, so each distinct dict is encoded once and spliced
        into its records' lines in place of a placeholder 0: the key
        "params" sorts after "identity", "m" and "n" only, whose values
        cannot hold the unescaped text ``"params":0``."""
        encode = _ENCODER.encode
        lines = []
        encoded: dict[int, str] = {}
        for rec in self.records:
            params = rec["params"]
            text = encoded.get(id(params))
            if text is None:
                text = encoded[id(params)] = encode(params)
            line = encode({"type": "trial", **rec, "params": 0})
            lines.append(line.replace('"params":0', '"params":' + text, 1))
        cfg = {f.name: getattr(self.config, f.name) for f in fields(self.config)
               if f.name != "out"}  # destination is not part of the campaign
        cfg["identities"] = list(cfg["identities"])
        lines.append(encode({"type": "summary", "config": cfg, "identities": self.summary,
                             "verdict": "pass" if self.all_pass else "fail"}))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Configuration file and flags.

def _split(value: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in value.split(",") if name.strip())


def _reader(hint) -> Callable[[str], object]:
    """The reader of a field's text: a tuple field is a comma-separated
    list, an optional field reads as its type, others as the type itself."""
    if get_origin(hint) is tuple:
        return _split
    return get_args(hint)[0] if get_origin(hint) else hint


#: config key -> reader of its text, one per :class:`CampaignConfig` field
_READERS = {name: _reader(hint) for name, hint in get_type_hints(CampaignConfig).items()}


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
        if key not in _READERS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"line {lineno}: repeated key {key!r}")
        out[key] = value
    return out


def build_config(file_values: dict, flag_values: dict) -> CampaignConfig:
    """The file's values overridden by every flag value that is not None;
    a text value is read by its field's type.  An identities text or flag
    that names no identity (``''``, ``','``) is an error: left out, the
    campaign runs every check, and ``CampaignConfig(identities=())`` still
    means all of them."""
    merged = dict(file_values)
    merged.update((key, value) for key, value in flag_values.items() if value is not None)
    for key, value in merged.items():
        if isinstance(value, str) and key in _READERS:
            merged[key] = _READERS[key](value)
    if merged.get("identities") == ():
        raise ValueError("identities names no identity (leave it out to run every check)")
    return CampaignConfig(**merged)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetacb",
        description="Randomized numerical verification of the basic and "
                    "elliptic two-term expansions of unity and their "
                    "surrounding identities.")
    parser.add_argument("--config", help="flat key = value config file")
    for f in fields(CampaignConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=_READERS[f.name],
                            help=f.metadata.get("help"))
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
        flag_values = {key: getattr(args, key) for key in _READERS}
        config = build_config(file_values, flag_values)
    except (OSError, ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
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
