"""Genericity scanning and randomized parameter sampling.

A parameter point is *generic* for truncation depths (m, n) when every
theta or q-factorial denominator reachable by the in-scope formulas keeps
a safe margin from zero, and the lattice-weight normalisation condition
(h(i, 0) away from 0, h(0, j) away from 1) holds.  Points failing the
scan are resampled, never silently evaluated.

Every theta the scan reads is a read of the point's theta store
(``ParamPoint.thetas``), one entry at a time through :func:`theta_margin`
(at p = 0 the closed form 1 - z q^j), and the checks that run at the
accepted point read the same values.

A draw is accepted only when both the draw and its p = 0 point
``pp.replace(p=0j)`` pass the scan.  The elliptic checks read the draw's
thetas; the basic p = 0 specialisations and the q-commuting, q-binomial,
connection and Bezout checks divide only by factors 1 - z q^j, which the
p = 0 scan covers at the cost of no theta.  One rule for every draw lets
a campaign evaluate all its checks of one (m, n, trial) cell at a single
point, whichever checks it selects.
"""

from __future__ import annotations

import math
from random import Random

from .errors import DegenerateParameterError, ResamplingExhaustedError
from .params import IdentitySize, ParamPoint
from .special import ThetaLadder, ratio_rows
from .weights import h_row

#: Default width of the denominator safety margin used while sampling.
DEFAULT_GUARD = 1e-6

#: Resampling budget before giving up on a domain.
MAX_ATTEMPTS = 100

#: Magnitude windows of the sampled parameters: x, a, b and c in
#: [MAG_LO, MAG_HI], q in [Q_LO, Q_HI], p in [P_LO, P_HI].  Arguments are
#: always uniform on the circle.
MAG_LO, MAG_HI = 0.2, 2.0
Q_LO, Q_HI = 0.3, 0.9
P_LO, P_HI = 0.05, 0.5


def theta_margin(ladder: ThetaLadder, j: int) -> float:
    """Scale-free magnitude |theta(arg; p)| / (1 + |arg|) of ladder entry j,
    arg = z q^j, formed once for the margin and the read; ~0 near a zero.
    Arguments deep in a quasi-period make theta astronomically large;
    overflow therefore counts as an infinite (safe) margin."""
    arg = ladder.arg(j)
    if arg == 0:
        return 0.0
    try:
        return float(abs(ladder.at(j, arg))) / (1.0 + float(abs(arg)))
    except OverflowError:
        return math.inf


def _denominator_args(pp: ParamPoint, m: int, n: int):
    """The denominator thetas the scan checks at depths (m, n), as (ladder,
    index) pairs of the point's store, top = m + n + 1: ladders q, ab, cx,
    c/x, ac and bc at 0..top, a/b at -(top+1)..top+1, a and b at 0..2 top.
    b/a is covered through a/b by theta inversion (theta(1/z) = -theta(z)/z).
    At m, n <= 3 every denominator that the weights, closed forms and
    normal-form leaves read is in this set; the very-well-poised sum's
    own bases are not."""
    x, a, b, c, q = pp.x, pp.a, pp.b, pp.c, pp.q
    lad = pp.thetas
    top = m + n + 1
    qq = lad[q]
    yield from ((qq, t) for t in range(top + 1))  # q^(t+1)
    five = [lad[z] for z in (a * b, c * x, c / x, a * c, b * c)]
    yield from ((ladder, t) for t in range(top + 1) for ladder in five)
    a_b = lad[a / b]
    yield from ((a_b, t) for t in range(-(top + 1), top + 2))
    pair = (lad[a], lad[b])
    yield from ((ladder, t) for t in range(2 * top + 1) for ladder in pair)


def check_genericity(pp: ParamPoint, size: IdentitySize, guard: float = DEFAULT_GUARD) -> bool:
    """True when every reachable denominator keeps margin ``guard`` and the
    weight-normalisation condition holds with the same margin.

    Each denominator's margin is read by :func:`theta_margin`, the scan
    stopping at the first that fails; the weight check then reads the
    weights h(i, 0) and h(0, j) as one set of rows
    (:func:`special.ratio_rows`) from the point's store.  A point whose
    weights overflow doubles (``OverflowError``) or meet a vanished
    denominator is not generic."""
    m, n = size.m, size.n
    tiny = 1e-12
    for z in (pp.x, pp.a, pp.b, pp.c, pp.q):
        if abs(z) < tiny:
            return False
    if any(theta_margin(ladder, j) <= guard for ladder, j in _denominator_args(pp, m, n)):
        return False
    try:
        weights = ratio_rows(pp.role_ladders(), [*(h_row(i, 0) for i in range(m + 1)),
                                                 *(h_row(0, j) for j in range(1, n + 1))])
    except (DegenerateParameterError, OverflowError):
        return False
    return not (any(abs(h) <= guard for h in weights[:m + 1])
                or any(abs(1 - h) <= guard for h in (weights[0], *weights[m + 1:])))


def _unit_complex(rng: Random) -> complex:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(ang), math.sin(ang))


def _log_uniform(rng: Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw(rng: Random, p_hi: float) -> ParamPoint:
    """One candidate point of the sampler, with |p| <= p_hi."""
    return ParamPoint(
        x=_log_uniform(rng, MAG_LO, MAG_HI) * _unit_complex(rng),
        a=_log_uniform(rng, MAG_LO, MAG_HI) * _unit_complex(rng),
        b=_log_uniform(rng, MAG_LO, MAG_HI) * _unit_complex(rng),
        c=_log_uniform(rng, MAG_LO, MAG_HI) * _unit_complex(rng),
        q=_log_uniform(rng, Q_LO, Q_HI) * _unit_complex(rng),
        p=_log_uniform(rng, P_LO, p_hi) * _unit_complex(rng),
    )


def sample_param_point(
    rng: Random,
    size: IdentitySize,
    guard: float = DEFAULT_GUARD,
    p_max: float = P_HI,
) -> ParamPoint:
    """Draw a generic parameter point (log-uniform magnitudes, uniform
    arguments), resampling until both the draw and its p = 0 point pass
    the genericity scan.  The point has double-precision scalars and keeps
    the thetas its scan read; :func:`to_mp` converts it exactly.

    ``p_max`` outside [``P_LO``, ``P_HI``] raises ``ValueError``.
    """
    if not P_LO <= p_max <= P_HI:
        raise ValueError(f"p_max must lie in [{P_LO}, {P_HI}]")
    for _ in range(MAX_ATTEMPTS):
        pp = _draw(rng, p_max)
        if check_genericity(pp, size, guard) and check_genericity(pp.replace(p=0j), size, guard):
            return pp
    raise ResamplingExhaustedError(
        f"no generic point found in {MAX_ATTEMPTS} attempts (guard {guard})")


def to_mp(pp: ParamPoint) -> ParamPoint:
    """The point with its scalars converted to ``mpmath.mpc``, exactly at
    15 or more working digits, and a new, empty theta store."""
    import mpmath

    def conv(z):
        return mpmath.mpc(z.real, z.imag)

    return ParamPoint(conv(pp.x), conv(pp.a), conv(pp.b), conv(pp.c),
                      conv(pp.q), conv(pp.p))
