"""Genericity scanning and randomized parameter sampling.

A parameter point is *generic* for truncation depths (m, n) when every
theta or q-factorial denominator reachable by the in-scope formulas keeps
a safe margin from zero, and the lattice-weight normalisation condition
(h(i, 0) away from 0, h(0, j) away from 1) holds.  Points failing the
scan are resampled, never silently evaluated.

Every theta the scan reads is a read of the point's theta store
(``ParamPoint.thetas``).  At a double-precision point the scan first
fills the store in one batch (:meth:`ThetaLadders.fill`: at p = 0 the
closed form 1 - z q^j a read forms, otherwise each value within its
stated error bound of ``special.theta``'s), which forms each argument
once and hands back the margins of the denominators as an array; the
scan compares them with the guard, with no scalar theta call (only a
weight read of an entry that overflowed makes one, and raises, which
rejects the draw), and the checks that run at the accepted point read
the same values.  mpmath points are not batched: their scan reads entry
by entry through :func:`theta_margin`.

The theta-free checks (``cli.THETA_FREE``: the basic p = 0
specialisations and the q-commuting, q-binomial, connection and Bezout
checks) divide only by factors 1 - z q^j, never by a theta at p != 0.  For them the sampler scans the
draw's p = 0 point, where every margin is that closed form and the
weight condition reads the basic weights, and costs no theta; the point
it returns is still the one drawn, p included.
"""

from __future__ import annotations

import math
from random import Random

from .errors import DegenerateParameterError, ResamplingExhaustedError
from .params import IdentitySize, ParamPoint
from .special import ThetaLadder
from .weights import elliptic_weight

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
    arg = z q^j; ~0 near a zero.  Arguments deep in a quasi-period make
    theta astronomically large; overflow therefore counts as an infinite
    (safe) margin.  The scan of a point the store does not batch (mpmath
    scalars) reads its margins here; a batched scan has the same rule from
    :meth:`ThetaLadders.fill`."""
    arg = ladder.z * ladder.q**j
    if arg == 0:
        return 0.0
    try:
        return float(abs(ladder[j])) / (1.0 + float(abs(arg)))
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


def _weight_numerator_args(pp: ParamPoint, m: int, n: int):
    """The numerator thetas of the weights h(i, 0), i <= m, and h(0, j),
    j <= n, that the weight-normalisation condition reads, as (ladder,
    index) pairs of the point's theta store; their denominators are among
    :func:`_denominator_args`."""
    x, a, b, c = pp.x, pp.a, pp.b, pp.c
    lad = pp.thetas
    bc = lad[b * c]
    yield from ((bc, i) for i in range(m + 1))
    yield from ((bc, 2 * j) for j in range(n + 1))
    for z in (c / b, a * x, a / x):
        ladder = lad[z]
        yield from ((ladder, i) for i in range(m + 1))


def check_genericity(pp: ParamPoint, size: IdentitySize, guard: float = DEFAULT_GUARD) -> bool:
    """True when every reachable denominator keeps margin ``guard`` and the
    weight-normalisation condition holds with the same margin.

    For a double-precision point the thetas of both checks are evaluated
    first, in one batch (:meth:`ThetaLadders.fill`), which also gives the
    denominators' margins; the weight check then reads the thetas from the
    point's store.  mpmath points read each margin by :func:`theta_margin`.
    A point whose weights overflow doubles (``OverflowError``) is not
    generic."""
    m, n = size.m, size.n
    tiny = 1e-12
    for z in (pp.x, pp.a, pp.b, pp.c, pp.q):
        if abs(z) < tiny:
            return False
    scan = list(_denominator_args(pp, m, n))
    margins = pp.thetas.fill([*scan, *_weight_numerator_args(pp, m, n)])
    if margins is not None:
        if (margins[:len(scan)] <= guard).any():
            return False
    elif any(theta_margin(ladder, j) <= guard for ladder, j in scan):
        return False
    try:
        for i in range(m + 1):
            if abs(elliptic_weight(pp, i, 0)) <= guard:
                return False
        for j in range(n + 1):
            if abs(1 - elliptic_weight(pp, 0, j)) <= guard:
                return False
    except (DegenerateParameterError, OverflowError):
        return False
    return True


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
    p_max: float | None = None,
    precision_digits: int = 0,
    theta_free: bool = False,
) -> ParamPoint:
    """Draw a generic parameter point (log-uniform magnitudes, uniform
    arguments), resampling until the genericity scan passes.

    ``theta_free`` scans each draw's p = 0 point ``pp.replace(p=0j)``
    instead of the draw, for a check that reads no theta at p != 0.  A
    draw takes the same six random scalars either way, p included, and the
    point returned is the draw itself; only which draws pass can differ.

    ``precision_digits`` > 0 converts the sampled scalars to ``mpmath.mpc``
    at the caller's working precision (the CLI runs the whole campaign
    under ``mpmath.workdps(precision_digits)``); the draw itself is
    identical, so reports stay reproducible across precision modes.
    ``p_max`` outside [``P_LO``, ``P_HI``] raises ``ValueError``.
    """
    if p_max is not None and not P_LO <= p_max <= P_HI:
        raise ValueError(f"p_max must lie in [{P_LO}, {P_HI}]")
    p_hi = P_HI if p_max is None else p_max
    for _ in range(MAX_ATTEMPTS):
        pp = _draw(rng, p_hi)
        if check_genericity(pp.replace(p=0j) if theta_free else pp, size, guard):
            # a double point keeps the thetas its scan computed (none for a
            # theta-free scan, which filled the p = 0 point's store); an
            # mpmath point is new and starts its own store
            return _to_mp(pp) if precision_digits > 0 else pp
    raise ResamplingExhaustedError(
        f"no generic point found in {MAX_ATTEMPTS} attempts (guard {guard})")


def _to_mp(pp: ParamPoint) -> ParamPoint:
    import mpmath

    def conv(z):
        return mpmath.mpc(z.real, z.imag)

    return ParamPoint(conv(pp.x), conv(pp.a), conv(pp.b), conv(pp.c),
                      conv(pp.q), conv(pp.p))
