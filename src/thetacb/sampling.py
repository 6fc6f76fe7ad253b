"""Genericity scanning and randomized parameter sampling.

A parameter point is *generic* for truncation depths (m, n) when every
theta or q-factor denominator that a check divides by keeps a safe margin
from zero, and the lattice-weight normalisation condition (h(i, 0) away
from 0, h(0, j) away from 1) holds.  The denominators are guarded where
they are read: the point carries the margin (``ParamPoint.guard``), each
entry of its theta stores is tested against it once, when it is formed,
and a store entry or a check's own q-factor within it raises
``DegenerateParameterError`` when it is divided by
(``special.within_guard``).  A campaign then resamples from the check's
own stream; no point is silently evaluated at a vanished denominator.

The sampler's scan (:func:`check_genericity`) therefore reads only the
weights h(i, 0) and h(0, j), as one set of rows of the draw's store, whose
denominators that read guards too.  The checks that run at the accepted
point read the same store.
"""

from __future__ import annotations

import math
from random import Random

from .errors import DegenerateParameterError, ResamplingExhaustedError
from .params import IdentitySize, ParamPoint
from .special import DEFAULT_GUARD, ratio_rows
from .weights import h_row

#: Resampling budget before giving up on a domain.
MAX_ATTEMPTS = 100

#: Magnitude windows of the sampled parameters: x, a, b and c in
#: [MAG_LO, MAG_HI], q in [Q_LO, Q_HI], p in [P_LO, P_HI].  Arguments are
#: always uniform on the circle.
MAG_LO, MAG_HI = 0.2, 2.0
Q_LO, Q_HI = 0.3, 0.9
P_LO, P_HI = 0.05, 0.5


def check_genericity(pp: ParamPoint, size: IdentitySize) -> bool:
    """True when the weight-normalisation condition holds with the point's
    margin ``pp.guard``: the weights h(i, 0) and h(0, j), read as one set
    of rows (:func:`special.ratio_rows`) from the point's store, which
    forms each theta once and keeps it for the checks, keep |h(i, 0)| and
    |1 - h(0, j)| above it.  A point whose weights overflow doubles
    (``OverflowError``) or divide by an entry within the guard is not
    generic."""
    m, n = size.m, size.n
    tiny = 1e-12
    for z in (pp.x, pp.a, pp.b, pp.c, pp.q):
        if abs(z) < tiny:
            return False
    try:
        weights = ratio_rows(pp.role_ladders(), [*(h_row(i, 0) for i in range(m + 1)),
                                                 *(h_row(0, j) for j in range(1, n + 1))])
    except (DegenerateParameterError, OverflowError):
        return False
    guard = pp.guard
    return not (any(abs(h) <= guard for h in weights[:m + 1])
                or any(abs(1 - h) <= guard for h in (weights[0], *weights[m + 1:])))


def _unit_complex(rng: Random) -> complex:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(ang), math.sin(ang))


def _log_uniform(rng: Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw(rng: Random, p_hi: float, guard: float = DEFAULT_GUARD) -> ParamPoint:
    """One candidate point of the sampler, with |p| <= p_hi and margin
    ``guard``."""
    return ParamPoint(
        x=_log_uniform(rng, MAG_LO, MAG_HI) * _unit_complex(rng),
        a=_log_uniform(rng, MAG_LO, MAG_HI) * _unit_complex(rng),
        b=_log_uniform(rng, MAG_LO, MAG_HI) * _unit_complex(rng),
        c=_log_uniform(rng, MAG_LO, MAG_HI) * _unit_complex(rng),
        q=_log_uniform(rng, Q_LO, Q_HI) * _unit_complex(rng),
        p=_log_uniform(rng, P_LO, p_hi) * _unit_complex(rng),
        guard=guard,
    )


def sample_param_point(
    rng: Random,
    size: IdentitySize,
    guard: float = DEFAULT_GUARD,
    p_max: float = P_HI,
) -> ParamPoint:
    """Draw a generic parameter point (log-uniform magnitudes, uniform
    arguments) with margin ``guard``, resampling until the draw passes the
    genericity scan.  The point has double-precision scalars and keeps the
    thetas its scan read; :func:`to_mp` converts it exactly.

    ``p_max`` outside [``P_LO``, ``P_HI``] raises ``ValueError``.
    """
    if not P_LO <= p_max <= P_HI:
        raise ValueError(f"p_max must lie in [{P_LO}, {P_HI}]")
    for _ in range(MAX_ATTEMPTS):
        pp = _draw(rng, p_max, guard)
        if check_genericity(pp, size):
            return pp
    raise ResamplingExhaustedError(
        f"no generic point found in {MAX_ATTEMPTS} attempts (guard {guard})")


def to_mp(pp: ParamPoint) -> ParamPoint:
    """The point with its scalars converted to ``mpmath.mpc``, exactly at
    15 or more working digits, its guard, and a new, empty theta store."""
    import mpmath

    def conv(z):
        return mpmath.mpc(z.real, z.imag)

    return ParamPoint(conv(pp.x), conv(pp.a), conv(pp.b), conv(pp.c),
                      conv(pp.q), conv(pp.p), guard=pp.guard)
