"""Genericity scanning and randomized parameter sampling.

A parameter point is *generic* for truncation depths (m, n) when every
denominator a check divides by keeps the point's margin
(``ParamPoint.guard``) from zero.  Each is guarded where it is read: a
theta store tests each entry once, when it is formed, and an entry or a
check's own q-factor within the margin raises
``DegenerateParameterError`` when it is divided by
(``special.within_guard``), as does a weight h(i, 0) or 1 - h(0, j)
within it (``weights.guard_weight_denominator``).  A campaign then
resamples from the check's own stream; no point is silently evaluated
at a vanished denominator.

The sampler's scan (:func:`check_genericity`) is therefore only a range
test of the draw's weight rows, whose thetas it keeps in the store the
checks at the accepted point read.
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
    """True when the weights h(i, 0) and h(0, j) can be formed in doubles:
    read as one set of rows (:func:`special.ratio_rows`) from the point's
    store, which keeps their thetas for the checks, they neither overflow
    (``OverflowError``) nor divide by an entry within the point's guard.
    This range test goes once the product kernels keep their exponent
    beyond double range (ROADMAP, scaled accumulators); until then a draw
    whose weight rows overflow would give its checks non-finite residuals."""
    m, n = size.m, size.n
    try:
        ratio_rows(pp.role_ladders(), [*(h_row(i, 0) for i in range(m + 1)),
                                       *(h_row(0, j) for j in range(1, n + 1))])
    except (DegenerateParameterError, OverflowError):
        return False
    return True


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
