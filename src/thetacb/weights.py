"""The three elliptic weight functions.

``elliptic_weight`` is the eight-theta ratio that biases an east step at
lattice position (i, j):

    h(i, j) = theta(bc q^(i+2j), (c/b) q^i, ax q^i, (a/x) q^i; p)
            / theta(ab q^(i+j), (a/b) q^(i-j), cx q^(i+j), (c/x) q^(i+j); p).

``normalized_weight`` is the row-normalised form H(i, j) = h(i, j)/h(i, 0),
and ``binomial_weight`` is the five-theta weight W(s, t) driving the
Pascal-style recursion of the two-parameter elliptic binomial coefficients.
All three are elliptic: substituting p*x, p*a, p*b or p*c for the matching
parameter leaves them unchanged.
"""

from __future__ import annotations

from functools import cache

from .errors import HConditionError, OutOfRegionError
from .params import ParamPoint
from .special import DENOMINATOR_GUARD, ThetaLadders, guarded, theta


def _theta_ratio(num_args, den_args, p):
    num = 1
    for z in num_args:
        num = num * theta(z, p)
    den = 1
    for z in den_args:
        den = den * guarded(theta(z, p), "denominator theta(%r)", z)
    return num / den


def elliptic_weight(pp: ParamPoint, i: int, j: int):
    """East-step weight h(i, j): the eight-theta ratio above."""
    if i < 0 or j < 0:
        raise OutOfRegionError("weight indices must be nonnegative")
    x, a, b, c, q, p = pp.x, pp.a, pp.b, pp.c, pp.q, pp.p
    qi = q**i
    qij = q ** (i + j)
    return _theta_ratio(
        (b * c * q ** (i + 2 * j), (c / b) * qi, a * x * qi, (a / x) * qi),
        (a * b * qij, (a / b) * q ** (i - j), c * x * qij, (c / x) * qij),
        p,
    )


def h_cells(pp: ParamPoint, ladders: ThetaLadders | None = None):
    """h(i, j) as a memoised function of the cell, read off theta ladders.

    Every cell takes its eight thetas from eight ladders shared by all
    cells, so any set of cells costs one theta call per distinct ladder
    index.  Values equal :func:`elliptic_weight` bit for bit, and every
    denominator theta is checked by the same guard as there.
    """
    x, a, b, c = pp.x, pp.a, pp.b, pp.c
    lad = ThetaLadders(pp.q, pp.p) if ladders is None else ladders
    bc, cb, ax, a_x = lad[b * c], lad[c / b], lad[a * x], lad[a / x]
    ab, a_b, cx, c_x = lad[a * b], lad[a / b], lad[c * x], lad[c / x]

    @cache
    def h(i: int, j: int):
        if i < 0 or j < 0:
            raise OutOfRegionError("weight indices must be nonnegative")
        num = bc[i + 2 * j] * cb[i] * ax[i] * a_x[i]
        return num / (ab.den(i + j) * a_b.den(i - j) * cx.den(i + j) * c_x.den(i + j))

    return h


def h_table(pp: ParamPoint, m: int, n: int) -> list[list]:
    """The weights h(i, j) over the grid {0..m} x {0..n}, rows indexed by i,
    from one set of theta ladders."""
    h = h_cells(pp)
    return [[h(i, j) for j in range(n + 1)] for i in range(m + 1)]


def elliptic_weight_complement(pp: ParamPoint, i: int, j: int):
    """Closed form of 1 - h(i, j), which equals h(j, i) with a and b
    exchanged.  Kept as an independent route for cross-checks; production
    paths compute 1 - elliptic_weight directly."""
    return elliptic_weight(pp.swap_ab(), j, i)


def normalized_weight(pp: ParamPoint, i: int, j: int):
    """Row-normalised weight H(i, j) = h(i, j) / h(i, 0)."""
    h_i0 = elliptic_weight(pp, i, 0)
    if abs(h_i0) <= DENOMINATOR_GUARD:
        raise HConditionError(f"h({i}, 0) vanished; H(i, j) undefined")
    if j == 0:
        return 1
    return elliptic_weight(pp, i, j) / h_i0


def binomial_weight(a, b, q, p, s: int, t: int):
    """Recursion weight W(s, t) of the (a, b)-elliptic binomial family:

        W(s, t) = theta(a q^(s+2t), b q^(2s), b q^(2s-1),
                        (a/b) q^(1-s), (a/b) q^(-s); p)
                / theta(a q^s, b q^(2s+t), b q^(2s+t-1),
                        (a/b) q^(1+t-s), (a/b) q^(t-s); p) * q^t.

    W(s, 0) = 1 exactly (coded fast path); the iterated limit p -> 0,
    a -> 0, b -> 0 recovers the plain q-weight q^t.
    """
    if s < 0 or t < 0:
        raise OutOfRegionError("weight indices must be nonnegative")
    if t == 0:
        return a * 0 + b * 0 + 1
    ab = a / b
    ratio = _theta_ratio(
        (a * q ** (s + 2 * t), b * q ** (2 * s), b * q ** (2 * s - 1),
         ab * q ** (1 - s), ab * q ** (-s)),
        (a * q**s, b * q ** (2 * s + t), b * q ** (2 * s + t - 1),
         ab * q ** (1 + t - s), ab * q ** (t - s)),
        p,
    )
    return ratio * q**t

