"""The three elliptic weight functions.

``elliptic_weight`` is the eight-theta ratio that biases an east step at
lattice position (i, j):

    h(i, j) = theta(bc q^(i+2j), (c/b) q^i, ax q^i, (a/x) q^i; p)
            / theta(ab q^(i+j), (a/b) q^(i-j), cx q^(i+j), (c/x) q^(i+j); p).

``normalized_weight`` is the row-normalised form H(i, j) = h(i, j)/h(i, 0),
and ``binomial_weight`` is the five-theta weight W(s, t) driving the
Pascal-style recursion of the two-parameter elliptic binomial coefficients.
All three take a :class:`ParamPoint` and read their thetas off its store
(:attr:`ParamPoint.thetas`).  All three are elliptic: substituting p*x,
p*a, p*b or p*c for the matching parameter leaves them unchanged.
A ``shift`` (alpha, beta, gamma) reads a weight at (a q^alpha, b q^beta,
c q^gamma) off the same ladders at offset indices: every base moves by a
power of q (ab -> ab q^(alpha+beta), a/b -> (a/b) q^(alpha-beta), ...).
A form that divides by h(i, 0) or 1 - h(0, j) reads it through
:func:`guard_weight_denominator`, at the point's guard.  The same
substitution with (alpha, beta, gamma) = (i, j, i + j) turns h(0, 0) into
h(i, j), so h has one compiled row per shifted point (:func:`h_row`), and
a point keeps the value of each row it read (:func:`elliptic_weight`).
"""

from __future__ import annotations

from functools import cache

from .errors import HConditionError, OutOfRegionError
from .params import A_B, A_X, AB, AX, BC, C_B, C_X, CX, SWAPPED, ParamPoint
from .special import ratio_row, ratio_rows

#: The substitution (alpha, beta, gamma) that leaves a, b and c as they are.
ZERO_SHIFT = (0, 0, 0)


@cache
def h_row(i: int, j: int, shift=ZERO_SHIFT, swap: bool = False) -> tuple:
    """The ratio row (:func:`special.ratio_row`) of h(i, j) at ``shift``:
    the one compiled row of h(0, 0) at the shifted point.  Substituting
    (a, b, c) -> (a q^i, b q^j, c q^(i+j)) turns h(0, 0) into h(i, j), so
    h(i, j) at (alpha, beta, gamma) is h(0, 0) at (alpha + i, beta + j,
    gamma + i + j), and the mirror h~(i, j) is h~(0, 0) at (alpha + j,
    beta + i, gamma + i + j): every (i, j, shift) of one shifted point
    returns the same row object, whose value a point keeps
    (:func:`elliptic_weight`).  ``swap`` exchanges the roles of a and b
    after the ``shift``, alpha's and beta's with them."""
    al, be, ga = shift
    if swap:
        return _h_row_at((al + j, be + i, ga + i + j), True)
    return _h_row_at((al + i, be + j, ga + i + j), False)


@cache
def _h_row_at(shift: tuple, swap: bool):
    """The row of h(0, 0) at ``shift``: the k-th numerator theta of the
    module docstring's ratio is paired with the k-th denominator theta,
    since a product of four thetas can overflow where the ratio does not.
    With ``swap`` the row reads role r as ``SWAPPED[r]`` of the point's
    own roles, so h and its mirror read one tuple
    (``ParamPoint.role_ladders``)."""
    al, be, ga = shift
    roles = (BC, C_B, AX, A_X, AB, A_B, CX, C_X)
    if swap:
        al, be = be, al
        roles = (SWAPPED[r] for r in roles)
    bc, c_b, ax, a_x, ab, a_b, cx, c_x = roles
    return ratio_row(((bc, be + ga, 1), (c_b, ga - be, 1), (ax, al, 1), (a_x, al, 1)),
                     ((ab, al + be, 1), (a_b, al - be, 1), (cx, ga, 1), (c_x, ga, 1)))


def elliptic_weight(pp: ParamPoint, i: int, j: int, shift=ZERO_SHIFT, swap: bool = False):
    """East-step weight h(i, j): the eight-theta ratio above, read off the
    point's theta store (:attr:`ParamPoint.thetas`) through its row
    (:func:`h_row`); the store forms each theta once, so a set of cells
    costs one theta call per distinct ladder index.  Every denominator
    theta is checked on its own by :meth:`ThetaLadder.den`.  ``swap``
    reads the mirror h~, h with a and b exchanged after the ``shift``,
    off the same role ladders (:func:`h_row`).

    The point keeps each row's value (:meth:`ParamPoint.weight_values`),
    so the weights of one shifted point, h(i, j) at a shift and h(0, 0) at
    the shifted point, are read off the ladders once; the value is the one
    :func:`special.ratio_rows` gives the row, bit for bit.  A read that
    raises keeps nothing, so it raises again on the next read."""
    if i < 0 or j < 0:
        raise OutOfRegionError("weight indices must be nonnegative")
    row = h_row(i, j, shift, swap)
    values = pp.weight_values()
    value = values.get(row)
    if value is None:
        value = values[row] = ratio_rows(pp.role_ladders(), (row,))[0]
    return value


def h_table(pp: ParamPoint, m: int, n: int) -> list[list]:
    """The weights h(i, j) over the grid {0..m} x {0..n}, rows indexed by
    i, evaluated as one set of rows (:func:`special.ratio_rows`); the
    point's store forms each theta the cells share once.  The set is read
    as a whole, not through the point's table of single weights."""
    values = ratio_rows(pp.role_ladders(), [h_row(i, j) for i in range(m + 1)
                                           for j in range(n + 1)])
    return [values[i * (n + 1):(i + 1) * (n + 1)] for i in range(m + 1)]


def guard_weight_denominator(pp: ParamPoint, w) -> None:
    """Raise ``HConditionError`` when the weight denominator ``w``, h(i, 0)
    or 1 - h(0, j), lies within the point's guard: |w| <= ``pp.guard``.
    Every form that divides by a weight reads it through this test, so a
    campaign resamples such a point from the check's own stream."""
    if abs(w) <= pp.guard:
        raise HConditionError(f"weight denominator {w} within the guard {pp.guard}")


def normalized_weight(pp: ParamPoint, i: int, j: int, shift=ZERO_SHIFT, swap: bool = False):
    """Row-normalised weight H(i, j) = h(i, j) / h(i, 0), with ``shift`` and
    ``swap`` as in :func:`elliptic_weight`, through which it reads both
    weights, so off the point's table of weight values; h(i, 0) at the
    shift is guarded (:func:`guard_weight_denominator`)."""
    h_i0 = elliptic_weight(pp, i, 0, shift, swap)
    guard_weight_denominator(pp, h_i0)
    if j == 0:
        return 1
    return elliptic_weight(pp, i, j, shift, swap) / h_i0


def binomial_weight(pp: ParamPoint, s: int, t: int, shift=ZERO_SHIFT):
    """Recursion weight W(s, t) of the (a, b)-elliptic binomial family at
    the point's a, b, q and p, read off its theta store:

        W(s, t) = theta(a q^(s+2t), b q^(2s), b q^(2s-1),
                        (a/b) q^(1-s), (a/b) q^(-s); p)
                / theta(a q^s, b q^(2s+t), b q^(2s+t-1),
                        (a/b) q^(1+t-s), (a/b) q^(t-s); p) * q^t.

    W(s, 0) = 1 exactly (coded fast path); the iterated limit p -> 0,
    a -> 0, b -> 0 recovers the plain q-weight q^t.  ``shift`` reads W at
    (a q^alpha, b q^beta); c plays no part.
    """
    if s < 0 or t < 0:
        raise OutOfRegionError("weight indices must be nonnegative")
    a, b, q = pp.a, pp.b, pp.q
    if t == 0:
        return a * 0 + b * 0 + 1
    al, be, _ = shift
    d = al - be
    lad = pp.thetas
    la, lb, a_b = lad[a], lad[b], lad[a / b]
    num = la[al + s + 2 * t] * lb[be + 2 * s] * lb[be + 2 * s - 1] * a_b[d + 1 - s] * a_b[d - s]
    den = la.den(al + s) * lb.den(be + 2 * s + t) * lb.den(be + 2 * s + t - 1) \
        * a_b.den(d + 1 + t - s) * a_b.den(d + t - s)
    return num / den * q**t

