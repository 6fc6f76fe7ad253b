"""Weighted monotone lattice paths on the rectangle {0..m+1} x {0..n+1}.

Three independent routes to the endpoint generating function A(k, l) are
provided: brute-force summation over every path, walked depth first, the
two-term recurrence

    A(k, l) = h(k-1, l) A(k-1, l) + (1 - h(k, l-1)) A(k, l-1)

with boundary products, and fully factorised closed forms.  The module
also carries the normalised table B(k, l) = A(k, l)/(A(k, 0) A(0, l)),
its closed form, and the partition of unity

    1 = sum_k (1 - h(k, n)) A(k, n) + sum_l h(m, l) A(m, l)

obtained by splitting paths at their last free step.

The closed forms of A and B and the weight h are each written once, as
the ratio row of one cell (:func:`a_row`, :func:`b_row`,
``weights.h_row``) over the ladder roles of ``ParamPoint.role_ladders``.
A row does not depend on the point, so each is cached by its cell.  A
single cell evaluates its row (:func:`a_closed`, :func:`b_closed`); a
table evaluates all its rows in one ``special.ratio_rows`` call, which
gives every cell the bits of its single-cell kernel; the point's store
forms each distinct theta once, however many cells read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import CapExceededError, OutOfRegionError
from .params import (A_B, A_X, AB, AC, AX, B_A, B_X, BC, BX, C_A, C_B, C_X, CX, Q, IdentitySize,
                     ParamPoint)
from .special import ratio_row, ratio_rows, relative_residual, theta_ratio, worst_residual
from .weights import ZERO_SHIFT, guard_weight_denominator, h_row, h_table

#: Endpoints with m + n beyond this are refused by the brute-force routes.
BRUTE_FORCE_CAP = 12


def total_weight(pp: ParamPoint, size: IdentitySize):
    """Brute-force sum of all C(m+n+2, m+1) path weights from the origin to
    (m+1, n+1); the weight assignment makes this exactly 1.  East steps at
    height j <= n carry h(i, j) and north steps at column i <= m carry
    1 - h(i, j); steps along the top and right edges carry 1."""
    total, _ = _total_weight_scaled(pp, size)
    return total


def total_weight_residual(pp: ParamPoint, size: IdentitySize) -> float:
    """Relative residual of the brute-force partition of unity, normalised
    by the largest single path weight.  Individual path weights can reach
    1e8 at perfectly generic points, so the plain difference from 1 is
    dominated by summation rounding; the scale-aware form reflects the
    identity itself."""
    total, scale = _total_weight_scaled(pp, size)
    return relative_residual(1, total, scale)


def _total_weight_scaled(pp: ParamPoint, size: IdentitySize):
    total = 0
    scale = 0.0
    for acc in _path_weights(pp, size.m + 1, size.n + 1, size.m, size.n):
        total = total + acc
        scale = max(scale, abs(acc))
    return total, scale


def endpoint_weights(pp: ParamPoint, k: int, l: int):
    """Weights of every path from the origin to (k, l), one per path.

    The largest magnitude in this list is the natural cancellation scale
    for comparing the summed routes to A(k, l) in floating point.
    """
    return list(_path_weights(pp, k, l, k, l))


def _path_weights(pp: ParamPoint, east: int, north: int, m: int, n: int):
    """Weight of every monotone path with the given step counts, found by
    a depth-first walk that takes the east step before the north one, so
    in the lexicographic order of the step sequences with east first.  An
    east step at (i, j) carries h(i, j) and a north step 1 - h(i, j) while
    (i, j) lies in the weight grid {0..m} x {0..n}; steps beyond it carry
    1.  Each weight is its path's running product from 1, factor by
    factor; paths with a common prefix share its product, which is the
    same expression for each of them."""
    if m + n > BRUTE_FORCE_CAP:
        raise CapExceededError(f"m + n = {m + n} exceeds cap {BRUTE_FORCE_CAP}")
    h = h_table(pp, m, n)
    low = [[1 - v for v in row] for row in h]
    stack = [(0, 0, 1)]
    while stack:
        i, j, acc = stack.pop()
        if i == east and j == north:
            yield acc
            continue
        if j < north:
            stack.append((i, j + 1, acc * low[i][j] if i <= m else acc))
        if i < east:
            stack.append((i + 1, j, acc * h[i][j] if j <= n else acc))


def a_bruteforce(pp: ParamPoint, k: int, l: int):
    """Generating function A(k, l) by enumerating every path to (k, l)."""
    total = 0
    for w in endpoint_weights(pp, k, l):
        total = total + w
    return total


@dataclass(frozen=True)
class WeightTable:
    """DP tables over the grid {0..m} x {0..n}: a[k][l] is the endpoint
    generating function, b[k][l] the boundary-normalised form."""

    m: int
    n: int
    a: tuple[tuple[complex, ...], ...]
    b: tuple[tuple[complex, ...], ...]


def a_table_dp(pp: ParamPoint, size: IdentitySize) -> WeightTable:
    """Fill A by its recurrence and B by its own difference system.

    A boundaries are the row/column products of h(i, 0) and 1 - h(0, j);
    B is driven by the quotient coefficients h(k-1, l)/h(k-1, 0) and
    (1 - h(k, l-1))/(1 - h(0, l-1)) with unit boundaries, so the two
    tables are produced by genuinely different recursions.  The m + n
    weight denominators are guarded (``weights.guard_weight_denominator``).
    """
    m, n = size.m, size.n
    h = h_table(pp, m, n)
    for w in (*(h[k][0] for k in range(m)), *(1 - h[0][l] for l in range(n))):
        guard_weight_denominator(pp, w)

    a = [[None] * (n + 1) for _ in range(m + 1)]
    a[0][0] = 1
    for k in range(1, m + 1):
        a[k][0] = a[k - 1][0] * h[k - 1][0]
    for l in range(1, n + 1):
        a[0][l] = a[0][l - 1] * (1 - h[0][l - 1])
    for k in range(1, m + 1):
        for l in range(1, n + 1):
            a[k][l] = h[k - 1][l] * a[k - 1][l] + (1 - h[k][l - 1]) * a[k][l - 1]

    b = [[1] * (n + 1) for _ in range(m + 1)]
    for k in range(1, m + 1):
        for l in range(1, n + 1):
            b[k][l] = (h[k - 1][l] / h[k - 1][0]) * b[k - 1][l] \
                + ((1 - h[k][l - 1]) / (1 - h[0][l - 1])) * b[k][l - 1]

    return WeightTable(m, n, tuple(map(tuple, a)), tuple(map(tuple, b)))


@cache
def b_row(k: int, l: int, shift=ZERO_SHIFT) -> tuple:
    """The ratio row (:func:`special.ratio_row`) of B(k, l) at ``shift``,
    l >= 1, without its factor q^l (see :func:`b_closed`)."""
    al, be, ga = shift
    return ratio_row(((AC, al + ga + k, l), (Q, k, l), (AB, al + be, l), (CX, ga, l),
                      (C_X, ga, l), (BC, be + ga + l, k), (A_B, al - be + k - l, 1),
                      (B_A, be - al, 1)),
                     ((AB, al + be + k, l), (CX, ga + k, l), (AC, al + ga, l), (Q, 0, l),
                      (BC, be + ga, k), (C_X, ga + k, l), (A_B, al - be + k, 1),
                      (B_A, be - al + l, 1)))


def b_closed(pp: ParamPoint, k: int, l: int, shift=ZERO_SHIFT):
    """Closed form of the normalised table:

        B(k, l) = theta((a/b) q^(k-l), b/a; p) (bc q^l; q, p)_k
                  (ac q^k, ab, cx, c/x, q^(k+1); q, p)_l
                / [theta((a/b) q^k, (b/a) q^l; p) (bc; q, p)_k
                   (ac, ab q^k, cx q^k, (c/x) q^k, q; q, p)_l] * q^l,

    read off the point's theta store through its row (:func:`b_row`).
    The l = 0 boundary is the system's boundary condition B(k, 0) = 1 and
    is returned exactly; at k = 0 the value is computed (the factors only
    cancel through the theta inversion identity there).  ``shift`` reads
    B at (a q^alpha, b q^beta, c q^gamma), as the weights read h.
    """
    if k < 0 or l < 0:
        raise OutOfRegionError("table indices must be nonnegative")
    if l == 0:
        return 1
    return ratio_rows(pp.role_ladders(), (b_row(k, l, shift),))[0] * pp.q**l


@cache
def a_row(k: int, l: int) -> tuple:
    """The ratio row (:func:`special.ratio_row`) of A(k, l), without its
    factor q^l (see :func:`a_closed`)."""
    return ratio_row(((C_B, 0, k), (AX, 0, k), (A_X, 0, k), (AC, k, l), (Q, k, l),
                      (C_A, 0, l), (BX, 0, l), (B_X, 0, l), (BC, l, k), (A_B, k - l, 1)),
                     ((AB, 0, k), (CX, 0, k), (C_X, 0, k), (AB, k, l), (CX, k, l),
                      (Q, 0, l), (B_A, 1, l), (A_B, 0, k), (C_X, k, l), (A_B, k, 1)))


def a_closed(pp: ParamPoint, k: int, l: int):
    """First factorised closed form of A(k, l):

        A(k, l) = theta((a/b) q^(k-l); p) (bc q^l, c/b, ax, a/x; q, p)_k
                  (q^(k+1), ac q^k, c/a, bx, b/x; q, p)_l
                / [(a/b; q, p)_(k+1) (q, qb/a; q, p)_l
                   (ab, cx, c/x; q, p)_(k+l)] * q^l,

    read off the point's theta store through its row (:func:`a_row`).
    """
    if k < 0 or l < 0:
        raise OutOfRegionError("table indices must be nonnegative")
    return ratio_rows(pp.role_ladders(), (a_row(k, l),))[0] * pp.q**l


def a_closed_alt(pp: ParamPoint, k: int, l: int):
    """Second factorised closed form of A(k, l); differs from
    :func:`a_closed` by a theta inversion, so agreement is a real check:

        A(k, l) = theta((b/a) q^(l-k); p) (ac q^k, c/a, bx, b/x; q, p)_l
                  (q^(l+1), bc q^l, c/b, ax, a/x; q, p)_k
                / [(b/a; q, p)_(l+1) (q, qa/b; q, p)_k
                   (ab, cx, c/x; q, p)_(k+l)] * q^k.
    """
    if k < 0 or l < 0:
        raise OutOfRegionError("table indices must be nonnegative")
    a_b, b_a, bc, ac, ab, cx, c_x, qq, c_b, ax, a_x, bx, b_x, c_a = pp.role_ladders()
    num = ((c_b, 0, k), (ax, 0, k), (a_x, 0, k), (ac, k, l), (qq, l, k),
           (c_a, 0, l), (bx, 0, l), (b_x, 0, l), (bc, l, k), (b_a, l - k, 1))
    den = ((ab, 0, k), (cx, 0, k), (c_x, 0, k), (ab, k, l), (qq, 0, k),
           (cx, k, l), (c_x, k, l), (b_a, 0, l), (a_b, 1, k), (b_a, l, 1))
    return theta_ratio(num, den) * pp.q**k


def master_equality_total(pp: ParamPoint, size: IdentitySize):
    """The boundary split sum_k (1 - h(k, n)) A(k, n) + sum_l h(m, l) A(m, l)
    with A taken from the closed form; equals 1 when the identity holds.
    The m + n + 2 cells of A and their weights are one set of rows
    (:func:`special.ratio_rows`)."""
    m, n = size.m, size.n
    cells = [*((k, n) for k in range(m + 1)), *((m, l) for l in range(n + 1))]
    values = ratio_rows(pp.role_ladders(), [row for i, j in cells
                                            for row in (h_row(i, j), a_row(i, j))])
    q = pp.q
    total = 0
    scale = 0.0
    for t, (k, l) in enumerate(cells):
        h, a = values[2 * t], values[2 * t + 1] * q**l
        term = (1 - h) * a if t <= m else h * a
        total = total + term
        scale = max(scale, abs(term))
    return total, scale


def master_equality_residual(pp: ParamPoint, size: IdentitySize) -> float:
    """Relative residual of the partition of unity over the two boundary
    sums, normalised by the largest term magnitude (floor 1)."""
    total, scale = master_equality_total(pp, size)
    return relative_residual(1, total, scale)


def b_system_residual(pp: ParamPoint, size: IdentitySize) -> float:
    """Worst relative residual, over 1 <= k <= m and 1 <= l <= n, of the
    difference system the closed normalised table must solve:

        B(k, l) = h(k-1, l)/h(k-1, 0) B(k-1, l)
                  + (1 - h(k, l-1))/(1 - h(0, l-1)) B(k, l-1).

    Each cell is scaled by its two terms' magnitudes.  The closed-form
    cells with l >= 1 and the weights the system reads (every h(i, j)
    but h(m, n)) are one set of rows (:func:`special.ratio_rows`); the
    point's store forms each distinct theta once, so the check costs
    O(m + n) theta calls.  The m + n weight denominators are guarded
    before the cells are read (``weights.guard_weight_denominator``)."""
    m, n = size.m, size.n
    b_cells = [(k, l) for k in range(m + 1) for l in range(1, n + 1)]
    h_cells = list(dict.fromkeys(cell for k in range(1, m + 1) for l in range(1, n + 1)
                                 for cell in ((k - 1, l), (k - 1, 0), (k, l - 1), (0, l - 1))))
    values = ratio_rows(pp.role_ladders(), [*(b_row(k, l) for k, l in b_cells),
                                            *(h_row(i, j) for i, j in h_cells)])
    q = pp.q
    bt = [[1] * (n + 1) for _ in range(m + 1)]
    for (k, l), value in zip(b_cells, values):
        bt[k][l] = value * q**l
    h = dict(zip(h_cells, values[len(b_cells):]))
    for w in (*(h[k, 0] for k in range(m)), *(1 - h[0, l] for l in range(n))) if m and n else ():
        guard_weight_denominator(pp, w)

    def cell(k, l):
        t1 = h[k - 1, l] / h[k - 1, 0] * bt[k - 1][l]
        t2 = (1 - h[k, l - 1]) / (1 - h[0, l - 1]) * bt[k][l - 1]
        return relative_residual(bt[k][l], t1 + t2, abs(t1), abs(t2))

    return worst_residual(cell(k, l) for k in range(1, m + 1) for l in range(1, n + 1))
