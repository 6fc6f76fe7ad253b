"""Weighted monotone lattice paths on the rectangle {0..m+1} x {0..n+1}.

Three independent routes to the endpoint generating function A(k, l) are
provided: brute-force summation over bit-encoded paths, the two-term
recurrence

    A(k, l) = h(k-1, l) A(k-1, l) + (1 - h(k, l-1)) A(k, l-1)

with boundary products, and fully factorised closed forms.  The module
also carries the normalised table B(k, l) = A(k, l)/(A(k, 0) A(0, l)),
its closed form, and the partition of unity

    1 = sum_k (1 - h(k, n)) A(k, n) + sum_l h(m, l) A(m, l)

obtained by splitting paths at their last free step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import combinations

from .errors import CapExceededError, HConditionError, OutOfRegionError
from .params import IdentitySize, ParamPoint
from .special import DENOMINATOR_GUARD, relative_residual, theta_ratio, worst_residual
from .weights import ZERO_SHIFT, elliptic_weight, h_table

#: Endpoints with m + n beyond this are refused by the brute-force routes.
BRUTE_FORCE_CAP = 12


@lru_cache(maxsize=None)
def _bit_paths(east: int, north: int) -> tuple[tuple[int, ...], ...]:
    """Every monotone path with the given step counts as a bit sequence,
    east = 1, north = 0."""
    length = east + north
    out = []
    for pos in combinations(range(length), east):
        bits = [0] * length
        for t in pos:
            bits[t] = 1
        out.append(tuple(bits))
    return tuple(out)


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
    """Weight of every monotone path with the given step counts, in the
    order of :func:`_bit_paths`.  An east step at (i, j) carries h(i, j)
    and a north step 1 - h(i, j) while (i, j) lies in the weight grid
    {0..m} x {0..n}; steps beyond it carry 1."""
    if m + n > BRUTE_FORCE_CAP:
        raise CapExceededError(f"m + n = {m + n} exceeds cap {BRUTE_FORCE_CAP}")
    h = h_table(pp, m, n)
    for bits in _bit_paths(east, north):
        acc = 1
        i = j = 0
        for s in bits:
            if s:
                if j <= n:
                    acc = acc * h[i][j]
                i += 1
            else:
                if i <= m:
                    acc = acc * (1 - h[i][j])
                j += 1
        yield acc


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
    tables are produced by genuinely different recursions.
    """
    m, n = size.m, size.n
    h = h_table(pp, m, n)
    for i in range(m + 1):
        if abs(h[i][0]) <= DENOMINATOR_GUARD:
            raise HConditionError(f"h({i}, 0) vanished")
    for j in range(n + 1):
        if abs(1 - h[0][j]) <= DENOMINATOR_GUARD:
            raise HConditionError(f"1 - h(0, {j}) vanished")

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


def b_closed(pp: ParamPoint, k: int, l: int, shift=ZERO_SHIFT):
    """Closed form of the normalised table:

        B(k, l) = theta((a/b) q^(k-l), b/a; p) (bc q^l; q, p)_k
                  (ac q^k, ab, cx, c/x, q^(k+1); q, p)_l
                / [theta((a/b) q^k, (b/a) q^l; p) (bc; q, p)_k
                   (ac, ab q^k, cx q^k, (c/x) q^k, q; q, p)_l] * q^l.

    The l = 0 boundary is the system's boundary condition B(k, 0) = 1 and
    is returned exactly; at k = 0 the value is computed (the factors only
    cancel through the theta inversion identity there).  ``shift`` reads
    B at (a q^alpha, b q^beta, c q^gamma), as the weights read h.
    """
    if k < 0 or l < 0:
        raise OutOfRegionError("table indices must be nonnegative")
    if l == 0:
        return 1
    x, a, b, c, q = pp.x, pp.a, pp.b, pp.c, pp.q
    al, be, ga = shift
    lad = pp.thetas
    a_b, b_a, bc, ac = lad[a / b], lad[b / a], lad[b * c], lad[a * c]
    ab, cx, c_x, qq = lad[a * b], lad[c * x], lad[c / x], lad[q]
    num = ((ac, al + ga + k, l), (qq, k, l), (ab, al + be, l), (cx, ga, l),
           (c_x, ga, l), (bc, be + ga + l, k), (a_b, al - be + k - l, 1), (b_a, be - al, 1))
    den = ((ab, al + be + k, l), (cx, ga + k, l), (ac, al + ga, l), (qq, 0, l),
           (bc, be + ga, k), (c_x, ga + k, l), (a_b, al - be + k, 1), (b_a, be - al + l, 1))
    return theta_ratio(num, den) * q**l


def a_closed(pp: ParamPoint, k: int, l: int):
    """First factorised closed form of A(k, l):

        A(k, l) = theta((a/b) q^(k-l); p) (bc q^l, c/b, ax, a/x; q, p)_k
                  (q^(k+1), ac q^k, c/a, bx, b/x; q, p)_l
                / [(a/b; q, p)_(k+1) (q, qb/a; q, p)_l
                   (ab, cx, c/x; q, p)_(k+l)] * q^l.
    """
    if k < 0 or l < 0:
        raise OutOfRegionError("table indices must be nonnegative")
    x, a, b, c, q = pp.x, pp.a, pp.b, pp.c, pp.q
    lad = pp.thetas
    a_b, b_a, bc, cb = lad[a / b], lad[b / a], lad[b * c], lad[c / b]
    ax, a_x, bx, b_x = lad[a * x], lad[a / x], lad[b * x], lad[b / x]
    ac, c_a, qq = lad[a * c], lad[c / a], lad[q]
    ab, cx, c_x = lad[a * b], lad[c * x], lad[c / x]
    num = ((cb, 0, k), (ax, 0, k), (a_x, 0, k), (ac, k, l), (qq, k, l),
           (c_a, 0, l), (bx, 0, l), (b_x, 0, l), (bc, l, k), (a_b, k - l, 1))
    den = ((ab, 0, k), (cx, 0, k), (c_x, 0, k), (ab, k, l), (cx, k, l),
           (qq, 0, l), (b_a, 1, l), (a_b, 0, k), (c_x, k, l), (a_b, k, 1))
    return theta_ratio(num, den) * q**l


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
    x, a, b, c, q = pp.x, pp.a, pp.b, pp.c, pp.q
    lad = pp.thetas
    a_b, b_a, bc, cb = lad[a / b], lad[b / a], lad[b * c], lad[c / b]
    ax, a_x, bx, b_x = lad[a * x], lad[a / x], lad[b * x], lad[b / x]
    ac, c_a, qq = lad[a * c], lad[c / a], lad[q]
    ab, cx, c_x = lad[a * b], lad[c * x], lad[c / x]
    num = ((cb, 0, k), (ax, 0, k), (a_x, 0, k), (ac, k, l), (qq, l, k),
           (c_a, 0, l), (bx, 0, l), (b_x, 0, l), (bc, l, k), (b_a, l - k, 1))
    den = ((ab, 0, k), (cx, 0, k), (c_x, 0, k), (ab, k, l), (qq, 0, k),
           (cx, k, l), (c_x, k, l), (b_a, 0, l), (a_b, 1, k), (b_a, l, 1))
    return theta_ratio(num, den) * q**k


def master_equality_total(pp: ParamPoint, size: IdentitySize):
    """The boundary split sum_k (1 - h(k, n)) A(k, n) + sum_l h(m, l) A(m, l)
    with A taken from the closed form; equals 1 when the identity holds."""
    m, n = size.m, size.n
    total = 0
    scale = 0.0
    for k in range(m + 1):
        term = (1 - elliptic_weight(pp, k, n)) * a_closed(pp, k, n)
        total = total + term
        scale = max(scale, abs(term))
    for l in range(n + 1):
        term = elliptic_weight(pp, m, l) * a_closed(pp, m, l)
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
    cells and the weights read the point's theta store, so the check
    costs O(m + n) theta calls."""
    m, n = size.m, size.n
    bt = [[b_closed(pp, k, l) for l in range(n + 1)] for k in range(m + 1)]
    h = cache(partial(elliptic_weight, pp))

    def cell(k, l):
        t1 = h(k - 1, l) / h(k - 1, 0) * bt[k - 1][l]
        t2 = (1 - h(k, l - 1)) / (1 - h(0, l - 1)) * bt[k][l - 1]
        return relative_residual(bt[k][l], t1 + t2, abs(t1), abs(t2))

    return worst_residual(cell(k, l) for k in range(1, m + 1) for l in range(1, n + 1))
