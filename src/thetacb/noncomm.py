"""Normal-form engines for three non-commutative X, Y algebras and the
binomial/convolution identities they satisfy.

Each algebra is generated by X, Y over a commutative coefficient field,
with a reordering rule Y X = w * X Y and substitution rules describing how
X and Y commute past a coefficient:

    q-commuting:      w = q,            coefficients are constants
    (a, b)-elliptic:  w = W(1, 1),      X f(a, b) = f(aq, bq^2) X,
                                        Y f(a, b) = f(aq^2, bq) Y
    (x,a,b,c)-elliptic: w = H(0, 1),    X f = f(x, aq, b, cq) X,
                                        Y f = f(x, a, bq, cq) Y

Every element has a unique normal form sum f_kl X^k Y^l, and is evaluated
as numbers at one parameter point.  A coefficient is a function
(evaluator, shift) -> value, where the integer substitution state
``shift`` = (alpha, beta, gamma) stands for (a, b, c) -> (a q^alpha,
b q^beta, c q^gamma); an element is a function (evaluator, shift) -> its
list of ((k, l), f_kl) sorted by (k, l).  Moving a generator past a
coefficient is a shift update, so the commutation rules stay auditably
exact: :func:`nf_mul`, the one product loop, evaluates the right factor
at the shift moved past the left factor's monomial.  A leaf passes its
state to its kernel, which reads the point's own theta ladders at offset
indices (see ``weights``), so every state shares the one point's ladders.
An :class:`Evaluator` memoises the leaves, the reorder coefficients and
the powers of the binomial base of one algebra at one point by shift.
"""

from __future__ import annotations

import enum
import math
from functools import reduce
from operator import mul
from typing import Callable, NamedTuple

from .lattice import b_closed
from .params import ParamPoint
from .special import (qbinom, relative_residual, series_with_running_products, theta_ratio,
                      worst_residual)
from .weights import ZERO_SHIFT, binomial_weight, elliptic_weight, normalized_weight

#: Coefficients below this fraction of the row maximum count as structural
#: zeros when two normal forms are compared.
STRUCTURAL_ZERO = 1e-14


# ---------------------------------------------------------------------------
# Elliptic binomial coefficients of both kinds.

def elliptic_binomial(pp: ParamPoint, n: int, k: int, shift=ZERO_SHIFT):
    """Two-parameter elliptic binomial coefficient at the point's a, b, q
    and p, read off its theta store:

        [n, k]_(a,b) = (q^(1+k), a q^(1+k), b q^(1+k), a q^(1-k)/b; q, p)_(n-k)
                     / (q, aq, b q^(1+2k), aq/b; q, p)_(n-k),

    zero outside 0 <= k <= n and exactly 1 on the boundary (coded, not
    computed).  Reduces to [n, k]_q under p -> 0, a -> 0, then b -> 0.
    ``shift`` reads it at (a q^alpha, b q^beta).
    """
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    a, b, q = pp.a, pp.b, pp.q
    al, be, _ = shift
    lad = pp.thetas
    qq, la, lb, a_b = lad[q], lad[a], lad[b], lad[a / b]
    t, d = n - k, al - be
    return theta_ratio(((qq, k, t), (la, al + 1 + k, t), (lb, be + 1 + k, t), (a_b, d + 1 - k, t)),
                       ((qq, 0, t), (la, al + 1, t), (lb, be + 1 + 2 * k, t), (a_b, d + 1, t)))


def path_binomial(pp: ParamPoint, n: int, k: int, shift=ZERO_SHIFT):
    """Four-parameter elliptic binomial coefficient: the normalised
    generating function B(k, n-k) of weighted paths to (k, n-k) at ``shift``
    (:func:`lattice.b_closed`); zero outside 0 <= k <= n, exactly 1 on the boundary."""
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return b_closed(pp, k, n - k, shift)


# ---------------------------------------------------------------------------
# Coefficients: functions (evaluator, shift) -> value, the field element at
# the evaluator's point under (a, b, c) -> (a q^alpha, b q^beta, c q^gamma).

def _one(ev: "Evaluator", shift) -> int:
    """The coefficient 1."""
    return 1


def _leaf(key: tuple, kernel: Callable) -> Callable:
    """The coefficient kernel(pp, shift), memoised by the evaluator under ``key``."""
    return lambda ev, shift: ev.leaf(key, kernel, shift)


def _product(*factors: Callable) -> Callable:
    """The coefficient f1 f2 ... fk, multiplied left to right, leaving out
    factors :func:`_one`."""
    factors = [f for f in factors if f is not _one]
    if len(factors) < 2:
        return factors[0] if factors else _one
    return lambda ev, shift: reduce(mul, [f(ev, shift) for f in factors])


def coeff_qpow(e: int) -> Callable:
    """The constant q^e (unaffected by substitution of a, b, c)."""
    return _leaf(("qpow", e), lambda pp, s: pp.q**e)


def coeff_h(i: int, j: int, swap: bool = False) -> Callable:
    """The lattice weight h(i, j) as a field element; ``swap`` reads the
    weight with the roles of a and b exchanged (after substitution)."""
    return _leaf(("h", i, j, swap), lambda pp, s: elliptic_weight(pp, i, j, s, swap))


def coeff_big_h(i: int, j: int, swap: bool = False) -> Callable:
    """The normalised weight H(i, j) as a field element."""
    return _leaf(("H", i, j, swap), lambda pp, s: normalized_weight(pp, i, j, s, swap))


def coeff_path_binomial(n: int, k: int) -> Callable:
    """The four-parameter elliptic binomial as a field element."""
    return _leaf(("pbin", n, k), lambda pp, s: path_binomial(pp, n, k, s))


def coeff_elliptic_binomial(n: int, k: int) -> Callable:
    """The two-parameter elliptic binomial as a field element."""
    return _leaf(("wbin", n, k), lambda pp, s: elliptic_binomial(pp, n, k, s))


def coeff_qbinom(n: int, k: int) -> Callable:
    """The constant q-binomial [n, k]_q."""
    return _leaf(("qbinom", n, k), lambda pp, s: qbinom(n, k, pp.q))


def coeff_binomial_weight(s_idx: int, t_idx: int) -> Callable:
    """The recursion weight W(s, t) as a field element."""
    return _leaf(("W", s_idx, t_idx), lambda pp, s: binomial_weight(pp, s_idx, t_idx, s))


def _swap_product(count: int, start: int = 0, row: int = 0) -> Callable:
    """prod_{s<count} h~(start + s, row) as a field element."""
    return _product(*(coeff_h(start + s, row, swap=True) for s in range(count)))


# ---------------------------------------------------------------------------
# The three algebras and normal forms.  An element is a function
# (evaluator, shift) -> its normal form sum f_kl X^k Y^l at that shift, as
# the list of ((k, l), f_kl) sorted by (k, l).

class AlgebraTag(enum.Enum):
    Q_COMMUTING = "q_commuting"
    ELLIPTIC_AB = "elliptic_ab"
    ELLIPTIC_XABC = "elliptic_xabc"


class _Algebra(NamedTuple):
    """One algebra's row of :data:`_RULES`: its commutation rules, its
    binomial with its Pascal weights, and the closed coefficients, each a
    coefficient (evaluator, shift) -> value."""

    dx: tuple[int, int, int]  # shift of X past a coefficient
    dy: tuple[int, int, int]  # shift of Y past a coefficient
    w: Callable  # Y X = w X Y
    y: Callable  # binomial_base = X + y Y
    binom: Callable[[int, int], Callable]  # (n, k) -> the binomial coefficient
    pascal: Callable[[int, int], tuple[Callable, Callable]]  # (n, k) -> Pascal weights
    tail: Callable[[int], Callable]  # n - k -> the factor of closed(n, k) after binom(n, k)
    left: Callable[[int, int], Callable]  # (n, k) -> weight of the first homogeneous sum
    right: Callable[[int, int], Callable]  # (m, k) -> weight of the second

    def closed(self, n: int, k: int) -> Callable:
        """The X^k Y^(n-k) coefficient of binomial_base^n."""
        return _product(self.binom(n, k), self.tail(n - k))

    def move(self, shift: tuple[int, int, int], k: int, l: int) -> tuple[int, int, int]:
        """``shift`` after moving past X^k Y^l: shift + k dx + l dy."""
        dx, dy = self.dx, self.dy
        return (shift[0] + k * dx[0] + l * dy[0], shift[1] + k * dx[1] + l * dy[1],
                shift[2] + k * dx[2] + l * dy[2])


#: tag -> the algebra's row.  :func:`pascal_residual` checks its Pascal rule.
#: The homogeneous sums (:func:`_homogeneous_rhs`) are scaled by
#: closed(n+k, k) left(n, k) and closed(m+k, m) right(m, k).
#: The q-commuting pair is the paper's [n+k, k]_q q^(-(n+1)k) and
#: [m+k, k]_(1/q) q^((m+1)k), with Y^(n+1) moved past X^k (a factor
#: q^((n+1)k)) and [m+k, k]_(1/q) = q^(-mk) [m+k, k]_q.  In the
#: four-parameter algebra the first sum splits each word at its (n+1)-th Y
#: and the second at its (m+1)-th X; moving that X past the k leading Y's
#: of the tail costs the telescoped reorder factor H(m, k).
_RULES = {
    AlgebraTag.Q_COMMUTING: _Algebra(
        ZERO_SHIFT, ZERO_SHIFT, coeff_qpow(1), _one, coeff_qbinom,
        lambda n, k: (coeff_qpow(n + 1 - k), _one), lambda count: _one,
        lambda n, k: _one, lambda m, k: coeff_qpow(k)),
    AlgebraTag.ELLIPTIC_AB: _Algebra(
        (1, 2, 0), (2, 1, 0), coeff_binomial_weight(1, 1), _one, coeff_elliptic_binomial,
        lambda n, k: (coeff_binomial_weight(k, n + 1 - k), _one), lambda count: _one,
        lambda n, k: _one, lambda m, k: coeff_binomial_weight(m + 1, k)),
    AlgebraTag.ELLIPTIC_XABC: _Algebra(
        (1, 0, 1), (0, 1, 1), coeff_big_h(0, 1), coeff_h(0, 0, swap=True), coeff_path_binomial,
        lambda n, k: (coeff_big_h(k - 1, n + 1 - k), coeff_big_h(n - k, k, swap=True)),
        _swap_product, lambda n, k: coeff_h(n, k, swap=True),
        lambda m, k: coeff_big_h(m, k) if k else _one),
}


class Evaluator:
    """One algebra's coefficients and normal forms at one parameter point.

    ``memo`` maps (key, shift) to each value computed at that shift: a
    leaf under its kernel key, a reorder coefficient under ("reorder", s,
    r) and a power of the binomial base under ("power", j), so each is
    computed once per point and substitution state."""

    def __init__(self, tag: AlgebraTag, pp: ParamPoint):
        self.tag = tag
        self.row = _RULES[tag]
        self.pp = pp
        self.memo: dict = {}

    def leaf(self, key: tuple, kernel: Callable, shift):
        """kernel(pp, shift), memoised under (key, shift)."""
        value = self.memo.get((key, shift))
        if value is None:
            value = self.memo[key, shift] = kernel(self.pp, shift)
        return value

    def reorder(self, s: int, r: int, shift=ZERO_SHIFT):
        """C(s, r) at ``shift``, where Y^s X^r = C(s, r) X^r Y^s (s, r >= 1):
        built from the elementary rule alone, the product over j < s, i < r
        of w moved past X^i Y^j; q^(sr) in the q-commuting algebra."""
        key = (("reorder", s, r), shift)
        value = self.memo.get(key)
        if value is None:
            if self.tag is AlgebraTag.Q_COMMUTING:
                value = self.pp.q ** (s * r)
            else:
                row = self.row
                value = reduce(mul, [row.w(self, row.move(shift, i, j))
                                     for j in range(s) for i in range(r)])
            self.memo[key] = value
        return value

    def power(self, j: int, shift=ZERO_SHIFT) -> list:
        """binomial_base^j at ``shift``: the (j-1)-th power times the base."""
        key = (("power", j), shift)
        terms = self.memo.get(key)
        if terms is None:
            terms = [((0, 0), 1)] if j == 0 else nf_mul(self, self.power(j - 1, shift),
                                                        binomial_base, shift)
            self.memo[key] = terms
        return terms


def nf_mul(ev: Evaluator, left: list, right: Callable, shift=ZERO_SHIFT) -> list:
    """Normal form of a product at ``shift``: ``left`` is the left factor's
    sorted list there, ``right`` the right factor as an element.  Every
    cross term

        f X^k1 Y^l1 * g X^k2 Y^l2
            = f * g[shift k1*dX + l1*dY] * C(l1, k2)[shift k1*dX]
              X^(k1+k2) Y^(l1+l2)

    commutes the right factor past X^k1 Y^l1 by evaluating it at the moved
    shift, and the reorder coefficient past X^k1.  Each term is f * g, then
    times C; a monomial's terms are summed in the order they arise."""
    row = ev.row
    out: dict = {}
    for (k1, l1), f in left:
        xmove = row.move(shift, k1, 0)
        for (k2, l2), g in right(ev, row.move(xmove, 0, l1)):
            c = f * g
            if l1 and k2:
                c = c * ev.reorder(l1, k2, xmove)
            key = (k1 + k2, l1 + l2)
            out[key] = out[key] + c if key in out else c
    return sorted(out.items())


def evaluate_element(ev: Evaluator, element: Callable, shift=ZERO_SHIFT) -> dict:
    """Numeric normal-form coefficients {(k, l): value} of ``element`` at the
    evaluator's point and ``shift``."""
    return dict(element(ev, shift))


def binomial_base(ev: Evaluator, shift) -> list:
    """The binomial whose powers have factorising normal forms, X + y Y
    with the row's y: X + Y in the q-commuting and (a, b)-elliptic
    algebras, X + h~(0,0) Y in the four-parameter algebra (h~ is the
    weight with a and b exchanged)."""
    return [((0, 1), ev.row.y(ev, shift)), ((1, 0), 1)]


def _power(j: int) -> Callable:
    """The element binomial_base^j (:meth:`Evaluator.power`)."""
    return lambda ev, shift: ev.power(j, shift)


def closed_binomial(n: int) -> Callable:
    """The factorised normal form the binomial theorem asserts for
    binomial_base^n, as an element: the row's closed(n, k) at X^k Y^(n-k)."""
    return lambda ev, shift: [((k, n - k), ev.row.closed(n, k)(ev, shift))
                              for k in range(n + 1)]


def compare_maps(map1: dict, map2: dict) -> float:
    """Worst relative gap between two coefficient maps; entries below
    STRUCTURAL_ZERO of the row maximum count as structural zeros.  NaN
    when any coefficient is inf or NaN, which the row maximum would hide."""
    keys = set(map1) | set(map2)
    if not keys:
        return 0.0
    mags = [abs(v) for v in (*map1.values(), *map2.values())]
    if not all(mag < math.inf for mag in mags):
        return math.nan
    row = max(mags)
    if row == 0:
        return 0.0
    gaps = []
    for key in keys:
        v1 = map1.get(key, 0)
        v2 = map2.get(key, 0)
        big = max(abs(v1), abs(v2))
        if big <= STRUCTURAL_ZERO * row:
            continue
        gaps.append(float(abs(v1 - v2) / big))
    return worst_residual(gaps)


# ---------------------------------------------------------------------------
# Verification drivers.

def binomial_theorem_residual(tag: AlgebraTag, pp: ParamPoint, n: int) -> float:
    """Worst relative gap between the normal form of binomial_base^n,
    expanded by repeated multiplication, and :func:`closed_binomial`, the
    two evaluated by one evaluator."""
    ev = Evaluator(tag, pp)
    return compare_maps(evaluate_element(ev, _power(n)),
                        evaluate_element(ev, closed_binomial(n)))


def pascal_residual(tag: AlgebraTag, pp: ParamPoint, n: int) -> float:
    """Worst relative gap over 0 <= k <= n+1 of the lattice-path split at
    the last step, binom(n+1, k) = binom(n, k-1) u + binom(n, k) v with
    (u, v) = pascal(n, k), evaluated by one evaluator.  A term whose
    binomial lies outside 0..n is left out, so no weight outside the grid
    is read."""
    ev = Evaluator(tag, pp)
    row = ev.row

    def value(coeff):
        return coeff(ev, ZERO_SHIFT)

    gaps = []
    for k in range(n + 2):
        u, v = row.pascal(n, k)
        rhs = value(row.binom(n, k - 1)) * value(u) if k else 0
        if k <= n:
            rhs = rhs + value(row.binom(n, k)) * value(v)
        gaps.append(relative_residual(value(row.binom(n + 1, k)), rhs))
    return worst_residual(gaps)


def _homogeneous_rhs(m: int, n: int) -> Callable:
    """Right-hand side of the homogeneous two-sum expansion of
    binomial_base^(m+n+1), as an element,

        sum_{k<=m} closed(n+k, k) left(n, k) X^k Y^(n+1) base^(m-k)
          + sum_{k<=n} closed(m+k, m) right(m, k) X^(m+1) Y^k base^(n-k),

    with the evaluator's row of :data:`_RULES`.  Each term is the monomial
    times the power, then scaled by its weight."""
    def element(ev, shift):
        row = ev.row
        terms = [(k, n + 1, m - k, _product(row.closed(n + k, k), row.left(n, k)))
                 for k in range(m + 1)]
        terms += [(m + 1, k, n - k, _product(row.closed(m + k, m), row.right(m, k)))
                  for k in range(n + 1)]
        out: dict = {}
        for k, l, j, weight in terms:
            scale = weight(ev, shift)
            for key, c in nf_mul(ev, [((k, l), 1)], _power(j), shift):
                out[key] = out[key] + scale * c if key in out else scale * c
        return sorted(out.items())

    return element


def _qcomm_swap_image(values: dict, q) -> dict:
    """Numeric image of a q-commuting normal form under X <-> Y with the
    base inverted: X^k Y^l evaluated at 1/q maps to q^(k l) X^l Y^k."""
    return {(l, k): v * q ** (k * l) for (k, l), v in values.items()}


def homogeneous_cb_residual(tag: AlgebraTag, pp: ParamPoint, m: int, n: int) -> float:
    """Worst relative gap between the normal forms of the two sides of the
    homogeneous two-sum identity for binomial_base^(m+n+1).

    For the q-commuting algebra the identity is additionally invariant
    under (X, Y, q, m, n) -> (Y, X, 1/q, n, m); the check maps both sides
    at (1/q, n, m) through the swap isomorphism and compares them with the
    direct expansions.
    """
    ev = Evaluator(tag, pp)
    lhs_values = evaluate_element(ev, _power(m + n + 1))
    rhs_values = evaluate_element(ev, _homogeneous_rhs(m, n))
    residual = compare_maps(lhs_values, rhs_values)
    if tag is not AlgebraTag.Q_COMMUTING:
        return residual

    ev_inv = Evaluator(tag, pp.replace(q=1 / pp.q))
    lhs_img = _qcomm_swap_image(evaluate_element(ev_inv, _power(m + n + 1)), pp.q)
    rhs_img = _qcomm_swap_image(evaluate_element(ev_inv, _homogeneous_rhs(n, m)), pp.q)
    return worst_residual((residual, compare_maps(lhs_img, lhs_values),
                           compare_maps(rhs_img, rhs_values)))


# ---------------------------------------------------------------------------
# Convolution and the terminating very-well-poised sum.

def convolution_residual(pp: ParamPoint, n: int, m: int, k: int,
                         ev: Evaluator | None = None) -> float:
    """Residual of the elliptic binomial convolution

        [n+m, k] prod_{j<n+m-k} h~(j, 0)
          = sum_j [n, j] [m, k-j]@(a q^j, b q^(n-j), c q^n)
            prod_{l<n-j} h~(l, 0) prod_{s<m+j-k} h~(s+n-j, j)
            prod_{i<k-j} H(i+j, n-j),

    which splits a (n+m)-step binomial expansion at step n.  Both sides
    are built from the four-parameter row's leaves, read by one evaluator:
    ``ev``, an evaluator of that row at pp, which the calls for every k of
    one (n, m) can share, or a fresh one.
    """
    if k < 0 or k > n + m:
        raise ValueError("need 0 <= k <= n + m")
    if ev is None:
        ev = Evaluator(AlgebraTag.ELLIPTIC_XABC, pp)

    def value(coeff, shift=ZERO_SHIFT):
        return coeff(ev, shift)

    lhs = value(ev.row.closed(n + m, k))
    total = 0
    scale = abs(lhs)
    for j in range(max(0, k - m), min(k, n) + 1):
        term = math.prod([value(coeff_path_binomial(n, j)),
                          value(coeff_path_binomial(m, k - j), (j, n - j, n)),
                          value(_swap_product(n - j)), value(_swap_product(m + j - k, n - j, j)),
                          *(value(coeff_big_h(i + j, n - j)) for i in range(k - j))])
        total = total + term
        scale = max(scale, abs(term))
    return float(abs(lhs - total) / max(1.0, scale))


def convolution_nf_cross_check(pp: ParamPoint, n: int, m: int, k: int) -> float:
    """The proof route: the (k, n+m-k) coefficient of the product of the
    n-th and m-th binomial powers must match the one of the (n+m)-th."""
    ev = Evaluator(AlgebraTag.ELLIPTIC_XABC, pp)
    key = (k, n + m - k)
    prod = dict(nf_mul(ev, ev.power(n), _power(m)))
    return relative_residual(prod.get(key, 0), dict(ev.power(n + m)).get(key, 0))


def frenkel_turaev(pp: ParamPoint, n: int):
    """Both sides of the terminating very-well-poised 10V9 summation at
    (a, b, c, d) = (pp.a, pp.b, pp.c, pp.x), with e = a^2 q^(n+1) / (bcd)
    enforcing the balancing condition:

        sum_{k<=n} theta(a q^(2k); p)/theta(a; p)
            * (a, b, c, d, e, q^-n; q, p)_k
            / (q, aq/b, aq/c, aq/d, aq/e, a q^(n+1); q, p)_k * q^k
        = (aq, aq/bc, aq/bd, aq/cd; q, p)_n
        / (aq/b, aq/c, aq/d, aq/bcd; q, p)_n.

    Every theta is read from the point's store (``pp.thetas``) as the sum
    and the ratio reach it.  Returns (lhs, rhs, scale), ``scale`` the
    largest term magnitude of the sum.
    """
    a, b, c, d, q = pp.a, pp.b, pp.c, pp.x, pp.q
    e = a * a * q ** (n + 1) / (b * c * d)
    lad = pp.thetas
    la, a_b, a_c, a_d = lad[a], lad[a / b], lad[a / c], lad[a / d]
    num = ((la, 0), (lad[b], 0), (lad[c], 0), (lad[d], 0), (lad[e], 0), (lad[q], -n - 1))
    den = ((lad[q], 0), (a_b, 1), (a_c, 1), (a_d, 1), (lad[a / e], 1), (la, n + 1))
    rhs_num = ((la, 1, n), (lad[a / (b * c)], 1, n), (lad[a / (b * d)], 1, n),
               (lad[a / (c * d)], 1, n))
    rhs_den = ((a_b, 1, n), (a_c, 1, n), (a_d, 1, n), (lad[a / (b * c * d)], 1, n))
    th_a = la.den(0)
    lhs, scale = series_with_running_products(num, den, q, n, lambda k: la[2 * k] / th_a)
    return lhs, theta_ratio(rhs_num, rhs_den), scale


def frenkel_turaev_from_convolution(pp: ParamPoint, n: int, m: int, k: int):
    """The parameter list under which the convolution formula becomes a
    terminating very-well-poised sum: evaluate that sum at

        (a, b, c, d, n) -> (a q^-n / b, a c q^(n+m), q^(1-n)/(b c),
                            a q^(k-n-m) / b, k),

    on the point with (a, b, c, x) replaced, which shares pp's store;
    returns that sum's (lhs, rhs, scale).
    """
    a, b, c, q = pp.a, pp.b, pp.c, pp.q
    return frenkel_turaev(pp.replace(a=a * q ** (-n) / b,
                                     b=a * c * q ** (n + m),
                                     c=q ** (1 - n) / (b * c),
                                     x=a * q ** (k - n - m) / b), k)
