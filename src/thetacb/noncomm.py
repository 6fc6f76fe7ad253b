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

Every element has a unique normal form sum f_kl X^k Y^l.  Coefficients are
kept as lazy expression trees carrying an integer substitution state
(alpha, beta, gamma) for (a, b, c) -> (a q^alpha, b q^beta, c q^gamma), so
moving a generator past a coefficient is an O(1) shift update and the
commutation rules stay auditably exact; numbers appear only when a
normal form is evaluated at a parameter point.  A leaf then passes its
state to its kernel as ``shift``, and the kernel reads the point's own
theta ladders at offset indices (see ``weights``), so every state shares
the one point's ladders.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
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
# Lazy coefficients with substitution state.

class _Const:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Leaf:
    __slots__ = ("key", "fn")

    def __init__(self, key, fn):
        self.key = key
        self.fn = fn


class _Prod:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class _Sum:
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


@dataclass(frozen=True)
class Coefficient:
    """A member of the coefficient field: an expression tree plus the
    pending substitution (a, b, c) -> (a q^alpha, b q^beta, c q^gamma).
    Shifts compose additively and distribute over products and sums."""

    node: object
    shift: tuple[int, int, int] = ZERO_SHIFT

    def shifted(self, delta: tuple[int, int, int]) -> "Coefficient":
        if delta == ZERO_SHIFT:
            return self
        s = self.shift
        return Coefficient(self.node, (s[0] + delta[0], s[1] + delta[1], s[2] + delta[2]))

    def is_zero(self) -> bool:
        return isinstance(self.node, _Const) and self.node.value == 0

    def __mul__(self, other: "Coefficient") -> "Coefficient":
        if isinstance(self.node, _Const) and self.shift == ZERO_SHIFT:
            if self.node.value == 0:
                return self
            if self.node.value == 1:
                return other
        if isinstance(other.node, _Const) and other.shift == ZERO_SHIFT:
            if other.node.value == 0:
                return other
            if other.node.value == 1:
                return self
        return Coefficient(_Prod(self, other))

    def __add__(self, other: "Coefficient") -> "Coefficient":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return Coefficient(_Sum((self, other)))


def coeff_const(value) -> Coefficient:
    return Coefficient(_Const(value))


COEFF_ONE = coeff_const(1)
COEFF_ZERO = coeff_const(0)


@lru_cache(maxsize=None)
def coeff_qpow(e: int) -> Coefficient:
    """The constant q^e (unaffected by substitution of a, b, c)."""
    return Coefficient(_Leaf(("qpow", e), lambda pp, s: pp.q**e))


@lru_cache(maxsize=None)
def coeff_h(i: int, j: int, swap: bool = False) -> Coefficient:
    """The lattice weight h(i, j) as a field element; ``swap`` reads the
    weight with the roles of a and b exchanged (after substitution)."""
    return Coefficient(_Leaf(("h", i, j, swap), lambda pp, s: elliptic_weight(pp, i, j, s, swap)))


@lru_cache(maxsize=None)
def coeff_big_h(i: int, j: int, swap: bool = False) -> Coefficient:
    """The normalised weight H(i, j) as a field element."""
    return Coefficient(_Leaf(("H", i, j, swap),
                             lambda pp, s: normalized_weight(pp, i, j, s, swap)))


@lru_cache(maxsize=None)
def coeff_path_binomial(n: int, k: int) -> Coefficient:
    """The four-parameter elliptic binomial as a field element."""
    return Coefficient(_Leaf(("pbin", n, k), lambda pp, s: path_binomial(pp, n, k, s)))


@lru_cache(maxsize=None)
def coeff_elliptic_binomial(n: int, k: int) -> Coefficient:
    """The two-parameter elliptic binomial as a field element."""
    return Coefficient(_Leaf(("wbin", n, k), lambda pp, s: elliptic_binomial(pp, n, k, s)))


@lru_cache(maxsize=None)
def coeff_qbinom(n: int, k: int) -> Coefficient:
    """The constant q-binomial [n, k]_q."""
    return Coefficient(_Leaf(("qbinom", n, k), lambda pp, s: qbinom(n, k, pp.q)))


@lru_cache(maxsize=None)
def coeff_binomial_weight(s_idx: int, t_idx: int) -> Coefficient:
    """The recursion weight W(s, t) as a field element."""
    return Coefficient(_Leaf(("W", s_idx, t_idx),
                             lambda pp, s: binomial_weight(pp, s_idx, t_idx, s)))


def _coeff_swap_product(count: int, start: int = 0, row: int = 0) -> Coefficient:
    """prod_{s<count} h~(start + s, row) as a field element."""
    out = COEFF_ONE
    for s in range(count):
        out = out * coeff_h(start + s, row, swap=True)
    return out


class EvalContext:
    """Memoised evaluator for coefficient trees at one parameter point.

    Leaves are cached by (key, total shift) so repeated theta-heavy
    weights are computed once per substitution state; composite nodes are
    cached by identity, which is safe because the context keeps every
    cached node alive.
    """

    def __init__(self, pp: ParamPoint):
        self.pp = pp
        self._memo: dict = {}

    def value(self, coeff: Coefficient, outer: tuple[int, int, int] = ZERO_SHIFT):
        s = coeff.shift
        total = (outer[0] + s[0], outer[1] + s[1], outer[2] + s[2])
        node = coeff.node
        if isinstance(node, _Const):
            return node.value
        if isinstance(node, _Leaf):
            key = (node.key, total)
        else:
            key = (id(node), total)
        hit = self._memo.get(key)
        if hit is not None:
            return hit[1]
        if isinstance(node, _Leaf):
            val = node.fn(self.pp, total)
        elif isinstance(node, _Prod):
            val = self.value(node.left, total) * self.value(node.right, total)
        else:
            val = 0
            for part in node.parts:
                val = val + self.value(part, total)
        self._memo[key] = (node, val)
        return val


# ---------------------------------------------------------------------------
# The three algebras and normal forms.

class AlgebraTag(enum.Enum):
    Q_COMMUTING = "q_commuting"
    ELLIPTIC_AB = "elliptic_ab"
    ELLIPTIC_XABC = "elliptic_xabc"


class _Algebra(NamedTuple):
    """One algebra's row of :data:`_RULES`: its commutation rules, its
    binomial with its Pascal weights, and the closed coefficients."""

    dx: tuple[int, int, int]  # shift of X past a coefficient
    dy: tuple[int, int, int]  # shift of Y past a coefficient
    w: Coefficient  # Y X = w X Y
    y: Coefficient  # binomial_base = X + y Y
    binom: Callable[[int, int], Coefficient]  # (n, k) -> the binomial coefficient
    pascal: Callable[[int, int], tuple[Coefficient, Coefficient]]  # (n, k) -> Pascal weights
    tail: Callable[[int], Coefficient]  # n - k -> the factor of closed(n, k) after binom(n, k)
    left: Callable[[int, int], Coefficient]  # (n, k) -> weight of the first homogeneous sum
    right: Callable[[int, int], Coefficient]  # (m, k) -> weight of the second

    def closed(self, n: int, k: int) -> Coefficient:
        """The X^k Y^(n-k) coefficient of binomial_base^n."""
        return self.binom(n, k) * self.tail(n - k)


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
        ZERO_SHIFT, ZERO_SHIFT, coeff_qpow(1), COEFF_ONE, coeff_qbinom,
        lambda n, k: (coeff_qpow(n + 1 - k), COEFF_ONE), lambda count: COEFF_ONE,
        lambda n, k: COEFF_ONE, lambda m, k: coeff_qpow(k)),
    AlgebraTag.ELLIPTIC_AB: _Algebra(
        (1, 2, 0), (2, 1, 0), coeff_binomial_weight(1, 1), COEFF_ONE, coeff_elliptic_binomial,
        lambda n, k: (coeff_binomial_weight(k, n + 1 - k), COEFF_ONE), lambda count: COEFF_ONE,
        lambda n, k: COEFF_ONE, lambda m, k: coeff_binomial_weight(m + 1, k)),
    AlgebraTag.ELLIPTIC_XABC: _Algebra(
        (1, 0, 1), (0, 1, 1), coeff_big_h(0, 1), coeff_h(0, 0, swap=True), coeff_path_binomial,
        lambda n, k: (coeff_big_h(k - 1, n + 1 - k), coeff_big_h(n - k, k, swap=True)),
        _coeff_swap_product, lambda n, k: coeff_h(n, k, swap=True),
        lambda m, k: coeff_big_h(m, k) if k else COEFF_ONE),
}


@lru_cache(maxsize=None)
def reorder_coefficient(tag: AlgebraTag, s: int, r: int) -> Coefficient:
    """The field element C(s, r) with Y^s X^r = C(s, r) X^r Y^s, built
    from the elementary rule alone: the product over i < r, j < s of the
    base YX coefficient shifted by i steps of X and j steps of Y."""
    if tag is AlgebraTag.Q_COMMUTING:
        return coeff_qpow(s * r) if s * r else COEFF_ONE
    rule = _RULES[tag]
    dx, dy = rule.dx, rule.dy
    out = COEFF_ONE
    for j in range(s):
        for i in range(r):
            delta = (i * dx[0] + j * dy[0], i * dx[1] + j * dy[1], i * dx[2] + j * dy[2])
            out = out * rule.w.shifted(delta)
    return out


@dataclass(frozen=True)
class NormalFormElement:
    """A finite sum f_kl X^k Y^l in normal form; ``terms`` maps exponent
    pairs to field coefficients, with structural zeros pruned."""

    tag: AlgebraTag
    terms: tuple[tuple[tuple[int, int], Coefficient], ...]

    def coefficient(self, k: int, l: int) -> Coefficient:
        for key, c in self.terms:
            if key == (k, l):
                return c
        return COEFF_ZERO


def nf_element(tag: AlgebraTag, mapping: dict) -> NormalFormElement:
    items = tuple(sorted(
        ((key, c) for key, c in mapping.items() if not c.is_zero()),
        key=lambda item: item[0]))
    for (k, l), _ in items:
        if k < 0 or l < 0:
            raise ValueError("normal-form exponents must be nonnegative")
    return NormalFormElement(tag, items)


def nf_unit(tag: AlgebraTag) -> NormalFormElement:
    return nf_element(tag, {(0, 0): COEFF_ONE})


def nf_monomial(tag: AlgebraTag, k: int, l: int,
                coeff: Coefficient = COEFF_ONE) -> NormalFormElement:
    return nf_element(tag, {(k, l): coeff})


def nf_add(e1: NormalFormElement, e2: NormalFormElement) -> NormalFormElement:
    if e1.tag is not e2.tag:
        raise ValueError("cannot add elements of different algebras")
    out = dict(e1.terms)
    for key, c in e2.terms:
        out[key] = out[key] + c if key in out else c
    return nf_element(e1.tag, out)


def nf_scale(e: NormalFormElement, coeff: Coefficient) -> NormalFormElement:
    """Left-multiply by a field element (which stays left of all X, Y)."""
    return nf_element(e.tag, {key: coeff * c for key, c in e.terms})


def nf_mul(e1: NormalFormElement, e2: NormalFormElement) -> NormalFormElement:
    """Normal form of the product: every cross term

        f X^k1 Y^l1 * g X^k2 Y^l2
            = f * g[shift k1*dX + l1*dY] * C(l1, k2)[shift k1*dX]
              X^(k1+k2) Y^(l1+l2)

    obtained by commuting g and then the reorder coefficient past the
    leading generators of the left factor.
    """
    if e1.tag is not e2.tag:
        raise ValueError("cannot multiply elements of different algebras")
    tag = e1.tag
    rule = _RULES[tag]
    dx, dy = rule.dx, rule.dy
    out: dict = {}
    for (k1, l1), f in e1.terms:
        move = (k1 * dx[0] + l1 * dy[0], k1 * dx[1] + l1 * dy[1], k1 * dx[2] + l1 * dy[2])
        xmove = (k1 * dx[0], k1 * dx[1], k1 * dx[2])
        for (k2, l2), g in e2.terms:
            c = f * g.shifted(move)
            if l1 and k2:
                c = c * reorder_coefficient(tag, l1, k2).shifted(xmove)
            key = (k1 + k2, l1 + l2)
            out[key] = out[key] + c if key in out else c
    return nf_element(tag, out)


def nf_pow(e: NormalFormElement, n: int) -> NormalFormElement:
    out = nf_unit(e.tag)
    for _ in range(n):
        out = nf_mul(out, e)
    return out


def evaluate_element(e: NormalFormElement, pp: ParamPoint,
                     ctx: EvalContext | None = None) -> dict:
    """Numeric normal-form coefficients {(k, l): value} at one point."""
    if ctx is None:
        ctx = EvalContext(pp)
    return {key: ctx.value(c) for key, c in e.terms}


def binomial_base(tag: AlgebraTag) -> NormalFormElement:
    """The binomial whose powers have factorising normal forms, X + y Y
    with the row's y: X + Y in the q-commuting and (a, b)-elliptic
    algebras, X + h~(0,0) Y in the four-parameter algebra (h~ is the
    weight with a and b exchanged)."""
    return nf_element(tag, {(1, 0): COEFF_ONE, (0, 1): _RULES[tag].y})


def closed_binomial(tag: AlgebraTag, n: int) -> NormalFormElement:
    """The factorised normal form the binomial theorem asserts for
    binomial_base(tag)^n: the row's closed(n, k) at X^k Y^(n-k)."""
    closed = _RULES[tag].closed
    return nf_element(tag, {(k, n - k): closed(n, k) for k in range(n + 1)})


def binomial_power(tag: AlgebraTag, pp: ParamPoint, n: int) -> NormalFormElement:
    """Normal form of the n-th power of :func:`binomial_base`.

    The base is evaluated at the point to reject a degenerate one up front
    (the four-parameter base weight must be evaluable); coefficients
    themselves stay lazy and surface degeneracies when evaluated.
    """
    base = binomial_base(tag)
    evaluate_element(base, pp)
    return nf_pow(base, n)


def compare_maps(map1: dict, map2: dict) -> float:
    """Worst relative gap between two coefficient maps; entries below
    STRUCTURAL_ZERO of the row maximum count as structural zeros."""
    keys = set(map1) | set(map2)
    if not keys:
        return 0.0
    row = max([abs(v) for v in map1.values()] + [abs(v) for v in map2.values()],
              default=0.0)
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
    """Worst relative gap between the normal form of binomial_base(tag)^n,
    expanded by repeated multiplication, and :func:`closed_binomial`, the
    two evaluated in one context."""
    ctx = EvalContext(pp)
    expanded = evaluate_element(binomial_power(tag, pp, n), pp, ctx)
    return compare_maps(expanded, evaluate_element(closed_binomial(tag, n), pp, ctx))


def pascal_residual(tag: AlgebraTag, pp: ParamPoint, n: int) -> float:
    """Worst relative gap over 0 <= k <= n+1 of the lattice-path split at
    the last step, binom(n+1, k) = binom(n, k-1) u + binom(n, k) v with
    (u, v) = pascal(n, k), evaluated in one context.  A term whose binomial
    lies outside 0..n is left out, so no weight outside the grid is read."""
    row = _RULES[tag]
    value = EvalContext(pp).value
    gaps = []
    for k in range(n + 2):
        u, v = row.pascal(n, k)
        rhs = value(row.binom(n, k - 1)) * value(u) if k else 0
        if k <= n:
            rhs = rhs + value(row.binom(n, k)) * value(v)
        gaps.append(relative_residual(value(row.binom(n + 1, k)), rhs))
    return worst_residual(gaps)


def _homogeneous_rhs(tag: AlgebraTag, m: int, n: int, powers: list) -> NormalFormElement:
    """Right-hand side of the homogeneous two-sum expansion of
    binomial_base^(m+n+1) in the given algebra,

        sum_{k<=m} closed(n+k, k) left(n, k) X^k Y^(n+1) base^(m-k)
          + sum_{k<=n} closed(m+k, m) right(m, k) X^(m+1) Y^k base^(n-k),

    with the algebra's row of :data:`_RULES`, where ``powers[j]`` is base^j."""
    row = _RULES[tag]
    total = nf_element(tag, {})
    for k in range(m + 1):
        term = nf_mul(nf_monomial(tag, k, n + 1), powers[m - k])
        total = nf_add(total, nf_scale(term, row.closed(n + k, k) * row.left(n, k)))
    for k in range(n + 1):
        term = nf_mul(nf_monomial(tag, m + 1, k), powers[n - k])
        total = nf_add(total, nf_scale(term, row.closed(m + k, m) * row.right(m, k)))
    return total


def _qcomm_swap_image(values: dict, q) -> dict:
    """Numeric image of a q-commuting normal form under X <-> Y with the
    base inverted: X^k Y^l evaluated at 1/q maps to q^(k l) X^l Y^k."""
    return {(l, k): v * q ** (k * l) for (k, l), v in values.items()}


def homogeneous_cb_residual(tag: AlgebraTag, pp: ParamPoint, m: int, n: int) -> float:
    """Worst relative gap between the normal forms of the two sides of the
    homogeneous two-sum identity for binomial_base(tag)^(m+n+1).

    For the q-commuting algebra the identity is additionally invariant
    under (X, Y, q, m, n) -> (Y, X, 1/q, n, m); the check maps both sides
    at (1/q, n, m) through the swap isomorphism and compares them with the
    direct expansions.
    """
    powers = list(accumulate(repeat(binomial_base(tag), m + n + 1), nf_mul,
                             initial=nf_unit(tag)))
    lhs = powers[-1]
    ctx = EvalContext(pp)
    lhs_values = evaluate_element(lhs, pp, ctx)
    rhs_values = evaluate_element(_homogeneous_rhs(tag, m, n, powers), pp, ctx)
    residual = compare_maps(lhs_values, rhs_values)
    if tag is not AlgebraTag.Q_COMMUTING:
        return residual

    pp_inv = pp.replace(q=1 / pp.q)
    ctx_inv = EvalContext(pp_inv)
    lhs_img = _qcomm_swap_image(evaluate_element(lhs, pp_inv, ctx_inv), pp.q)
    rhs_img = _qcomm_swap_image(
        evaluate_element(_homogeneous_rhs(tag, n, m, powers), pp_inv, ctx_inv), pp.q)
    return worst_residual((residual, compare_maps(lhs_img, lhs_values),
                           compare_maps(rhs_img, rhs_values)))


# ---------------------------------------------------------------------------
# Convolution and the terminating very-well-poised sum.

def convolution_residual(pp: ParamPoint, n: int, m: int, k: int) -> float:
    """Residual of the elliptic binomial convolution

        [n+m, k] prod_{j<n+m-k} h~(j, 0)
          = sum_j [n, j] [m, k-j]@(a q^j, b q^(n-j), c q^n)
            prod_{l<n-j} h~(l, 0) prod_{s<m+j-k} h~(s+n-j, j)
            prod_{i<k-j} H(i+j, n-j),

    which splits a (n+m)-step binomial expansion at step n.  Both sides
    are built from the four-parameter row's leaves, in one context.
    """
    if k < 0 or k > n + m:
        raise ValueError("need 0 <= k <= n + m")
    value = EvalContext(pp).value
    lhs = value(_RULES[AlgebraTag.ELLIPTIC_XABC].closed(n + m, k))
    total = 0
    scale = abs(lhs)
    for j in range(max(0, k - m), min(k, n) + 1):
        leaves = [coeff_path_binomial(n, j), coeff_path_binomial(m, k - j).shifted((j, n - j, n)),
                  _coeff_swap_product(n - j), _coeff_swap_product(m + j - k, n - j, j),
                  *(coeff_big_h(i + j, n - j) for i in range(k - j))]
        term = math.prod(map(value, leaves))
        total = total + term
        scale = max(scale, abs(term))
    return float(abs(lhs - total) / max(1.0, scale))


def convolution_nf_cross_check(pp: ParamPoint, n: int, m: int, k: int) -> float:
    """The proof route: the (k, n+m-k) coefficient of the product of the
    n-th and m-th binomial powers must match the one of the (n+m)-th."""
    tag = AlgebraTag.ELLIPTIC_XABC
    ctx = EvalContext(pp)
    prod = nf_mul(binomial_power(tag, pp, n), binomial_power(tag, pp, m))
    whole = binomial_power(tag, pp, n + m)
    v1 = ctx.value(prod.coefficient(k, n + m - k))
    v2 = ctx.value(whole.coefficient(k, n + m - k))
    return relative_residual(v1, v2)


def frenkel_turaev(pp: ParamPoint, n: int):
    """Both sides of the terminating very-well-poised 10V9 summation at
    (a, b, c, d) = (pp.a, pp.b, pp.c, pp.x), with e = a^2 q^(n+1) / (bcd)
    enforcing the balancing condition:

        sum_{k<=n} theta(a q^(2k); p)/theta(a; p)
            * (a, b, c, d, e, q^-n; q, p)_k
            / (q, aq/b, aq/c, aq/d, aq/e, a q^(n+1); q, p)_k * q^k
        = (aq, aq/bc, aq/bd, aq/cd; q, p)_n
        / (aq/b, aq/c, aq/d, aq/bcd; q, p)_n.

    Every theta is read from the point's store (``pp.thetas``).  The
    entries of the sum's windows that the store does not hold yet are
    filled first, in one batch (:meth:`ThetaLadders.fill`, which
    evaluates nothing at an mpmath point: there each entry is read by
    :func:`theta`).
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

    windows = [*((ladder, start, n) for ladder, start in num + den), *rhs_num, *rhs_den]
    reads = [(ladder, j) for ladder, start, length in windows
             for j in range(start, start + length)]
    reads += [(la, 2 * k) for k in range(n + 1)]
    lad.fill([(ladder, j) for ladder, j in dict.fromkeys(reads) if j not in ladder])

    th_a = la.den(0)
    lhs, _ = series_with_running_products(num, den, q, n, lambda k: la[2 * k] / th_a)
    return lhs, theta_ratio(rhs_num, rhs_den)


def frenkel_turaev_from_convolution(pp: ParamPoint, n: int, m: int, k: int):
    """The parameter list under which the convolution formula becomes a
    terminating very-well-poised sum: evaluate that sum at

        (a, b, c, d, n) -> (a q^-n / b, a c q^(n+m), q^(1-n)/(b c),
                            a q^(k-n-m) / b, k),

    on the point with (a, b, c, x) replaced, which shares pp's store.
    """
    a, b, c, q = pp.a, pp.b, pp.c, pp.q
    return frenkel_turaev(pp.replace(a=a * q ** (-n) / b,
                                     b=a * c * q ** (n + m),
                                     c=q ** (1 - n) / (b * c),
                                     x=a * q ** (k - n - m) / b), k)
