"""Direct evaluators and residual checks for the two-term expansions of
unity, from the classical binomial form up to the four-parameter elliptic
form, together with the limit arrows connecting neighbouring families.

Every family writes 1 as termA + termB where termB is the mirror of termA
(swap the truncation depths, and swap a with b where the family has them;
the classical mirror is x -> 1 - x).  Each family has its own direct
evaluator; limits between families appear only in the degeneration
checks, so identity truth and limit-rate estimation stay separate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnknownIdentityError
from .params import ParamPoint
from .special import (
    qbinom,
    qpoch,
    relative_residual,
    series_with_running_products,
    theta_ratio,
)

#: Family names accepted by :func:`cb_residual`, most general first.
FAMILIES = ("elliptic", "abcq", "abq2", "abq1", "qcb", "classical")

#: The families summed by the series kernel: each has a term function
#: ``cb_term_<family>(pp, m, n)`` whose mirror is the same function at the
#: point with a and b exchanged and the depths swapped.
_SERIES_FAMILIES = ("elliptic", "abcq", "abq2", "abq1")


def cb_term_elliptic(pp: ParamPoint, m: int, n: int):
    """The (m, n) addend of the four-parameter expansion of unity:

        (ac, c/a, bx, b/x; q, p)_{n+1} / (ab, b/a, cx, c/x; q, p)_{n+1}
        * sum_{k<=m} theta(ac q^(n+2k); p)/theta(ac q^n; p)
          * (ac q^n, bc q^n, c/b, q^(n+1), ax, a/x; q, p)_k
          / (q, aq/b, ab q^(n+1), ac, c q^(n+1)/x, cx q^(n+1); q, p)_k * q^k,

    returned with the magnitude it was summed from: |prefactor| times the
    largest series term.  At p = 0 every theta is the exact factor 1 - z,
    so this value *is* the (a, b, c; q)-family value, bit for bit.  All
    factors are read off the point's theta store, through the ladders of
    its roles (``ParamPoint.role_ladders``).
    """
    a_b, b_a, bc, ac, ab, cx, c_x, qq, c_b, ax, a_x, bx, b_x, c_a = pp.role_ladders()
    pre = theta_ratio(((ac, 0, n + 1), (c_a, 0, n + 1), (bx, 0, n + 1), (b_x, 0, n + 1)),
                      ((ab, 0, n + 1), (b_a, 0, n + 1), (cx, 0, n + 1), (c_x, 0, n + 1)))
    th_ref = ac.den(n)
    total, scale = series_with_running_products(
        ((ac, n), (bc, n), (c_b, 0), (qq, n), (ax, 0), (a_x, 0)),
        ((qq, 0), (a_b, 1), (ab, n + 1), (ac, 0), (c_x, n + 1), (cx, n + 1)),
        pp.q, m, lambda k: ac[n + 2 * k] / th_ref)
    return pre * total, abs(pre) * scale


def cb_term_abcq(pp: ParamPoint, m: int, n: int):
    """The (a, b, c; q)-family addend and its summed magnitude: the p = 0
    closed form of :func:`cb_term_elliptic` (thetas collapse to 1 - z
    exactly)."""
    return cb_term_elliptic(pp.basic, m, n)


def cb_term_abq2(pp: ParamPoint, m: int, n: int):
    """Second-kind two-parameter addend and its summed magnitude:

        (bx, b/x; q)_{n+1} / (ab, b/a; q)_{n+1}
        * sum_{k<=m} (q^(n+1), ax, a/x; q)_k / (q, aq/b, ab q^(n+1); q)_k * q^k.
    """
    a_b, b_a, _, _, ab, _, _, qq, _, ax, a_x, bx, b_x, _ = pp.basic.role_ladders()
    pre = theta_ratio(((bx, 0, n + 1), (b_x, 0, n + 1)), ((ab, 0, n + 1), (b_a, 0, n + 1)))
    total, scale = series_with_running_products(
        ((qq, n), (ax, 0), (a_x, 0)), ((qq, 0), (a_b, 1), (ab, n + 1)), pp.q, m, lambda k: 1)
    return pre * total, abs(pre) * scale


def cb_term_abq1(pp: ParamPoint, m: int, n: int):
    """First-kind two-parameter addend and its summed magnitude:

        (bx; q)_{n+1} / (b/a; q)_{n+1}
        * sum_{k<=m} (q^(n+1), ax; q)_k / (q, aq/b; q)_k * q^k.

    The b variable is redundant (a -> ab, x -> x/b eliminates it) but kept
    for the a <-> b mirror symmetry.
    """
    a_b, b_a, _, _, _, _, _, qq, _, ax, _, bx, _, _ = pp.basic.role_ladders()
    pre = theta_ratio(((bx, 0, n + 1),), ((b_a, 0, n + 1),))
    total, scale = series_with_running_products(
        ((qq, n), (ax, 0)), ((qq, 0), (a_b, 1)), pp.q, m, lambda k: 1)
    return pre * total, abs(pre) * scale


def cb_terms_qcb(x, q, m: int, n: int):
    """Both addends of the one-parameter basic family:

        termA = (x; q)_{n+1} sum_{k<=m} [n+k, k]_q x^k
        termB = x^(m+1) sum_{k<=n} [m+k, k]_q q^k (x; q)_k.
    """
    total_a = 0
    xk = 1
    for k in range(m + 1):
        total_a = total_a + qbinom(n + k, k, q) * xk
        xk = xk * x
    term_a = qpoch(x, q, n + 1) * total_a

    total_b = 0
    run = 1
    qk = 1
    xq = x
    for k in range(n + 1):
        if k:
            run = run * (1 - xq)
            xq = xq * q
            qk = qk * q
        total_b = total_b + qbinom(m + k, k, q) * qk * run
    term_b = x ** (m + 1) * total_b
    return term_a, term_b


def _homogeneous_terms(x, y, s, m: int, n: int):
    """Both addends of the homogeneous form, with exact integer binomial
    coefficients promoted to complex only on multiplication:

        termA = y^(n+1) sum_{k<=m} C(n+k, k) x^k s^(m-k)
        termB = x^(m+1) sum_{k<=n} C(m+k, k) y^k s^(n-k).
    """
    term_a = 0
    xk = 1
    for k in range(m + 1):
        term_a = term_a + math.comb(n + k, k) * xk * s ** (m - k)
        xk = xk * x
    term_b = 0
    yk = 1
    for k in range(n + 1):
        term_b = term_b + math.comb(m + k, k) * yk * s ** (n - k)
        yk = yk * y
    return y ** (n + 1) * term_a, x ** (m + 1) * term_b


def cb_terms_classical(x, m: int, n: int):
    """Both addends of the classical form, the homogeneous addends at
    y = 1 - x and s = 1 (the int 1, so every power of s is exactly 1):

        termA = (1-x)^(n+1) sum_{k<=m} C(n+k, k) x^k
        termB = x^(m+1) sum_{k<=n} C(m+k, k) (1-x)^k.
    """
    return _homogeneous_terms(x, 1 - x, 1, m, n)


def _scaled_terms(family: str, pp: ParamPoint, m: int, n: int):
    """((termA, scaleA), (termB, scaleB)) of the named family, each term
    with the largest magnitude that was summed to form it."""
    if family in _SERIES_FAMILIES:
        # looked up when called, so a rebound module global is honoured
        term = globals()[f"cb_term_{family}"]
        return term(pp, m, n), term(pp.swap_ab(), n, m)
    if family == "qcb":
        term_a, term_b = cb_terms_qcb(pp.x, pp.q, m, n)
    elif family == "classical":
        term_a, term_b = cb_terms_classical(pp.x, m, n)
    else:
        raise UnknownIdentityError(f"unknown family {family!r}; expected one of {FAMILIES}")
    return (term_a, abs(term_a)), (term_b, abs(term_b))


def cb_terms(family: str, pp: ParamPoint, m: int, n: int):
    """The (termA, termB) pair of the named family at the given point."""
    (term_a, _), (term_b, _) = _scaled_terms(family, pp, m, n)
    return term_a, term_b


def cb_residual(family: str, pp: ParamPoint, m: int, n: int) -> float:
    """Relative residual |1 - termA - termB| of the named family,
    normalised by the larger term magnitude (floor 1) and, for the
    families summed by the series kernel, by the largest magnitude each
    term was summed from: a series that cancels terms far larger than its
    sum carries their rounding, not an identity error."""
    (term_a, scale_a), (term_b, scale_b) = _scaled_terms(family, pp, m, n)
    return relative_residual(1, term_a + term_b, abs(term_a), abs(term_b), scale_a, scale_b)


def cb_homogeneous_residual(x, y, m: int, n: int) -> float:
    """Residual of the two-variable homogeneous form:

        (x+y)^(m+n+1) = y^(n+1) sum_{k<=m} C(n+k, k) x^k (x+y)^(m-k)
                        + x^(m+1) sum_{k<=n} C(m+k, k) y^k (x+y)^(n-k).
    """
    s = x + y
    term_a, term_b = _homogeneous_terms(x, y, s, m, n)
    return relative_residual(s ** (m + n + 1), term_a + term_b, abs(term_a), abs(term_b))


#: Arrow names of the degeneration chain, most general first.
ARROWS = ("elliptic_to_abcq", "abcq_to_abq2", "abq2_to_abq1",
          "abq1_to_qcb", "qcb_to_classical")


@dataclass(frozen=True)
class DegenerationReport:
    """Absolute gaps |termA(limit point) - termA(target family)| for each
    arrow of the chain at one eps."""

    eps: float
    gaps: dict[str, float]


def _unit(z):
    return z / abs(z)


def degeneration_consistency(pp: ParamPoint, m: int, n: int, eps: float) -> DegenerationReport:
    """Evaluate every arrow of the degeneration chain at distance eps.

    (i)   nome shrunk to |p| = eps          vs the (a, b, c; q) family,
    (ii)  |c| = eps                         vs the second two-parameter kind,
    (iii) a -> eps a, b -> b eps, x -> x/eps vs the first kind (gap is O(eps^2)),
    (iv)  x -> x/b at |b| = eps             vs the one-parameter family,
    (v)   q = 1 - eps                       vs the classical form.
    """
    x, a, b, c, q = pp.x, pp.a, pp.b, pp.c, pp.q
    gaps = {}

    p_small = eps * (_unit(pp.p) if pp.p != 0 else 1.0)
    gaps["elliptic_to_abcq"] = float(abs(
        cb_term_elliptic(pp.replace(p=p_small), m, n)[0] - cb_term_abcq(pp, m, n)[0]))

    c_small = eps * _unit(c)
    gaps["abcq_to_abq2"] = float(abs(
        cb_term_abcq(pp.replace(c=c_small, p=0j), m, n)[0] - cb_term_abq2(pp, m, n)[0]))

    delta = eps
    pp_delta = pp.replace(x=x / delta, a=delta * a, b=b * delta)
    gaps["abq2_to_abq1"] = float(abs(
        cb_term_abq2(pp_delta, m, n)[0] - cb_term_abq1(pp, m, n)[0]))

    b_small = eps * _unit(b)
    qcb_a, _ = cb_terms_qcb(x, q, m, n)
    gaps["abq1_to_qcb"] = float(abs(
        cb_term_abq1(pp.replace(x=x / b_small, b=b_small), m, n)[0] - qcb_a))

    q_near_1 = 1 - eps
    qcb_a_limit, _ = cb_terms_qcb(x, q_near_1, m, n)
    cl_a, _ = cb_terms_classical(x, m, n)
    gaps["qcb_to_classical"] = float(abs(qcb_a_limit - cl_a))

    return DegenerationReport(eps=eps, gaps=gaps)


def degeneration_decay(pp: ParamPoint, m: int, n: int,
                       eps0: float = 1e-3, halvings: int = 3) -> dict[str, list[float]]:
    """Gap sequences for eps0, eps0/2, ..., eps0/2^halvings; every arrow
    is first order or better, so consecutive gaps shrink by >= ~2x."""
    seqs: dict[str, list[float]] = {name: [] for name in ARROWS}
    eps = eps0
    for _ in range(halvings + 1):
        rep = degeneration_consistency(pp, m, n, eps)
        for name in ARROWS:
            seqs[name].append(rep.gaps[name])
        eps = eps / 2
    return seqs


def abq1_q_to_1_gap(pp: ParamPoint, eps: float, m: int, n: int) -> float:
    """Gap between the first-kind addend at q = 1 - eps and the classical
    addend at the substituted argument x' = (1 - ax)/(1 - a/b); the q -> 1
    limit of the first-kind family is the classical identity in x'."""
    x, a, b = pp.x, pp.a, pp.b
    val, _ = cb_term_abq1(pp.replace(q=1 - eps), m, n)
    x_sub = (1 - a * x) / (1 - a / b)
    cl_a, _ = cb_terms_classical(x_sub, m, n)
    return float(abs(val - cl_a))
