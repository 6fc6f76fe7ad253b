"""Cofactor identities 1 = P1*Q1 + P2*Q2 for the basic families, solved by
coefficient-matching linear algebra, plus the series, transition-matrix
and connection-coefficient machinery around them.

Three polynomial-base families are covered:

    one-parameter:   P1 = (x; q)_{n+1},        P2 = x^(m+1)
    first kind:      P1 = (bx; q)_{n+1},       P2 = (ax; q)_{m+1}
    second kind:     P1 = (bx, b/x; q)_{n+1},  P2 = (ax, a/x; q)_{m+1}

The second-kind polynomials are symmetric Laurent polynomials; their
closed cofactors are coefficient vectors over the bases {(ax, a/x; q)_k}
and {(bx, b/x; q)_k}, checked by evaluation at the roots of the modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CommonRootError, SingularSystemError
from .special import qbinom, qpoch, worst_residual

ROOT_SEPARATION = 1e-6


@dataclass(frozen=True)
class Poly:
    """Dense polynomial over complex scalars, coefficients ascending."""

    coeffs: tuple[complex, ...]

    def __post_init__(self):
        c = list(self.coeffs)
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(tuple(out))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scaled(-1)

    def scaled(self, z) -> "Poly":
        return Poly(tuple(c * z for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.coeffs or not other.coeffs:
            return Poly(())
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] += ci * cj
        return Poly(tuple(out))

    def shifted(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return Poly((0j,) * k + self.coeffs)


def poly_one() -> Poly:
    return Poly((1 + 0j,))


def poly_monomial(k: int, coeff=1) -> Poly:
    return Poly((0j,) * k + (complex(coeff),))


def qpoch_poly(a, q, k: int) -> Poly:
    """(a x; q)_k as a polynomial in x: prod_{l<k} (1 - a q^l x)."""
    out = poly_one()
    aq = a
    for _ in range(k):
        out = out * Poly((1 + 0j, -aq))
        aq = aq * q
    return out


def series_inv_qpoch(n: int, q, m: int) -> Poly:
    """Power-series expansion of 1/(x; q)_{n+1} through order m; the k-th
    coefficient is the q-binomial [n+k, k]_q."""
    return Poly(tuple(qbinom(n + k, k, q) for k in range(m + 1)))


def _roots(poly: Poly) -> np.ndarray:
    if poly.degree < 1:
        return np.empty(0, dtype=complex)
    return np.roots(np.array(poly.coeffs[::-1], dtype=complex))


def bezout_solve(p1: Poly, p2: Poly, m: int, n: int) -> tuple[Poly, Poly]:
    """Unique (Q1, Q2) with deg Q1 <= m, deg Q2 <= n and 1 = P1 Q1 + P2 Q2,
    found by matching the coefficients of 1, x, ..., x^(m+n+1).

    Requires deg P1 <= n+1 and deg P2 <= m+1 so the system is square, and
    P1, P2 without common roots (checked by numeric root separation).
    """
    if p1.degree > n + 1 or p2.degree > m + 1:
        raise ValueError("degrees must satisfy deg P1 <= n+1, deg P2 <= m+1")
    if not p1.coeffs or not p2.coeffs:
        raise CommonRootError("zero polynomial shares every root")
    r1, r2 = _roots(p1), _roots(p2)
    if r1.size and r2.size:
        sep = min(abs(z1 - z2) for z1 in r1 for z2 in r2)
        if sep < ROOT_SEPARATION:
            raise CommonRootError(f"root separation {sep:.2e} below {ROOT_SEPARATION:.0e}")

    size = m + n + 2
    mat = np.zeros((size, size), dtype=complex)
    for j in range(m + 1):
        col = p1.shifted(j).coeffs
        for i, c in enumerate(col):
            mat[i, j] = c
    for j in range(n + 1):
        col = p2.shifted(j).coeffs
        for i, c in enumerate(col):
            mat[i, m + 1 + j] = c
    rhs = np.zeros(size, dtype=complex)
    rhs[0] = 1
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    return Poly(tuple(sol[: m + 1])), Poly(tuple(sol[m + 1:]))


# ---------------------------------------------------------------------------
# Closed-form cofactors of the three families.

def qcb_cofactors(q, m: int, n: int) -> tuple[Poly, Poly]:
    """Closed cofactors of 1 = (x; q)_{n+1} Q1 + x^(m+1) Q2:
    Q1 = sum_k [n+k, k]_q x^k and Q2 = sum_k [m+k, k]_q q^k (x; q)_k."""
    q1 = series_inv_qpoch(n, q, m)
    q2 = Poly(())
    for k in range(n + 1):
        q2 = q2 + qpoch_poly(1, q, k).scaled(qbinom(m + k, k, q) * q**k)
    return q1, q2


def abq1_cofactors(a, b, q, m: int, n: int) -> tuple[Poly, Poly]:
    """Closed cofactors of 1 = (bx; q)_{n+1} Q1 + (ax; q)_{m+1} Q2 in the
    monomial basis; Q2(a, b) = Q1 with a and b exchanged and m, n swapped."""
    def q1_of(aa, bb, mm, nn):
        pre = 1 / qpoch(bb / aa, q, nn + 1)
        out = Poly(())
        coeff = 1
        for k in range(mm + 1):
            if k:
                coeff = coeff * (1 - q ** (nn + k)) * q / ((1 - q**k) * (1 - aa * q**k / bb))
            out = out + qpoch_poly(aa, q, k).scaled(coeff)
        return out.scaled(pre)

    return q1_of(a, b, m, n), q1_of(b, a, n, m)


def abq2_cofactor_coeffs(a, b, q, m: int, n: int) -> tuple[tuple, tuple]:
    """Closed second-kind cofactors, as coefficient vectors over the bases
    {(ax, a/x; q)_k}_{k<=m} and {(bx, b/x; q)_l}_{l<=n}:

        u_k = (q^(n+1); q)_k / ((q, aq/b, ab q^(n+1); q)_k (ab, b/a; q)_{n+1}) q^k
    and v_l the a <-> b, m <-> n mirror.
    """
    def coeffs(aa, bb, mm, nn):
        pre = 1 / (qpoch(aa * bb, q, nn + 1) * qpoch(bb / aa, q, nn + 1))
        out = []
        coeff = pre
        for k in range(mm + 1):
            if k:
                num = 1 - q ** (nn + k)
                den = (1 - q**k) * (1 - aa * q**k / bb) * (1 - aa * bb * q ** (nn + k))
                coeff = coeff * num * q / den
            out.append(coeff)
        return tuple(out)

    return coeffs(a, b, m, n), coeffs(b, a, n, m)


def symmetric_base_value(a, q, k: int, x):
    """(ax, a/x; q)_k evaluated at x."""
    return qpoch(a * x, q, k) * qpoch(a / x, q, k)


# ---------------------------------------------------------------------------
# Monomial <-> (x; q)_k transition pair.

def f_entry(n: int, k: int, q):
    """Expansion coefficient of (x; q)_n over monomials:
    (x; q)_n = sum_k f(n, k) x^k with f(n, k) = [n, k]_q (-1)^k q^C(k, 2)."""
    return qbinom(n, k, q) * (-1) ** k * q ** math.comb(k, 2)


def g_entry(n: int, k: int, q):
    """Entry of the inverse transition: g(n, k) = [n, k]_q (-1)^k
    q^(C(k, 2) + k(1-n)); equals f(n, k) at base 1/q."""
    return qbinom(n, k, q) * (-1) ** k * q ** (math.comb(k, 2) + k * (1 - n))


def matrix_pair_check(size: int, q) -> float:
    """Max-norm of F G - I over the (size+1) x (size+1) transition pair.

    Pure scalar arithmetic so the check runs unchanged at extended
    precision; the entries of G grow like |q|^(-k(n-1)) and the row sums
    cancel to 0/1, which exceeds double headroom for small |q| at size 8.
    """
    dim = size + 1
    f = [[f_entry(r, k, q) if k <= r else 0 for k in range(dim)] for r in range(dim)]
    g = [[g_entry(r, k, q) if k <= r else 0 for k in range(dim)] for r in range(dim)]
    gaps = []
    for r in range(dim):
        for c in range(dim):
            acc = 0
            for k in range(c, r + 1):
                acc = acc + f[r][k] * g[k][c]
            acc = acc - (1 if r == c else 0)
            gaps.append(float(abs(acc)))
    return worst_residual(gaps)


# ---------------------------------------------------------------------------
# Connection coefficients between the shifted-factorial bases.

def connection_first(n: int, k: int, a, b, q):
    """Coefficient of (ax; q)_k in the expansion of (bx; q)_n:

        f(n, k) = (b/a; q)_n (q^-n; q)_k / (q, a q^(1-n)/b; q)_k * q^k,

    vanishing for k > n through the (q^-n; q)_k factor (up to rounding in
    q^-n q^n).  The connecting relation is the terminating
    Chu-Vandermonde style sum.
    """
    val = qpoch(b / a, q, n)
    val = val * qpoch(q ** (-n), q, k)
    val = val / (qpoch(q, q, k) * qpoch(a * q ** (1 - n) / b, q, k))
    return val * q**k


def connection_second(n: int, k: int, a, b, q):
    """Coefficient of (ax, a/x; q)_k in the expansion of (bx, b/x; q)_n:

        f~(n, k) = (ab, b/a; q)_n (q^-n; q)_k / (q, ab, a q^(1-n)/b; q)_k * q^k,

    the terminating Pfaff-Saalschuetz style companion of the first kind.
    """
    val = qpoch(a * b, q, n) * qpoch(b / a, q, n)
    val = val * qpoch(q ** (-n), q, k)
    val = val / (qpoch(q, q, k) * qpoch(a * b, q, k) * qpoch(a * q ** (1 - n) / b, q, k))
    return val * q**k


def mod_reduction_check(family: str, a, b, q, m: int, n: int) -> float:
    """Divisibility check behind the cofactor construction: evaluate
    1 - P1(x) Q1(x) at every root of the modulus P2 and return the largest
    magnitude, normalised by the size of the summands (the values of P1
    and the cofactor terms grow like powers of 1/q at the roots).  Roots
    are x = q^-i / a for the first kind, plus x = a q^i for the symmetric
    second kind."""
    if family == "first":
        def q1_terms(x):
            coeff = 1 / qpoch(b / a, q, n + 1)
            out = [coeff]
            for k in range(1, m + 1):
                coeff = coeff * (1 - q ** (n + k)) * (1 - a * x * q ** (k - 1)) * q \
                    / ((1 - q**k) * (1 - a * q**k / b))
                out.append(coeff)
            return out

        return worst_residual(_cofactor_gap(qpoch(b * x, q, n + 1), q1_terms(x))
                              for x in (q ** (-i) / a for i in range(m + 1)))

    if family == "second":
        u, _ = abq2_cofactor_coeffs(a, b, q, m, n)
        roots = [q ** (-i) / a for i in range(m + 1)] + [a * q**i for i in range(m + 1)]
        return worst_residual(
            _cofactor_gap(qpoch(b * x, q, n + 1) * qpoch(b / x, q, n + 1),
                          [uk * symmetric_base_value(a, q, k, x) for k, uk in enumerate(u)])
            for x in roots)

    raise ValueError(f"unknown family {family!r}; expected 'first' or 'second'")


def _cofactor_gap(p1, terms) -> float:
    """|1 - p1 sum(terms)| over the largest of 1 and the |p1 t|."""
    val = p1 * sum(terms)
    scale = max(1.0, *(float(abs(p1 * t)) for t in terms))
    return float(abs(1 - val)) / scale
