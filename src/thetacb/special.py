"""Scalar kernels: q-shifted factorials, the modified Jacobi theta
function, theta-shifted factorials, theta ladders with the ratio and
series kernels that read them, the denominator guard, and q-binomial
coefficients.

Conventions used throughout the package:

    (x; q)_k        = prod_{l=0}^{k-1} (1 - x q^l),      (x; q)_0 = 1
    theta(x; p)     = prod_{k>=0} (1 - x p^k)(1 - (p/x) p^k)
    (x; q, p)_k     = prod_{l=0}^{k-1} theta(x q^l; p),  (x; q, p)_0 = 1
    [n, k]_q        = (q; q)_n / ((q; q)_k (q; q)_{n-k})

At p = 0 the theta function is the exact closed form 1 - x, which makes
(x; q, 0)_k collapse bit-for-bit onto (x; q)_k.

All functions are pure; they accept ``complex`` or ``mpmath.mpc`` scalars
and return the matching type.
"""

from __future__ import annotations

import cmath
import math

from .errors import DegenerateParameterError, DivergenceError, RootOfUnityError, ZeroArgumentError

#: Truncation control for infinite products: factors are kept while
#: |p|^k >= tol * (1 + |x|), which bounds the relative tail error by
#: roughly |x| * tol for arguments in the reduced annulus.  For mpmath
#: scalars the default follows the working precision instead (see
#: :func:`_default_tol`), so extended-precision runs are not truncation
#: limited.
DEFAULT_THETA_TOL = 1e-18

#: Bits beyond the working precision carried by the fixed-point theta
#: product for ``mpmath`` scalars.
MP_THETA_GUARD_BITS = 64

#: Runtime backstop: a denominator factor (one theta, or one 1 - z at
#: p = 0) of magnitude at most this counts as vanished and raises instead
#: of dividing.  Samplers enforce a much wider margin (see
#: ``thetacb.sampling``).
DENOMINATOR_GUARD = 1e-12


def guarded(value, what: str, *args):
    """``value``, unless it vanished under ``DENOMINATOR_GUARD``; the
    message ``what % args`` is only formatted when it is raised."""
    if abs(value) <= DENOMINATOR_GUARD:
        raise DegenerateParameterError(f"{what % args} vanished")
    return value


def qpoch(x, q, k: int):
    """q-shifted factorial (x; q)_k for nonnegative integer k."""
    if k < 0:
        raise ValueError("q-shifted factorial needs k >= 0")
    acc = 1
    xq = x
    for _ in range(k):
        acc = acc * (1 - xq)
        xq = xq * q
    return acc


def _default_tol(x, p) -> float:
    if isinstance(x, complex) and isinstance(p, complex):
        return DEFAULT_THETA_TOL
    import mpmath

    return min(DEFAULT_THETA_TOL, float(mpmath.mp.eps) * 1e-2)


def theta(x, p):
    """Modified Jacobi theta function theta(x; p) = (x, p/x; p)_infinity.

    p = 0 returns the exact closed form 1 - x.  For p != 0 the argument is
    first moved into the annulus |p|^(1/2) <= |x'| < |p|^(-1/2) with the
    quasi-periodicity theta(x; p) = (-1)^n x^n p^(n(n-1)/2) theta(p^n x; p),
    which keeps the truncated product accurate for very large or very
    small arguments.
    """
    if x == 0:
        raise ZeroArgumentError("theta(x; p) requires x != 0")
    if p == 0:
        return 1 - x
    ap = abs(p)
    if ap >= 1:
        raise DivergenceError("theta(x; p) requires |p| < 1")

    log_ap = math.log(float(ap))
    ax = float(abs(x))
    log_ax = math.log(ax)
    n = round(-log_ax / log_ap)
    pref = 1
    if n:
        e = n * (n - 1) // 2
        # The two power factors can overflow doubles separately even when
        # their product is representable; switch to log space when large.
        mag = abs(n) * abs(log_ax) + abs(e) * abs(log_ap)
        if mag < 500.0:
            pref = (-1) ** n * x**n * p**e
        else:
            pref = (-1) ** n * _exp(n * _log(x) + e * _log(p))
        x = x * p**n
        ax = float(abs(x))

    # Factors k = 0 .. count-1 are exactly those with |p|^k >= stop.
    stop = _default_tol(x, p) * (1 + ax)
    count = math.floor(math.log(stop) / log_ap) + 1
    if count > 0 and _mp_complex(x, p):
        acc = _mp_theta_product(x, p, count)
        return pref * acc if n else acc
    px = p / x
    acc = 1
    pk = 1
    for _ in range(count):
        acc = acc * (1 - x * pk) * (1 - px * pk)
        pk = pk * p
    return pref * acc


def _mp_complex(x, p) -> bool:
    """True when p is an ``mpmath`` complex and x an ``mpmath`` real or
    complex of the same context."""
    ctx = getattr(p, "context", None)
    return (hasattr(p, "_mpc_") and getattr(x, "context", None) is ctx
            and (hasattr(x, "_mpc_") or hasattr(x, "_mpf_")))


def _mp_theta_product(x, p, count: int):
    """prod_{k<count} (1 - x p^k)(1 - (p/x) p^k) for an ``mpmath.mpc`` p and
    an ``mpmath`` real or complex x,
    evaluated on Python integers in fixed point with ``MP_THETA_GUARD_BITS``
    bits beyond the working precision and rounded once to it.

    x lies in the reduced annulus, so 1 - x is the only factor that can
    come near zero (every other factor has modulus at least
    1 - |p|^(1/2)).  It is formed exactly and multiplied in last without
    truncation, so the relative error stays a few units of the working
    precision however small the product is; at x = 1 it is exactly 0.
    """
    from mpmath.libmp import from_man_exp, fzero, mpc_div, to_fixed

    ctx = x.context
    prec, rnd = ctx._prec_rounding
    wp = prec + MP_THETA_GUARD_BITS
    one = 1 << wp
    xc = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)
    xr, xi = (to_fixed(t, wp) for t in xc)
    yr, yi = (to_fixed(t, wp) for t in mpc_div(p._mpc_, xc, wp, rnd))
    pr, pi = (to_fixed(t, wp) for t in p._mpc_)
    # k = 0 contributes 1 - p/x here and 1 - x at the end
    ar, ai = one - yr, -yi
    kr, ki = pr, pi
    for _ in range(count - 1):
        # (1 - x p^k) = ur - i ui and (1 - (p/x) p^k) = vr - i vi
        ur = one - ((xr * kr - xi * ki) >> wp)
        ui = (xr * ki + xi * kr) >> wp
        ar, ai = (ar * ur + ai * ui) >> wp, (ai * ur - ar * ui) >> wp
        vr = one - ((yr * kr - yi * ki) >> wp)
        vi = (yr * ki + yi * kr) >> wp
        ar, ai = (ar * vr + ai * vi) >> wp, (ai * vr - ar * vi) >> wp
        kr, ki = (kr * pr - ki * pi) >> wp, (kr * pi + ki * pr) >> wp
    # 1 - x = f0r - i f0i exactly, in fixed point fine enough for both
    # parts of x
    s = max(wp, -xc[0][2], -xc[1][2])
    f0r = (1 << s) - to_fixed(xc[0], s)
    f0i = to_fixed(xc[1], s)
    re = from_man_exp(ar * f0r + ai * f0i, -wp - s, prec, rnd)
    im = from_man_exp(ai * f0r - ar * f0i, -wp - s, prec, rnd)
    return ctx.make_mpc((re, im))


def _log(z):
    if isinstance(z, complex):
        return cmath.log(z)
    import mpmath

    return mpmath.log(z)


def _exp(z):
    if isinstance(z, complex):
        return cmath.exp(z)
    import mpmath

    return mpmath.exp(z)


def theta_prod(args, p):
    """Product of theta functions theta(x1, ..., xs; p)."""
    acc = 1
    for x in args:
        acc = acc * theta(x, p)
    return acc


def theta_fact(x, q, p, k: int):
    """Theta-shifted factorial (x; q, p)_k = prod_{l<k} theta(x q^l; p).

    The p = 0 branch delegates to :func:`qpoch` so the degeneration is
    bit-for-bit exact, not merely close.
    """
    if k < 0:
        raise ValueError("theta-shifted factorial needs k >= 0")
    if p == 0:
        if x == 0 or (k > 1 and q == 0):
            raise ZeroArgumentError("theta-shifted factorial hit argument 0")
        return qpoch(x, q, k)
    acc = 1
    xq = x
    for _ in range(k):
        acc = acc * theta(xq, p)
        xq = xq * q
    return acc


class ThetaLadder:
    """The values j -> theta(z q^j; p) for integer j (negative j allowed),
    each evaluated once by :func:`theta` on first use and then memoised.
    At p = 0 an entry is theta's closed form 1 - z q^j, formed in place.

    Every theta-shifted factorial (z q^s; q, p)_L is a window of this
    ladder, so a table of such factorials over many cells costs one theta
    call per distinct index instead of one per factor and cell.  The
    argument of entry j is ``z * q**j``, the association the weight
    formulas use, so values read off a ladder match direct evaluation bit
    for bit.  A ladder belongs to one (q, p) and one working precision:
    a parameter point keeps its ladders (``ParamPoint.thetas``) and drops
    them when read at another precision.  Only :func:`noncomm.frenkel_turaev`,
    which takes derived scalars rather than a point, builds fresh ladders
    for every evaluation.
    """

    __slots__ = ("z", "q", "p", "_basic", "_values")

    def __init__(self, z, q, p):
        self.z = z
        self.q = q
        self.p = p
        self._basic = p == 0
        self._values: dict[int, object] = {}

    def __getitem__(self, j: int):
        value = self._values.get(j)
        if value is None:
            x = self.z * self.q**j
            if not self._basic:
                value = theta(x, self.p)
            elif x == 0:
                raise ZeroArgumentError("theta(x; p) requires x != 0")
            else:
                value = 1 - x
            self._values[j] = value
        return value

    def den(self, j: int):
        """Entry j read as a denominator factor, checked by :func:`guarded`."""
        return guarded(self[j], "denominator theta(%r * q^%d)", self.z, j)

    def fact(self, start: int, length: int):
        """(z q^start; q, p)_length as a product of ladder entries."""
        acc = 1
        for j in range(start, start + length):
            acc = acc * self[j]
        return acc


class ThetaLadders(dict):
    """The ladders of one (q, p), keyed by base: ``ladders[z]`` is the
    :class:`ThetaLadder` of base z, created on first use."""

    def __init__(self, q, p):
        super().__init__()
        self.q = q
        self.p = p

    def __missing__(self, z):
        ladder = self[z] = ThetaLadder(z, self.q, self.p)
        return ladder


def theta_ratio(num, den):
    """prod(num) / prod(den), where num and den are sequences of ladder
    windows (ladder, start, length) holding the same number of factors.

    The ratio is built factor by factor, num[t] / den[t], with callers
    ordering the windows so that paired factors carry nearly the same
    power of q and hence have comparable size: the two separate products
    of forty-odd thetas overflow doubles long before their ratio does.
    Every denominator factor is checked on its own (:meth:`ThetaLadder.den`);
    the product of the factors is never formed, so a product that
    underflows or overflows neither trips nor hides the check.
    """
    acc = 1
    for t, d in zip(_window_entries(num, False), _window_entries(den, True), strict=True):
        acc = acc * (t / d)
    return acc


def _window_entries(windows, denominator: bool):
    for ladder, start, length in windows:
        read = ladder.den if denominator else ladder.__getitem__
        for j in range(start, start + length):
            yield read(j)


def series_with_running_products(num, den, q, m: int, top_ratio):
    """sum_{k=0}^{m} top_ratio(k) * prod(num)_k / prod(den)_k * q^k, where
    num and den are ladder windows (ladder, start) standing for the
    theta-shifted factorials (z q^start; q, p)_k.

    The factorials are maintained as running products: step k multiplies
    in entry start + k - 1 of every numerator ladder and divides out that
    of every denominator ladder (checked by :meth:`ThetaLadder.den`).  At
    p = 0 every entry is the exact factor 1 - z q^j, so the basic families
    run through this kernel too.  Returns the sum and the largest term
    magnitude.
    """
    run = 1
    qk = 1
    total = 0
    scale = 0.0
    for k in range(m + 1):
        if k:
            for ladder, start in num:
                run = run * ladder[start + k - 1]
            for ladder, start in den:
                run = run / ladder.den(start + k - 1)
            qk = qk * q
        term = top_ratio(k) * run * qk
        total = total + term
        scale = max(scale, abs(term))
    return total, scale


def qbinom(n: int, k: int, q):
    """q-binomial coefficient [n, k]_q; zero outside 0 <= k <= n.

    Computed as prod_{j=1}^{k} (1 - q^(n-k+j)) / (1 - q^j) after reducing
    k to min(k, n-k).  Raises if a denominator factor vanishes, i.e. q is
    numerically a root of unity of order <= n.
    """
    if n < 0:
        raise ValueError("q-binomial needs n >= 0")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    num = 1
    den = 1
    for j in range(1, k + 1):
        d = 1 - q**j
        if abs(d) <= DENOMINATOR_GUARD:
            raise RootOfUnityError(f"1 - q^{j} vanished in q-binomial")
        num = num * (1 - q ** (n - k + j))
        den = den * d
    return num / den


def addition_formula_residual(x, y, u, v, p) -> float:
    """Relative residual of the four-term Weierstrass-Riemann relation

        theta(xy, x/y, uv, u/v; p) - theta(xv, x/v, uy, u/y; p)
            = (u/y) theta(yv, y/v, xu, x/u; p),

    normalised by the largest term magnitude.
    """
    t1 = theta_prod((x * y, x / y, u * v, u / v), p)
    t2 = theta_prod((x * v, x / v, u * y, u / y), p)
    t3 = (u / y) * theta_prod((y * v, y / v, x * u, x / u), p)
    scale = max(abs(t1), abs(t2), abs(t3))
    if scale == 0:
        return 0.0
    return float(abs(t1 - t2 - t3) / scale)


def relative_residual(lhs, rhs, *scales) -> float:
    """|lhs - rhs| / max(1, |lhs|, |rhs|, scales...).

    The floor of 1 keeps residuals meaningful when both sides are tiny;
    the extra scales let callers include intermediate term magnitudes so
    that cancellation between large terms is not mistaken for error.
    """
    denom = max(1.0, float(abs(lhs)), float(abs(rhs)), *(float(s) for s in scales))
    return float(abs(lhs - rhs)) / denom
