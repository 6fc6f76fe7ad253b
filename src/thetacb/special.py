"""Scalar kernels: q-shifted factorials, the modified Jacobi theta
function, theta ladders, whose windows are the theta-shifted factorials,
with the ratio, row and series kernels that read them, the denominator
guard, and q-binomial coefficients.

Conventions used throughout the package:

    (x; q)_k        = prod_{l=0}^{k-1} (1 - x q^l),      (x; q)_0 = 1
    theta(x; p)     = prod_{k>=0} (1 - x p^k)(1 - (p/x) p^k)
    (x; q, p)_k     = prod_{l=0}^{k-1} theta(x q^l; p),  (x; q, p)_0 = 1
    [n, k]_q        = (q; q)_n / ((q; q)_k (q; q)_{n-k})

At p = 0 the theta function is the exact closed form 1 - x, which makes
(x; q, 0)_k collapse bit-for-bit onto (x; q)_k.  At any other |p| < 1,
:func:`theta` reduces x by quasi-periodicity and sums the Jacobi triple
product: for a built-in nome as the product of k series at p^k, one rule
for every nome; for an ``mpmath`` nome in one fixed-point pass on Python
integers, rounded once.

All functions are pure; they accept ``complex`` or ``mpmath.mpc`` scalars
and return the matching type.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import reduce
from itertools import starmap
from operator import mul, truediv

from .errors import DegenerateParameterError, DivergenceError, RootOfUnityError, ZeroArgumentError

#: A built-in nome's theta (see :func:`theta`) is a product of k
#: triple-product series at the nome P = p^k, k the least with |P| below
#: this: the largest |P| whose sum loses at most 4 bits to cancellation
#: (:func:`_product_floor_bits`; 4 bits at |P| = 0.318, 5 at 0.319).  So
#: k = 1 below |p| = 0.318 and k = 2 below 0.5639.
SERIES_NOME_BOUND = 0.318

#: theta's argument reduction forms the prefactor (-1)^n x^n p^(n(n-1)/2)
#: directly while |n| |log |x|| + |n(n-1)/2| |log |p||, at least the log of
#: the larger power factor, stays below this, and as exp(log) at or above
#: it: the two power factors can overflow doubles separately even when
#: their product is representable.
LOG_SPACE_MAG = 500.0

#: Bits beyond the working precision carried by the fixed-point theta
#: series for ``mpmath`` scalars, on top of those its sum can lose to
#: cancellation (:func:`_product_floor_bits`).
MP_THETA_GUARD_BITS = 64

#: Default width of the denominator margin: a factor theta(z; p), or
#: 1 - z at p = 0, with |factor| / (1 + |z|) at most this counts as
#: vanished (:func:`within_guard`).  A theta store applies its point's
#: guard to every entry it forms (:class:`ThetaLadders`), and the checks
#: apply it to the q-factors they form and divide by (:func:`q_factor`);
#: a campaign's ``--guard`` sets it.
DEFAULT_GUARD = 1e-6

#: A q-binomial denominator 1 - q^j, and a lattice weight h(i, 0) or
#: 1 - h(0, j) that a table divides by, of magnitude at most this counts
#: as vanished: values no theta store holds.
DENOMINATOR_GUARD = 1e-12


def within_guard(value, z, guard: float) -> bool:
    """True when the denominator factor ``value``, theta(z; p) or at p = 0
    1 - z, lies within the margin ``guard``: |value| / (1 + |z|) <= guard,
    a scale-free modulus that is ~0 near a zero.  A modulus beyond doubles
    counts as an infinite margin.  An ``mpmath`` value is sized in doubles
    first, it and z from their raw parts (:func:`_double_abs`): a double
    margin above twice the guard puts the exact one above the guard, at a
    fraction of its cost, so only a value that fails that test, or whose
    sizing leaves doubles, takes the margin in mpmath arithmetic."""
    if type(value) is not complex:
        try:
            if _double_abs(value) / (1.0 + _double_abs(z)) > 2 * guard:
                return False
        except OverflowError:
            pass  # sized exactly below
    try:
        return abs(value) / (1 + abs(z)) <= guard
    except OverflowError:
        return False


def _double_abs(v) -> float:
    """|v| in doubles for an ``mpmath`` or built-in scalar v: an mpmath
    value from its raw mpf parts, each mantissa scaled by ``math.ldexp``
    (``OverflowError`` beyond doubles), then ``math.hypot``."""
    parts = getattr(v, "_mpc_", None)
    if parts is not None:
        (_, mr, er, _), (_, mi, ei, _) = parts
        return math.hypot(math.ldexp(mr, er), math.ldexp(mi, ei))
    parts = getattr(v, "_mpf_", None)
    if parts is not None:
        return math.ldexp(parts[1], parts[2])
    return abs(v)


def q_factor(z, guard: float):
    """The denominator factor 1 - z, which raises
    ``DegenerateParameterError`` when it lies within ``guard``
    (:func:`within_guard`), the margin of a theta store's p = 0 entries."""
    value = 1 - z
    if within_guard(value, z, guard):
        raise DegenerateParameterError(f"denominator factor 1 - {z!r} within the guard")
    return value


def qpoch(x, q, k: int, guard: float | None = None):
    """q-shifted factorial (x; q)_k for nonnegative integer k.  With a
    ``guard`` it is a denominator: each factor 1 - x q^l is checked by
    :func:`q_factor`, with the bits of the unchecked product."""
    if k < 0:
        raise ValueError("q-shifted factorial needs k >= 0")
    acc = 1
    xq = x
    for _ in range(k):
        acc = acc * (1 - xq if guard is None else q_factor(xq, guard))
        xq = xq * q
    return acc


def theta(x, p, _nome=None):
    """Modified Jacobi theta function theta(x; p) = (x, p/x; p)_infinity.

    p = 0 returns the exact closed form 1 - x.  For p != 0 the argument is
    first moved into the annulus |p|^(1/2) <= |x'| < |p|^(-1/2) with the
    quasi-periodicity theta(x; p) = (-1)^n x^n p^(n(n-1)/2) theta(p^n x; p),
    n = round(-log |x| / log |p|), which keeps the value accurate for very
    large or very small arguments.  For a built-in nome, theta(x'; p) is then the
    Jacobi triple product (Gasper-Rahman, *Basic Hypergeometric Series*,
    ch. 11) with its terms j and 1 - j paired: at a nome P,

        theta(y; P) = (1 - y) sum_{j>=1} c_j S_j,
        c_j = (-1)^(j+1) P^(j(j-1)/2) / (P; P)_inf,  S_j = sum_{|l|<j} y^l,

    (:func:`_theta_sum`) for y in the annulus of P, with the coefficients
    and their count from the nome (:class:`_Nome`).  It runs at P = p^k,
    k the least with |P| below ``SERIES_NOME_BOUND`` (k = 1 below
    |p| = 0.318, 2 below 0.5639, 23 at 0.95), where
    (x; p)_inf = prod_{i<k} (x p^i; p^k)_inf gives

        theta(x'; p) = prod_{i<k} theta(x' p^i; p^k),

    factor i taken as theta(p^(k-i) / x'; p^k), its equal, when
    |x' p^i| < |P|^(1/2), so that every argument lies in the annulus of
    P.  The factors are multiplied left to right, then by the prefactor.
    This is the one rule for every built-in nome; each series loses at
    most 4 bits to cancellation (:func:`_product_floor_bits`).
    A built-in complex value that is not finite raises ``OverflowError``,
    as an overflow in the reduction does.

    An ``mpmath`` nome (real or complex) takes one pass on Python integers
    (:func:`_mp_theta_product`): the reduction, its prefactor and the
    series at p are formed there, x converted to the nome's context if it
    is not of it, and the value is rounded once to the working precision.
    An ``mpmath`` argument with a built-in nome is evaluated at the nome
    converted to the argument's context.

    ``_nome`` is internal: a theta ladder passes the values of p its
    store shares between its thetas (:class:`_Nome`), so that they are
    computed once per store instead of once per call.  The value does not
    depend on it.
    """
    if not x:
        raise ZeroArgumentError("theta(x; p) requires x != 0")
    if _nome is None:
        if p == 0:
            return 1 - x
        _nome = _nome_of(x, p)
    nome = _nome
    if nome.wp is not None:
        return _mp_theta_product(x, nome)
    # the reduction: x' = x p^n, n = round(-log |x| / log |p|), and the
    # prefactor (-1)^n x^n p^(n(n-1)/2), its powers of p from the nome's
    # cache; formed directly while |n| |log |x|| + |n(n-1)/2| |log |p||,
    # at least the log of the larger power factor, is below LOG_SPACE_MAG
    log_ap = nome.log_ap
    log_ax = math.log(abs(x))
    n = round(-log_ax / log_ap)
    pref = 1
    if n:
        powers = nome.powers.get(n)
        if powers is None:
            powers = nome.powers[n] = ((-1) ** n, nome.p ** (n * (n - 1) // 2), nome.p**n)
        sign, pe, pn = powers
        if abs(n) * abs(log_ax) + abs(n * (n - 1) / 2) * abs(log_ap) < LOG_SPACE_MAG:
            pref = sign * x**n * pe
        else:
            e = n * (n - 1) // 2
            pref = sign * cmath.exp(n * cmath.log(x) + e * cmath.log(nome.p))
        x = x * pn
    coeffs = nome.series
    value = _theta_sum(x, coeffs)
    for edge, up, down in nome.shifts:
        value = value * _theta_sum(x * up if abs(x) >= edge else down / x, coeffs)
    value = pref * value
    if isinstance(value, complex) and not cmath.isfinite(value):
        raise OverflowError("theta(x; p) overflowed double precision")
    return value


def _theta_sum(x, coeffs):
    """(1 - x) sum_k c_k S_k for the coefficients c_k of theta's series at
    one built-in nome, S_k = sum_{|i|<k} x^i running by
    S_(k+1) = t S_k - S_(k-1) from S_0 = -1 and S_1 = 1, t = x + 1/x:
    theta at x for x in the nome's annulus (see :func:`theta`)."""
    t = x + 1 / x
    acc = 0
    s, last = 1, -1
    for c in coeffs:
        acc = acc + c * s
        s, last = t * s - last, s
    return (1 - x) * acc


def _nome_of(x, p) -> _Nome:
    """The nome :func:`theta` evaluates theta(x; p) at: p, converted to the
    context of x when x is an ``mpmath`` scalar."""
    ctx = getattr(x, "context", None)
    return _Nome(p if ctx is None else ctx.convert(p))


class _Nome:
    """The values of one nome p that all thetas theta(x; p) share, computed
    when the nome is made, at the working precision of that moment (the
    ``mpmath`` context's for mpmath scalars):

    * ``log_ap`` = log |p|;
    * ``powers``: the reduction's powers of p by exponent n, filled as
      arguments need them: for a built-in nome ((-1)^n, p^(n(n-1)/2), p^n)
      (see :func:`theta`), for an mpmath one their integer forms
      (:func:`_mp_powers`);
    * ``wp``, None for a built-in nome, and for an mpmath one the
      fractional bits of its fixed-point values: the working precision,
      ``MP_THETA_GUARD_BITS`` and the bits the series can lose to
      cancellation (:func:`_product_floor_bits`);
    * ``series``, the coefficients of theta's triple-product series,
      (-1)^(j+1) P^(j(j-1)/2) / (P; P)_inf for j = 1 .. K
      (:func:`_series_terms`): for an mpmath nome in fixed point at its
      ``wp``, P = p; for a built-in one as doubles (:func:`_double_series`),
      P = p^k, k the least with |P| below ``SERIES_NOME_BOUND``;
    * ``shifts``, for a built-in nome, one (edge, p^i, p^(k-i)) for each
      factor i = 1 .. k-1 of theta after the first (see :func:`theta`):
      the argument x' p^i while |x'| >= edge = |p|^(k/2-i), p^(k-i) / x'
      below it, empty for k = 1.  The powers are running products of p,
      so that P = p p at k = 2.

    |p| >= 1 raises ``DivergenceError``.  Every value is the same
    expression however many thetas read it and in whatever order, so
    sharing one instance changes no bit of any theta.  A theta store makes
    its nome on its first theta read and is the one owner of its
    precision (:class:`ThetaLadders`).
    """

    __slots__ = ("p", "log_ap", "powers", "wp", "series", "shifts")

    def __init__(self, p):
        self.p = p
        ctx = _mp_context(p)
        # an mpmath nome is sized from its integer form: its modulus may
        # lie outside the range of doubles
        log_ap = (math.log(abs(complex(p))) if ctx is None
                  else _log_abs(_exact(_mp_parts(p))))
        if log_ap >= 0:
            raise DivergenceError("theta(x; p) requires |p| < 1")
        self.log_ap = log_ap
        self.powers = {}
        r = math.exp(log_ap)
        if ctx is not None:
            self.wp = ctx.prec + MP_THETA_GUARD_BITS + _product_floor_bits(r)
            self.series = _series_terms(p, log_ap, self.wp)
            return
        self.wp = None
        k, rk = 1, r
        while rk >= SERIES_NOME_BOUND:
            k, rk = k + 1, rk * r
        p_powers = [p]  # p^(i+1) at i
        while len(p_powers) < k:
            p_powers.append(p_powers[-1] * p)
        self.series = _double_series(p_powers[-1], k * log_ap)
        self.shifts = tuple((math.exp((k / 2 - i) * log_ap), p_powers[i - 1],
                             p_powers[k - i - 1]) for i in range(1, k))


def _product_floor_bits(r: float) -> int:
    """Bits of a fixed-point sum that theta's series can lose, for
    |p| = r.  The series (:func:`_mp_theta_product`) sums
    B / (p; p)_inf, B = (p; p)_inf (p x', p/x'; p)_inf, with an absolute
    error of a few units of 2^-wp / |(p; p)_inf| per term, while the
    modulus of B in the annulus can be as small as

        prod_{k>=1} (1 - r^k) * prod_{j>=0} (1 - r^(j+1/2))^2

    (|x' p^(j+1)| and |p^(j+1) / x'| are at most r^(j+1/2)).  The first
    product, the cancellation by (p; p)_inf, is about 2 bits at r = 0.5
    and 232 at r = 0.99; the second, the floor of the factors of theta
    other than 1 - x', nearly 0 bits for small r, 92 at r = 0.95 and 472
    at r = 0.99.  One loop runs over the powers r^(h/2), h >= 1: weight 2
    at odd h, 1 at even h."""
    bits = 0.0
    step = math.sqrt(r)
    e, weight = step, 2
    while e > 1e-20:
        bits -= weight * math.log1p(-e)
        e *= step
        weight = 3 - weight
    return math.ceil(bits / math.log(2))


def _double_series(p, log_ap: float) -> tuple:
    """The coefficients of theta's series for a built-in nome p with
    log |p| = ``log_ap`` as doubles (floats for a float p): those of
    :func:`_series_terms` at 53 bits plus those the sum can lose to
    cancellation (:func:`_product_floor_bits`), so that the dropped tail
    stays under a unit of 2^-53 of theta, each rounded once, a quotient of
    Python integers being correctly rounded."""
    wp = sys.float_info.mant_dig + _product_floor_bits(math.exp(log_ap))
    w, coeffs = _series_terms(p, log_ap, wp)
    one = 1 << w
    if isinstance(p, complex):
        return tuple(complex(cr / one, ci / one) for cr, ci in coeffs)
    return tuple(cr / one for cr, _ in coeffs)


def _series_terms(p, log_ap: float, wp: int) -> tuple:
    """The coefficients of theta's series (:func:`theta`) for the nome p,
    an mpmath or built-in scalar with log |p| = ``log_ap``, at ``wp``
    bits: (w, coefficients), entry k - 1 of the list, k = 1 .. K, being
    (-1)^(k+1) p^(k(k-1)/2) / (p; p)_inf as a complex (re, im) in fixed
    point with w fractional bits.

    Term k of B is at most (2k - 1) |p|^((k-1)^2/2) in the annulus; K + 1
    is the first k whose bound is below 2^-(wp+1).  From there each bound
    is at most half the last (under 5 % for |p| up to 0.9995 and working
    precisions of 53 to 1000 bits, with the bits ``wp`` carries for
    cancellation), so the dropped tail is under 2^-wp.  w = wp + e, with
    2^e a bound of |S_K|, (2K - 1) |p|^(-(K-1)/2): a unit of 2^-w in a
    coefficient then moves its term by at most a unit of 2^-wp, however
    tiny the coefficient and large the power of x' it multiplies.  The
    counts come from log |p|, not from testing the values: a fixed-point
    power truncated towards -infinity never reaches 0 when negative.

    Every value is a running product at w fractional bits: the powers
    p^i; (p; p)_inf = sum_j (-1)^j p^(j(3j-1)/2) over all integers j
    (Euler's pentagonal number theorem), its terms kept while at least
    2^-(w+1); its reciprocal, divided once; and the coefficients, each the
    last times p^k."""
    lr = -log_ap / math.log(2)
    count = 1
    while math.log2(2 * count + 1) - count * count / 2 * lr >= -wp - 1:
        count += 1
    w = wp + math.ceil(math.log2(2 * count - 1) + (count - 1) / 2 * lr) + 1
    # Euler's series in pairs j >= 1 of exponents j(3j-1)/2 and j(3j+1)/2
    j_max = 0
    while (j_max + 1) * (3 * j_max + 2) / 2 * lr <= w + 1:
        j_max += 1
    p = _to_fixed(p, w)
    powers = [(1 << w, 0), p]
    while len(powers) < max(count, 2 * j_max):
        powers.append(_fixed_mul(powers[-1], p, w))
    er, ei = power = powers[0]
    for j in range(1, j_max + 1):
        # exponents 0, 1, 2, 5, 7, 12, 15, ...: up by 2j - 1 to j(3j-1)/2,
        # then by j to j(3j+1)/2
        for step in (powers[2 * j - 1], powers[j]):
            power = _fixed_mul(power, step, w)
            er, ei = (er - power[0], ei - power[1]) if j % 2 else (er + power[0], ei + power[1])
    mod2 = er * er + ei * ei
    coeff = (er << 2 * w) // mod2, (-ei << 2 * w) // mod2
    coeffs = [coeff]
    for k in range(1, count):
        coeff = _fixed_mul(coeff, powers[k], w)
        coeffs.append((-coeff[0], -coeff[1]) if k % 2 else coeff)
    return w, coeffs


def _to_fixed(p, w: int) -> tuple:
    """The scalar p, mpmath or built-in, as a complex (re, im) in fixed
    point with w fractional bits, truncated towards -infinity part by
    part, as ``to_fixed`` truncates; a float is read exactly."""
    if _mp_context(p) is None:
        p = complex(p)
        return tuple((n << w) // d for n, d in (p.real.as_integer_ratio(),
                                                p.imag.as_integer_ratio()))
    if _to_fixed_raw is None:
        _bind_libmp()
    return tuple(_to_fixed_raw(t, w) for t in _mp_parts(p))


def _fixed_mul(a, b, w: int) -> tuple:
    """The product of two complex fixed-point values (re, im) with w
    fractional bits, truncated towards -infinity part by part."""
    return (a[0] * b[0] - a[1] * b[1]) >> w, (a[0] * b[1] + a[1] * b[0]) >> w


def _mp_parts(v) -> tuple:
    """The two raw mpf parts (real, imaginary) of an mpmath real or complex."""
    if hasattr(v, "_mpc_"):
        return v._mpc_
    if _fzero is None:
        _bind_libmp()
    return v._mpf_, _fzero


#: mpmath's raw-number functions ``from_man_exp`` and ``to_fixed`` and its
#: raw zero ``fzero``, bound on the first 40-digit use (:func:`_bind_libmp`),
#: so that a double campaign never loads mpmath.
_from_man_exp = _to_fixed_raw = _fzero = None


def _bind_libmp() -> None:
    """Bind ``_from_man_exp``, ``_to_fixed_raw`` and ``_fzero`` to mpmath's
    own, once, instead of importing them on every call."""
    global _from_man_exp, _to_fixed_raw, _fzero
    from mpmath.libmp import from_man_exp, fzero, to_fixed

    _from_man_exp, _to_fixed_raw, _fzero = from_man_exp, to_fixed, fzero


def _mp_theta_product(x, nome: _Nome):
    """theta(x; p) for the mpmath nome p of ``nome`` (current) and an
    argument x, converted to p's context unless it is of it, in one pass
    on Python integers, rounded once to the working precision.

    The reduction exponent n is computed in doubles from log |x|, which
    :func:`_log_abs` takes from the integer form of x, so |x| may lie
    outside the range of doubles.  Values are exact Python integers or,
    where marked, integers with ``wp`` significant or fractional bits (the
    nome's ``wp``): complex ones as (re, im, e), worth (re + i im) 2^e.

    * 1 - x', x' = x p^n, is the only factor that can come near zero in
      the annulus, so it is formed without losing the bits its
      cancellation keeps: exactly for n >= 0, from the exact power p^n
      (:func:`_mp_powers`); for n < 0 as (p^-n - x) p^n, the difference
      exact and p^n = 1 / p^-n with ``wp`` significant bits.  Kept to
      ``wp`` significant bits, it is multiplied in last, so the relative
      error stays a few units of the working precision however small the
      value is; theta(x; p) is exactly 0 when x p^n is exactly 1.
    * The rest of theta(x'; p), B / (p; p)_inf with
      B = (p; p)_inf (p x', p/x'; p)_inf, is the Jacobi triple product
      (Gasper-Rahman, *Basic Hypergeometric Series*, ch. 11) with its
      terms k and 1 - k paired:

          theta(x'; p) (p; p)_inf = (1 - x') B,
          B = sum_{k>=1} (-1)^(k+1) p^(k(k-1)/2) S_k,  S_k = sum_{|i|<k} x'^i.

      The coefficients c_k = (-1)^(k+1) p^(k(k-1)/2) / (p; p)_inf and
      the term count K come from the nome (:func:`_series_terms`), in
      fixed point with w fractional bits.  S_k runs by
      S_(k+1) = t S_k - S_(k-1) from S_0 = -1 and S_1 = 1, t = x' + 1/x',
      so B is summed by Clenshaw's backward recurrence (:func:`_series_sum`)

          b_k = c_k + t b_(k+1) - b_(k+2),  k = K .. 1,  b_(K+1) = b_(K+2) = 0,
          B = b_1 S_1 - b_2 S_0 = b_1 + b_2,

      one complex product per term: t in fixed point with ``wp``
      fractional bits, the b_k with w, each t b_(k+1) truncated by ``wp``
      bits.  A unit of 2^-w in b_k moves B by a unit of 2^-w |S_k|, and
      w already covers |S_K| >= |S_k|, so the truncations add about
      K 2^-wp to B.  The sum's rounding is absolute; the bits it can lose
      to cancellation are part of ``wp`` (:func:`_product_floor_bits`), so
      its error stays relative.
    * The prefactor (-1)^n x^n p^(n(n-1)/2) is formed with ``wp``
      significant bits: x^n from x, or for n < 0 from 1/x, and the power
      of p from the nome's cache.

    The value is real (an mpf) when x and p are.
    """
    p = nome.p
    ctx = p.context
    if getattr(x, "context", None) is not ctx:
        x = ctx.convert(x)
    wp = nome.wp
    xe = _exact(_mp_parts(x))
    n = round(-_log_abs(xe) / nome.log_ap)
    if n:
        pm, qm, pe = _mp_powers(nome, n)
        # x^n p^(n(n-1)/2); the sign (-1)^n is applied at the end
        pref = _mul(_power(xe if n > 0 else _reciprocal(xe, wp), abs(n), wp), pe)
    if n > 0:
        x1 = _mul(xe, pm)
        f = _sub(_ONE, x1)
    elif n < 0:
        f = _mul(_trim(_sub(pm, xe), wp), qm)
        x1 = _sub(_ONE, f)
    else:
        x1, f = xe, _sub(_ONE, xe)
    f = _trim(f, wp)
    xr, xi = _fixed(x1, wp)
    # t = x' + 1/x', 1/x' = conj(x') / |x'|^2; |p/x'| <= |x'| in the
    # annulus, so where x' is 0 in fixed point (|p| under 2^-2wp), leaving
    # 1/x' out moves the sum by a few units at most
    mod2 = xr * xr + xi * xi
    tr = xr + ((xr << 2 * wp) // mod2 if mod2 else 0)
    ti = xi + ((-xi << 2 * wp) // mod2 if mod2 else 0)
    vr, vi, e = _mul(_series_sum(nome.series, tr, ti, wp), f)
    if n:
        vr, vi, e = _mul((vr, vi, e), pref)
    if n % 2:
        vr, vi = -vr, -vi
    return _mp_round((vr, vi, e), ctx, not hasattr(x, "_mpc_") and not hasattr(p, "_mpc_"))


def _series_sum(series, tr: int, ti: int, wp: int) -> tuple:
    """B = sum_k c_k S_k of :func:`_mp_theta_product` as an integer complex,
    for the nome's ``series`` (w, coefficients c_k in fixed point with w
    fractional bits) and t = tr + i ti in fixed point with ``wp``: by
    Clenshaw's recurrence, b_k at w fractional bits, B = b_1 + b_2."""
    w, coeffs = series
    br = bi = lr = li = 0
    for cr, ci in reversed(coeffs):
        br, bi, lr, li = (cr + ((tr * br - ti * bi) >> wp) - lr,
                          ci + ((tr * bi + ti * br) >> wp) - li, br, bi)
    return br + lr, bi + li, -w


def _mp_powers(nome: _Nome, n: int) -> tuple:
    """The integer forms of the reduction's powers of the mpmath nome p
    for exponent n != 0, from the nome's ``powers`` cache: p^|n| exact,
    p^n with ``wp`` significant bits for n < 0 (None for n > 0), and
    p^(n(n-1)/2) with ``wp`` significant bits."""
    cached = nome.powers.get(n)
    if cached is None:
        wp = nome.wp
        p = _exact(_mp_parts(nome.p))
        pm = _power(p, abs(n), None)
        e = n * (n - 1) // 2
        cached = nome.powers[n] = (pm, _reciprocal(pm, wp) if n < 0 else None,
                                   _power(p, e, wp) if e else _ONE)
    return cached


#: 1 as an integer complex (re, im, e), see :func:`_mp_theta_product`.
_ONE = (1, 0, 0)


def _exact(parts) -> tuple:
    """Two raw mpf parts as one exact integer complex (re, im, e); a zero
    part takes the other's exponent."""
    (sr, mr, er, _), (si, mi, ei, _) = parts
    if not mi:
        return (-mr if sr else mr), 0, er
    if not mr:
        return 0, (-mi if si else mi), ei
    e = min(er, ei)
    return (-mr if sr else mr) << (er - e), (-mi if si else mi) << (ei - e), e


def _log_abs(a) -> float:
    """log |a| in doubles for a nonzero integer complex a, however far |a|
    lies outside the range of doubles: the parts are cut to 60 bits, and
    a power of 2 beyond that range is added to the log instead of scaling
    the modulus."""
    r, i, e = a
    s = max(r.bit_length(), i.bit_length()) - 60
    if s > 0:
        r, i, e = r >> s, i >> s, e + s
    h = math.hypot(r, i)
    if -1000 < e < 900:
        return math.log(math.ldexp(h, e))
    return math.log(h) + e * math.log(2)


def _mp_round(a, ctx, real: bool):
    """The integer complex a rounded once, part by part, to the working
    precision of the mpmath context ``ctx`` in its rounding mode: an mpf
    when ``real`` (a's imaginary part is then 0), else an mpc."""
    if _from_man_exp is None:
        _bind_libmp()
    prec, rnd = ctx._prec_rounding
    r, i, e = a
    re = _from_man_exp(r, e, prec, rnd)
    if real:
        return ctx.make_mpf(re)
    return ctx.make_mpc((re, _from_man_exp(i, e, prec, rnd)))


def _mp_context(v):
    """The context of v when v is an mpmath real or complex, else None
    (at once for a built-in complex, the double campaigns' scalar)."""
    if type(v) is complex:
        return None
    return v.context if hasattr(v, "_mpc_") or hasattr(v, "_mpf_") else None


def _mp_product(values, ctx, wp: int, acc=_ONE) -> tuple:
    """(a, real): ``acc`` times the product of ``values`` as an integer
    complex a, each partial product truncated to ``wp`` significant bits
    in its larger part as :func:`_trim` truncates, and whether every value
    is real (an mpf).  A value is an mpmath scalar, read exactly as
    :func:`_exact` reads it, or one that ``ctx.convert`` makes one.

    The loop is written out rather than built from :func:`_exact`,
    :func:`_mul` and :func:`_trim`: on rows of 40-digit factors their calls
    cost about a third of the product's time."""
    r, i, e = acc
    real = True
    for v in values:
        parts = getattr(v, "_mpc_", None)
        if parts is None:
            if not hasattr(v, "_mpf_"):
                v = ctx.convert(v)
            parts = _mp_parts(v)
            real = real and not hasattr(v, "_mpc_")
        else:
            real = False
        (sr, mr, er, _), (si, mi, ei, _) = parts
        if sr:
            mr = -mr
        if si:
            mi = -mi
        # one exponent for both parts; a zero part takes the other's
        if not mr:
            er = ei
        elif mi:
            if er > ei:
                mr, er = mr << (er - ei), ei
            elif ei > er:
                mi <<= ei - er
        r, i, e = r * mr - i * mi, r * mi + i * mr, e + er
        excess = max(r.bit_length(), i.bit_length()) - wp
        if excess > 0:
            r, i, e = r >> excess, i >> excess, e + excess
    return (r, i, e), real


def _fixed(a, wp: int) -> tuple:
    """The integer complex a in fixed point with wp fractional bits,
    truncated towards -infinity part by part, as ``to_fixed`` truncates."""
    r, i, e = a
    s = e + wp
    return (r << s, i << s) if s >= 0 else (r >> -s, i >> -s)


def _mul(a, b) -> tuple:
    """The exact product of two integer complexes."""
    ar, ai, ae = a
    br, bi, be = b
    return ar * br - ai * bi, ar * bi + ai * br, ae + be


def _sub(a, b) -> tuple:
    """The exact difference a - b of two integer complexes."""
    ar, ai, ae = a
    br, bi, be = b
    e = min(ae, be)
    return (ar << (ae - e)) - (br << (be - e)), (ai << (ae - e)) - (bi << (be - e)), e


def _trim(a, bits) -> tuple:
    """a truncated to ``bits`` significant bits in its larger part (a
    itself when ``bits`` is None or a is no longer)."""
    r, i, e = a
    excess = 0 if bits is None else max(r.bit_length(), i.bit_length()) - bits
    return (r >> excess, i >> excess, e + excess) if excess > 0 else a


def _power(a, k: int, bits) -> tuple:
    """a^k for k >= 1 by squaring, each product truncated to ``bits``
    significant bits (:func:`_trim`; exact when ``bits`` is None)."""
    out = None
    while True:
        if k & 1:
            out = a if out is None else _trim(_mul(out, a), bits)
        k >>= 1
        if not k:
            return out
        a = _trim(_mul(a, a), bits)


def _reciprocal(a, bits: int) -> tuple:
    """1 / a for a nonzero integer complex a, with ``bits`` significant
    bits: conj(a) / |a|^2, each part divided once."""
    r, i, e = a
    k = bits + max(r.bit_length(), i.bit_length())
    d = r * r + i * i
    return (r << k) // d, (-i << k) // d, -e - k


def theta_prod(args, p, _nome=None):
    """Product of theta functions theta(x1, ..., xs; p).

    The thetas share one nome (:class:`_Nome`), made from the first
    argument as :func:`theta` makes its own, so for arguments of one type
    each factor has the bits of a separate call.  ``_nome`` is internal:
    :func:`addition_formula_residual` passes one nome to its three
    products."""
    acc = 1
    for x in args:
        if _nome is None and p != 0:
            _nome = _nome_of(x, p)
        acc = acc * theta(x, p, _nome)
    return acc


class ThetaLadder(dict):
    """The dict j -> theta(z q^j; p) for integer j (negative j allowed):
    ``__missing__`` evaluates entry j on its first read, by :func:`theta`
    (at p = 0 by theta's closed form 1 - z q^j, formed in place), and keeps
    it, so a later read is a plain dict lookup.

    Every theta-shifted factorial (z q^s; q, p)_L is a window of this
    ladder, so a table of such factorials over many cells costs one theta
    call per distinct index instead of one per factor and cell.  The
    argument of entry j is ``z * q**j``, the association the weight
    formulas use, so values read off a ladder match direct evaluation bit
    for bit; at an ``mpmath`` q it is mpmath's own product of z and the
    store's power q**j.

    ``ThetaLadders(q, p, guard)[z]`` makes a ladder.  It reads the values
    its store shares (``shared``, a :class:`_Shared`: q, p, the nome, for
    an ``mpmath`` q the powers q**j, the guard and the precision), not the
    store, so no ladder references its store and a store is freed by
    reference counting, without the cyclic collector.  Each entry is
    tested against the guard once, when it is formed
    (:func:`within_guard`), and one within it raises when it is read as a
    denominator (:meth:`den`), whichever read formed it.
    """

    __slots__ = ("z", "shared", "_flagged")

    def __init__(self, z, shared: _Shared):
        super().__init__()
        self.z = z
        self.shared = shared
        self._flagged: set[int] = set()  # the indices within the guard

    def __missing__(self, j: int):
        shared = self.shared
        if shared.prec is not None and shared.context.prec != shared.prec:
            raise ValueError(f"theta store made at a working precision of {shared.prec} "
                             f"bits read at {shared.context.prec}")
        powers = shared.q_powers
        x = self.z * (shared.q**j if powers is None else powers[j])
        if shared.basic:
            if x == 0:
                raise ZeroArgumentError("theta(x; p) requires x != 0")
            value = 1 - x
        else:
            nome = shared.nome
            if nome is None:
                nome = shared.nome = _Nome(shared.p)
            value = theta(x, shared.p, nome)
        if within_guard(value, x, shared.guard):
            self._flagged.add(j)
        self[j] = value
        return value

    def den(self, j: int):
        """Entry j read as a denominator factor: it raises
        ``DegenerateParameterError`` when the entry lies within the store's
        guard, as tested when it was formed."""
        value = self[j]
        if self._flagged and j in self._flagged:
            raise DegenerateParameterError(
                f"denominator theta({self.z!r} * q^{j}) within the guard {self.shared.guard}")
        return value


class _PowersOfQ(dict):
    """The powers q**j of an ``mpmath`` q that the ladders of one store form
    their arguments from, each the expression a read forms, computed once
    on first use and kept under j, at the precision the store was made at.
    At 40 digits a power costs several µs; a built-in q has no table, as
    its power costs less than a table's miss."""

    def __init__(self, q):
        super().__init__()
        self.q = q

    def __missing__(self, j):
        value = self[j] = self.q**j
        return value


class _Shared:
    """The values one store (:class:`ThetaLadders`) and its ladders share:
    ``q``, ``p``, the ``guard``, ``basic`` (p = 0), the ``nome``, the
    ``q_powers`` and the working precision (``context``, ``prec``), each
    described there.  Slotted, as every ladder entry formed reads them."""

    __slots__ = ("q", "p", "guard", "basic", "nome", "q_powers", "context", "prec")

    def __init__(self, q, p, guard: float):
        self.q = q
        self.p = p
        self.guard = guard
        self.basic = p == 0
        self.nome = None
        ctx = _mp_context(q)
        self.q_powers = None if ctx is None else _PowersOfQ(q)
        self.context = ctx = _mp_context(p) if ctx is None else ctx
        self.prec = None if ctx is None else ctx.prec


class ThetaLadders(dict):
    """The ladders of one (q, p), keyed by base: ``ladders[z]`` is the
    :class:`ThetaLadder` of base z, created on first use.

    The store owns what its thetas share of the nome p (``nome``, a
    :class:`_Nome` made on the first theta read, so a store at p = 0 or at
    |p| >= 1 can be made and the latter raises only when read): log |p|,
    the reduction's powers of p and the coefficients of theta's series;
    and for an ``mpmath`` q the powers of q its ladders' arguments are
    formed from (``q_powers``, a :class:`_PowersOfQ`; None for a built-in
    q).  A store with an ``mpmath`` q or p belongs to the working
    precision it was made at (``prec``, the precision of ``context``, q's
    context, or p's for a built-in q; None for built-in q and p): forming
    an entry at another precision raises ``ValueError``, so no value
    computed at 15 digits enters a 40-digit theta (a parameter point
    starts a fresh store instead, ``ParamPoint.thetas``).  ``guard`` is
    the denominator margin its ladders test each entry against
    (:class:`ThetaLadder`).

    These values live in one :class:`_Shared` (``shared``), which the
    store and its ladders reference and which references neither; they
    read as the store's own attributes."""

    __slots__ = ("shared",)

    def __init__(self, q, p, guard: float = DEFAULT_GUARD):
        super().__init__()
        self.shared = _Shared(q, p, guard)

    def __missing__(self, z):
        ladder = self[z] = ThetaLadder(z, self.shared)
        return ladder

    def __getattr__(self, name):
        if name == "shared":  # unset: a store made without __init__
            raise AttributeError(name)
        return getattr(self.shared, name)


def theta_ratio(num, den):
    """prod(num) / prod(den), where num and den are sequences of ladder
    windows (ladder, start, length) holding the same number of factors
    (``ValueError`` otherwise).

    The ratio is built factor by factor, num[t] / den[t], with callers
    ordering the windows so that paired factors carry nearly the same
    power of q and hence have comparable size: the two separate products
    of forty-odd thetas overflow doubles long before their ratio does.
    Every denominator factor is checked on its own (:meth:`ThetaLadder.den`);
    the product of the factors is never formed, so a product that
    underflows or overflows neither trips nor hides the check.

    This is the kernel of one-off windows.  A table of cells of one
    closed form goes through :func:`ratio_rows`, which gives every cell
    the bits this function gives it.  Built-in factors are multiplied as
    the paired ratios num[t] / den[t] (:func:`_ratio_product`).  When the
    first numerator is an ``mpmath`` scalar, the factors are multiplied on
    Python integers and the ratio rounded once (:func:`_mp_ratio`); unequal
    counts then raise before any product, with the message of
    :func:`ratio_row`.
    """
    tops = [ladder[j] for ladder, start, length in num for j in range(start, start + length)]
    bottoms = [ladder.den(j) for ladder, start, length in den
               for j in range(start, start + length)]
    ctx = _mp_context(tops[0]) if tops else None
    if ctx is None:
        return _ratio_product(starmap(truediv, zip(tops, bottoms, strict=True)))
    if len(tops) != len(bottoms):
        raise ValueError(f"{len(tops)} numerator factors against {len(bottoms)} denominators")
    return _mp_ratio(tops, bottoms, ctx)


def _ratio_product(ratios):
    """The product of the paired ratios of built-in scalars, multiplied
    left to right from 1: the one row-product loop of :func:`theta_ratio`
    and :func:`ratio_rows` for them; exactly 1 for an empty row."""
    return reduce(mul, ratios, 1)


def _mp_ratio(tops, bottoms, ctx):
    """prod(tops) / prod(bottoms) for two iterables of the same number of
    ``mpmath`` values of context ``ctx``: the row-product loop of
    :func:`theta_ratio` and :func:`ratio_rows` for them.

    The numerators and the denominators are two running products on
    Python integers (:func:`_mp_product`), each kept to the working
    precision plus ``MP_THETA_GUARD_BITS`` significant bits; the quotient
    takes one reciprocal and is rounded once (:func:`_mp_round`), an mpf
    when every factor is one.  Its error is then at most about one unit of
    2^-prec, where the chain of rounded mpc divisions and products of the
    paired ratios gave up to 8 on rows of 40 factors."""
    wp = ctx.prec + MP_THETA_GUARD_BITS
    top, top_real = _mp_product(tops, ctx, wp)
    low, low_real = _mp_product(bottoms, ctx, wp)
    return _mp_round(_mul(top, _reciprocal(low, wp)), ctx, top_real and low_real)


#: The one tuple of each entry id (role, j), shared by every compiled row,
#: so that the rows forms cache hold references rather than copies.
_ENTRY_IDS: dict = {}

#: The paired factors (numerator entry id, denominator entry id) of the
#: compiled rows, by int pair id (:func:`ratio_row`), and the id of each.
_PAIRS: list = []
_PAIR_IDS: dict = {}


class _Row:
    """A compiled row (:func:`ratio_row`): ``num`` and ``den``, the tuples
    of its (role, j) entry ids, and ``pairs``, the int id of each paired
    factor (num[t], den[t]).  It unpacks as (num, den)."""

    __slots__ = ("num", "den", "pairs")

    def __init__(self, num, den, pairs):
        self.num, self.den, self.pairs = num, den, pairs

    def __iter__(self):
        return iter((self.num, self.den))


def ratio_row(num, den) -> _Row:
    """One :func:`theta_ratio` compiled to entry ids: num and den are
    windows (role, start, length) over the ladder roles of a form, and the
    row holds the tuples of the (role, j) entries they hold, in
    :func:`theta_ratio`'s pairing order, and an int id for each pair of
    entries, shared by every row that pairs the same two entries
    (:class:`_Row`).  Unequal factor counts raise ``ValueError``.  A row
    does not depend on the point, so a form can cache its cells' rows."""
    tops, bottoms = (tuple(_ENTRY_IDS.setdefault((role, j), (role, j))
                           for role, start, length in windows
                           for j in range(start, start + length))
                     for windows in (num, den))
    if len(tops) != len(bottoms):
        raise ValueError(f"{len(tops)} numerator factors against {len(bottoms)} denominators")
    pairs = []
    for pair in zip(tops, bottoms):
        k = _PAIR_IDS.get(pair)
        if k is None:  # a pair no row has held: the next id
            k = _PAIR_IDS[pair] = len(_PAIRS)
            _PAIRS.append(pair)
        pairs.append(k)
    return _Row(tops, bottoms, tuple(pairs))


def ratio_rows(ladders, rows) -> list:
    """The value of each row of the sequence ``rows`` (see
    :func:`ratio_row`), with ``ladders[role]`` the ladder of each role:
    the value :func:`theta_ratio` gives the same windows, bit for bit.

    A call of more than one row whose first numerator is a built-in
    scalar forms each distinct paired ratio of the call once
    (:func:`_paired_rows`); every row of a call holds values of one
    numeric type.  Otherwise one loop reads each row as
    :func:`theta_ratio` reads its windows: its numerators through
    ``ladder[j]``, then its denominators through ``ladder.den(j)``, which
    guards them, and forms it by the loop of :func:`theta_ratio` for the
    type of its first numerator: the paired ratios of built-in scalars, or
    the integer products of ``mpmath`` ones (:func:`_mp_ratio`); an empty
    row is exactly 1.  The store forms each distinct entry once, on its
    first read, and the first read that raises is the one a loop of
    :func:`theta_ratio` calls over the rows would raise first.
    """
    if len(rows) > 1 and rows[0].num:
        role, j = rows[0].num[0]
        if _mp_context(ladders[role][j]) is None:
            return _paired_rows(ladders, rows)
    out = []
    for row in rows:
        tops = [ladders[role][j] for role, j in row.num]
        bottoms = [ladders[role].den(j) for role, j in row.den]
        ctx = _mp_context(tops[0]) if tops else None
        out.append(_ratio_product(map(truediv, tops, bottoms)) if ctx is None
                   else _mp_ratio(tops, bottoms, ctx))
    return out


def _paired_rows(ladders, rows) -> list:
    """The values of rows of built-in scalars, each distinct paired ratio
    ``ladder[j] / ladder.den(j)`` of the call formed once, by its pair id,
    and each row's ratios multiplied left to right from 1, as
    :func:`theta_ratio` multiplies them.  The ratio of a pair is kept only
    after its denominator's ``den`` returned, so an entry within the guard
    is never kept and raises on every read; a row whose read raises is
    read again alone by :func:`ratio_rows`, which raises what
    :func:`theta_ratio` raises first.  The kept ratios live for the call
    alone."""
    ratios = {}
    out = []
    for row in rows:
        pairs = row.pairs
        try:
            for k in pairs:
                if k not in ratios:
                    (nr, nj), (dr, dj) = _PAIRS[k]
                    ratios[k] = ladders[nr][nj] / ladders[dr].den(dj)
        except Exception:
            # read alone, numerators first, the row raises what
            # theta_ratio raises first on its windows
            out += ratio_rows(ladders, (row,))
            continue
        out.append(_ratio_product(map(ratios.__getitem__, pairs)))
    return out


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

    When q is an ``mpmath`` scalar, the numerator and denominator
    products and q^k are running products on Python integers, as in
    :func:`_mp_ratio`, and each term is rounded once; the sum and
    the largest magnitude are formed from the rounded terms as for
    built-in scalars.
    """
    ctx = _mp_context(q)
    if ctx is not None:
        return _mp_series(num, den, q, m, top_ratio, ctx)
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


def _mp_series(num, den, q, m: int, top_ratio, ctx):
    """:func:`series_with_running_products` for an ``mpmath`` q of context
    ``ctx``: the entries are read in the same order, the running products
    are integer complexes kept to the working precision plus
    ``MP_THETA_GUARD_BITS`` significant bits, and term k, top_ratio(k)
    times the numerators and q^k over the denominators, is rounded once
    (:func:`_mp_round`)."""
    wp = ctx.prec + MP_THETA_GUARD_BITS
    qe, real = _mp_product((q,), ctx, wp)
    top = low = qk = _ONE
    total = 0
    scale = 0.0
    for k in range(m + 1):
        if k:
            top, top_real = _mp_product([ladder[start + k - 1] for ladder, start in num],
                                        ctx, wp, top)
            low, low_real = _mp_product([ladder.den(start + k - 1) for ladder, start in den],
                                        ctx, wp, low)
            qk = _trim(_mul(qk, qe), wp)
            real = real and top_real and low_real
        upper, upper_real = _mp_product((top_ratio(k),), ctx, wp, _mul(top, qk))
        term = _mp_round(_mul(upper, _reciprocal(low, wp)), ctx, real and upper_real)
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

    normalised by the largest term magnitude.  Its twelve thetas share
    one nome.
    """
    args = (x * y, x / y, u * v, u / v)
    nome = None if p == 0 else _nome_of(args[0], p)
    t1 = theta_prod(args, p, nome)
    t2 = theta_prod((x * v, x / v, u * y, u / y), p, nome)
    t3 = (u / y) * theta_prod((y * v, y / v, x * u, x / u), p, nome)
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


def worst_residual(residuals) -> float:
    """The largest of ``residuals`` (0.0 when there are none), or NaN when
    any is NaN: ``max`` keeps whichever of a NaN and a number comes first,
    so a running ``max`` would drop a NaN that is not the first residual."""
    values = list(residuals)
    return math.nan if any(math.isnan(r) for r in values) else max(values, default=0.0)
