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

import numpy as np

from .errors import DegenerateParameterError, DivergenceError, RootOfUnityError, ZeroArgumentError

#: Truncation control for infinite products: factors are kept while
#: |p|^k >= tol * (1 + |x|) * (1 - |p|), so the dropped tail, about
#: |x| |p|^count / (1 - |p|), stays below tol * (1 + |x|) for arguments
#: in the reduced annulus, however near |p| is to 1.  For mpmath
#: scalars the default follows the working precision instead (see
#: :func:`_default_tol`), so extended-precision runs are not truncation
#: limited.
DEFAULT_THETA_TOL = 1e-18

#: theta's argument reduction forms the prefactor (-1)^n x^n p^(n(n-1)/2)
#: directly while :func:`_prefactor_mag` stays below this, and as
#: exp(log) at or above it: the two power factors can overflow doubles
#: separately even when their product is representable.
LOG_SPACE_MAG = 500.0

#: Bits beyond the working precision carried by the fixed-point theta
#: product for ``mpmath`` scalars, on top of those the product can lose
#: by shrinking (:func:`_product_floor_bits`).
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


def theta(x, p, _nome=None):
    """Modified Jacobi theta function theta(x; p) = (x, p/x; p)_infinity.

    p = 0 returns the exact closed form 1 - x.  For p != 0 the argument is
    first moved into the annulus |p|^(1/2) <= |x'| < |p|^(-1/2) with the
    quasi-periodicity theta(x; p) = (-1)^n x^n p^(n(n-1)/2) theta(p^n x; p),
    which keeps the truncated product accurate for very large or very
    small arguments.  A built-in complex value that is not finite raises
    ``OverflowError``, as an overflow in the reduction does.

    ``_nome`` is internal: a theta ladder passes the values of p its
    store shares between its thetas (:class:`_Nome`), so that they are
    computed once per store and precision instead of once per call.  The
    value does not depend on it.
    """
    if not x:
        raise ZeroArgumentError("theta(x; p) requires x != 0")
    if _nome is None:
        if p == 0:
            return 1 - x
        _nome = _Nome(p)
    nome = _nome.current()
    x, n, pref, count = _reduce(x, nome)
    if count > 0 and _mp_complex(x, p):
        acc = _mp_theta_product(x, nome, count)
        return pref * acc if n else acc
    px = p / x
    acc = 1
    pk = 1
    for _ in range(count):
        acc = acc * (1 - x * pk) * (1 - px * pk)
        pk = pk * p
    value = pref * acc
    if isinstance(value, complex) and not cmath.isfinite(value):
        raise OverflowError("theta(x; p) overflowed double precision")
    return value


class _Nome:
    """The values of one nome p that all thetas theta(x; p) share, tied to
    the working precision ``prec`` they were computed at (the ``mpmath``
    context's for mpmath scalars, None for built-in ones):

    * ``log_ap`` = log |p|, and ``powers``: the reduction's
      n -> ((-1)^n, p^(n(n-1)/2), p^n), filled as arguments need them
      (:func:`_powers`), by scalar reductions and batches alike;
    * for an ``mpmath.mpc`` nome, the fixed-point table of the product's
      powers (p^k, p^(2k+1)) for k >= 1, grown on demand
      (:meth:`fixed_table`).

    The values are computed on first use (:meth:`current`), so a nome can
    be made for p = 0, which no theta reads.  Every value is the same
    expression however many thetas read it and in whatever order, so
    sharing one instance changes no bit of any theta.
    """

    __slots__ = ("p", "prec", "log_ap", "powers", "wp", "table", "_step")

    def __init__(self, p):
        self.p = p
        self.log_ap = None

    def current(self) -> _Nome:
        """This nome, its values computed afresh when there are none yet or
        when they belong to another working precision than the current."""
        ctx = getattr(self.p, "context", None)
        prec = None if ctx is None else ctx.prec
        if self.log_ap is None or self.prec != prec:
            ap = abs(self.p)
            if ap >= 1:
                raise DivergenceError("theta(x; p) requires |p| < 1")
            self.prec = prec
            self.log_ap = math.log(float(ap))
            self.powers = {}
            self.wp = None
            self.table = []
        return self

    def fixed_table(self, size: int) -> list:
        """The table with at least ``size`` entries: entry k - 1 is
        (Re p^k, Im p^k, Re p^(2k+1), Im p^(2k+1)) in fixed point with
        ``wp`` fractional bits, each power one truncated product from the
        previous one.  ``wp`` is the working precision plus
        ``MP_THETA_GUARD_BITS`` plus the bits the product can lose to its
        own smallness (:func:`_product_floor_bits`)."""
        table = self.table
        if len(table) >= size:
            return table
        if not table:
            from mpmath.libmp import to_fixed

            wp = self.wp = (self.prec + MP_THETA_GUARD_BITS
                            + _product_floor_bits(float(abs(self.p))))
            pr, pi = (to_fixed(t, wp) for t in self.p._mpc_)
            p2r, p2i = (pr * pr - pi * pi) >> wp, (2 * pr * pi) >> wp
            self._step = pr, pi, p2r, p2i
            table.append((pr, pi, (pr * p2r - pi * p2i) >> wp, (pr * p2i + pi * p2r) >> wp))
        wp = self.wp
        pr, pi, p2r, p2i = self._step
        kr, ki, er, ei = table[-1]
        for _ in range(size - len(table)):
            kr, ki = (kr * pr - ki * pi) >> wp, (kr * pi + ki * pr) >> wp
            er, ei = (er * p2r - ei * p2i) >> wp, (er * p2i + ei * p2r) >> wp
            table.append((kr, ki, er, ei))
        return table


def _product_floor_bits(r: float) -> int:
    """Bits of a fixed-point accumulator that theta's product can use up
    by shrinking, for |p| = r: the factors other than 1 - x have moduli
    at least 1 - r^(j+1/2) in the annulus, each exponent j >= 0 twice
    (|x p^(j+1)| and |(p/x) p^j| are at most r^(j+1/2)), so the running
    product never falls below prod_j (1 - r^(j+1/2))^2.  The bound is
    nearly 1 for small r and about 2^-92 at r = 0.95."""
    bits = 0.0
    e = math.sqrt(r)
    while e > 1e-20:
        bits -= 2.0 * math.log2(1.0 - e)
        e *= r
    return math.ceil(bits)


def _reduce(x, nome: _Nome):
    """theta's argument reduction: (x', n, pref, count) with x' = x p^n in
    the annulus, pref = (-1)^n x^n p^(n(n-1)/2) (1 when n = 0) and count
    the number of factor pairs of the truncated product, so that
    theta(x; p) = pref * prod_{k<count} (1 - x' p^k)(1 - (p/x') p^k).

    The powers of p come from the nome's ``powers`` cache
    (:func:`_powers`); the cached values are the same expressions, so they
    have the same bits.
    """
    p, log_ap = nome.p, nome.log_ap
    ax = float(abs(x))
    log_ax = math.log(ax)
    n = round(-log_ax / log_ap)
    pref = 1
    if n:
        sign, pe, pn = _powers(nome, n)
        if _prefactor_mag(n, log_ax, log_ap) < LOG_SPACE_MAG:
            pref = sign * x**n * pe
        else:
            e = n * (n - 1) // 2
            pref = sign * _exp(n * _log(x) + e * _log(p))
        x = x * pn
        ax = float(abs(x))
    return x, n, pref, _factor_count(ax, log_ap, _default_tol(x, p))


def _prefactor_mag(n, log_ax, log_ap):
    """|n| |log |x|| + |n(n-1)/2| |log |p||, at least the log of the larger
    of |x^n| and |p^(n(n-1)/2)|, for an integer n or an array of them."""
    return abs(n) * abs(log_ax) + abs(n * (n - 1) / 2) * abs(log_ap)


def _factor_count(ax, log_ap: float, tol: float):
    """The number of factor pairs theta's truncated product keeps for a
    reduced argument of modulus ax (a float, or an array of them): factors
    k = 0 .. count-1 are exactly those with |p|^k >= stop, where
    stop = tol (1 + ax)(1 - |p|); the factor 1 - |p| accounts for the
    tail's geometric sum."""
    stop = tol * (1 + ax) * (1 - math.exp(log_ap))
    lib = np if isinstance(stop, np.ndarray) else math
    return lib.floor(lib.log(stop) / log_ap) + 1


def _powers(nome: _Nome, n: int) -> tuple:
    """((-1)^n, p^(n(n-1)/2), p^n) from the nome's ``powers`` cache."""
    cached = nome.powers.get(n)
    if cached is None:
        p = nome.p
        cached = nome.powers[n] = ((-1) ** n, p ** (n * (n - 1) // 2), p**n)
    return cached


def _reduce_many(x, nome: _Nome):
    """:func:`_reduce` on a complex128 array of nonzero arguments and a
    built-in complex nome: arrays (x', n, pref, count, ok), ok False where
    the reduction overflowed.

    n, x' and count are computed on the arrays.  The powers of p for each
    n come from the nome's ``powers`` cache, and x' = x p^n is formed from
    split float64 parts as Python forms a complex product, so x' has the
    bits :func:`_reduce` gives it (next to a zero of theta outside the
    annulus one unit of x' is the whole value).  The prefactor takes x^n
    from numpy's integer power, which may differ from Python's in the
    last units.  An argument whose prefactor needs log space
    (:data:`LOG_SPACE_MAG`) goes through :func:`_reduce` itself.
    """
    log_ap = nome.log_ap
    log_ax = np.log(np.hypot(x.real, x.imag))
    n = np.rint(-log_ax / log_ap)
    in_log_space = _prefactor_mag(n, log_ax, log_ap) >= LOG_SPACE_MAG
    # the arrays reduce an argument in log space by 0; _reduce redoes it
    k = np.where(in_log_space, 0, n).astype(np.int64)
    lo = int(k.min(initial=0))
    powers = [_powers(nome, j) for j in range(lo, int(k.max(initial=0)) + 1)]
    at = k - lo
    sign_pe = np.array([sign * pe for sign, pe, _ in powers])[at]
    pn = np.array([pn for _, _, pn in powers])[at]
    y = np.empty_like(x)
    y.real = x.real * pn.real - x.imag * pn.imag
    y.imag = x.real * pn.imag + x.imag * pn.real
    # at n = 0 the argument stays as it is, signs of zero parts included
    y = np.where(k == 0, x, y)
    pref = np.power(x, k) * sign_pe
    count = _factor_count(np.hypot(y.real, y.imag), log_ap, DEFAULT_THETA_TOL)
    ok = np.ones(x.size, dtype=bool)
    for i in in_log_space.nonzero()[0].tolist():
        try:
            y[i], _, pref[i], count[i] = _reduce(complex(x[i]), nome)
        except OverflowError:
            ok[i] = False
            y[i], count[i] = 1, 0
    return y, n, pref, count, ok


@np.errstate(over="ignore", invalid="ignore")
def _theta_batch(x, nome: _Nome):
    """theta(x, p) at a complex128 array of nonzero arguments x, p the
    built-in ``complex`` nome of ``nome`` (current, 0 < |p| < 1): the
    values as a complex128 array, and a boolean array that is False where
    :func:`theta` raises ``OverflowError``: in the reduction or at the end.

    Each value lies within gamma_(8 count + 2 s) |theta(x, p)| of
    :func:`theta`'s, count being the argument's factor pairs, s the
    prefactor's rounded operations (0 when the reduction exponent n is 0,
    |n| + 2 otherwise) and gamma_k = k u / (1 - k u) with u = 2^-53
    (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3).

    The arguments are reduced on arrays (:func:`_reduce_many`), with the
    reduced arguments x' bit for bit those of :func:`theta`.  The
    truncated products then run as one complex128 product: the powers p^k
    are formed once, the factor matrix (1 - x' p^k)(1 - (p/x') p^k) is set
    to 1 where k >= count, and its rows are multiplied out.
    """
    y, _, pref, count, ok = _reduce_many(x, nome)
    p = nome.p
    pk = np.full(int(count.max(initial=0)), p)
    pk[:1] = 1
    pk = np.cumprod(pk)
    col = y.reshape(-1, 1)
    factors = 1 - col * pk
    factors *= 1 - (p / col) * pk
    factors[np.arange(pk.size) >= count.reshape(-1, 1)] = 1
    values = pref * factors.prod(axis=1)
    return values, ok & np.isfinite(values)


def _mp_complex(x, p) -> bool:
    """True when p is an ``mpmath`` complex and x an ``mpmath`` real or
    complex of the same context."""
    ctx = getattr(p, "context", None)
    return (hasattr(p, "_mpc_") and getattr(x, "context", None) is ctx
            and (hasattr(x, "_mpc_") or hasattr(x, "_mpf_")))


def _mp_theta_product(x, nome: _Nome, count: int):
    """prod_{k<count} (1 - x p^k)(1 - (p/x) p^k) for the ``mpmath.mpc``
    nome p of ``nome`` and an ``mpmath`` real or complex x, evaluated on
    Python integers in fixed point with the nome's ``wp`` fractional bits
    (see :meth:`_Nome.fixed_table`) and rounded once to the working
    precision.

    x lies in the reduced annulus, so 1 - x is the only factor that can
    come near zero.  It is formed exactly and multiplied in last without
    truncation, so the relative error stays a few units of the working
    precision however small the product is; at x = 1 it is exactly 0.
    The other factor of k = 0, 1 - p/x, is multiplied in first.  Each
    later pair is one factor 1 - s p^k + p^(2k+1) with s = x + p/x and
    the powers read from the nome's table (:meth:`_Nome.fixed_table`):
    two complex products per pair.  Its rounding is absolute, but every
    such factor has modulus at least (1 - |p|^(1/2))(1 - |p|^(3/2)) in the
    annulus, so the guard bits keep it relative.
    """
    from mpmath.libmp import from_man_exp, fzero, to_fixed

    ctx = x.context
    prec, rnd = ctx._prec_rounding
    table = nome.fixed_table(max(count - 1, 1))
    wp = nome.wp
    one = 1 << wp
    xc = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)
    xr, xi = (to_fixed(t, wp) for t in xc)
    # p/x = p conj(x) / |x|^2, with the table's p; |p/x| <= |x| in the
    # annulus, so it is 0 in fixed point when x is
    pr, pi = table[0][:2]
    mod2 = xr * xr + xi * xi
    yr = ((pr * xr + pi * xi) << wp) // mod2 if mod2 else 0
    yi = ((pi * xr - pr * xi) << wp) // mod2 if mod2 else 0
    # k = 0 contributes 1 - p/x here and 1 - x at the end
    ar, ai = one - yr, -yi
    sr, si = xr + yr, xi + yi
    for kr, ki, er, ei in table[:count - 1]:
        # acc * (1 + d) with d = p^(2k+1) - s p^k, as acc + acc d: the same
        # bits as the product, since acc * 2^wp is exact, but d is small
        dr = er - ((sr * kr - si * ki) >> wp)
        di = ei - ((sr * ki + si * kr) >> wp)
        ar, ai = ar + ((ar * dr - ai * di) >> wp), ai + ((ar * di + ai * dr) >> wp)
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
    each evaluated once and then memoised.  An entry is filled in one of
    two ways: on first read, by :func:`theta` (at p = 0 by theta's closed
    form 1 - z q^j, formed in place), or ahead of any read, by
    :meth:`ThetaLadders.fill`, which evaluates many entries of a store in
    one batch, within that batch's error bound (0 at p = 0) of the value
    a read would give.

    Every theta-shifted factorial (z q^s; q, p)_L is a window of this
    ladder, so a table of such factorials over many cells costs one theta
    call per distinct index instead of one per factor and cell.  The
    argument of entry j is ``z * q**j``, the association the weight
    formulas use, so values read off a ladder match direct evaluation bit
    for bit (entries a batch filled: within its error bound).  A ladder
    belongs to one (q, p) and one working precision: a parameter point
    keeps its ladders (``ParamPoint.thetas``) and drops them when read at
    another precision.

    A ladder lives in a store: ``ThetaLadders(q, p)[z]`` makes it, with
    the store's ``nome`` (see :class:`_Nome`), the values of p its thetas
    share, which give every entry read the bits of a direct :func:`theta`
    call.
    """

    __slots__ = ("z", "q", "p", "_basic", "_values", "_nome")

    def __init__(self, z, q, p, nome: _Nome):
        self.z = z
        self.q = q
        self.p = p
        self._basic = p == 0
        self._values: dict[int, object] = {}
        self._nome = nome

    def __getitem__(self, j: int):
        value = self._values.get(j)
        if value is None:
            x = self.z * self.q**j
            if not self._basic:
                value = theta(x, self.p, self._nome)
            elif x == 0:
                raise ZeroArgumentError("theta(x; p) requires x != 0")
            else:
                value = 1 - x
            self._values[j] = value
        return value

    def __contains__(self, j: int) -> bool:
        """True when entry j is stored."""
        return j in self._values

    def den(self, j: int):
        """Entry j read as a denominator factor, checked by :func:`guarded`."""
        return guarded(self[j], "denominator theta(%r * q^%d)", self.z, j)


class ThetaLadders(dict):
    """The ladders of one (q, p), keyed by base: ``ladders[z]`` is the
    :class:`ThetaLadder` of base z, created on first use.

    The store also owns what its thetas share of the nome p (``nome``, a
    :class:`_Nome` its ladders hold too): log |p|, the reduction's powers
    of p and, for an ``mpmath.mpc`` nome, the fixed-point table of the
    product's powers.  These are tied to the working precision they were
    computed at; a read at another precision computes them afresh, so no
    power computed at 15 digits enters a 40-digit theta."""

    def __init__(self, q, p):
        super().__init__()
        self.q = q
        self.p = p
        self.nome = _Nome(p)

    def __missing__(self, z):
        ladder = self[z] = ThetaLadder(z, self.q, self.p, self.nome)
        return ladder

    @np.errstate(over="ignore", invalid="ignore")
    def fill(self, entries):
        """Evaluate ``entries``, (ladder, index) pairs of this store, in one
        batch, and store the entries that are still missing: at p = 0 the
        values 1 - arg a read forms, otherwise :func:`_theta_batch`'s, each
        within its error bound of a read's.  Returns the margins
        |theta(arg; p)| / (1 + |arg|) of the entries in order, arg = z q^j
        formed once per entry as a read forms it: 0 for a zero argument, inf
        for an entry that overflowed (left to be computed, and raise, when
        read); |p| >= 1 raises ``DivergenceError``.

        Only a built-in complex nome batches, and only when the arguments
        make a complex128 array (built-in complex ones do, mpmath ones do
        not); otherwise nothing is evaluated and the result is None."""
        p = self.p
        if type(p) is not complex:
            return None
        entries = list(entries)
        x = np.array([ladder.z * ladder.q**j for ladder, j in entries])
        if x.dtype != complex:
            return None
        live = x != 0
        if p == 0:
            values, ok = 1 - x, live
        else:
            values, ok = _theta_batch(np.where(live, x, 1), self.nome.current())
            ok &= live
        for (ladder, j), value, good in zip(entries, values.tolist(), ok.tolist()):
            if good:
                ladder._values.setdefault(j, value)
        size = np.where(ok, np.hypot(values.real, values.imag), np.where(live, np.inf, 0.0))
        return size / (1 + np.hypot(x.real, x.imag))


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
    """
    tops = [ladder[j] for ladder, start, length in num for j in range(start, start + length)]
    bottoms = [ladder.den(j) for ladder, start, length in den
               for j in range(start, start + length)]
    acc = 1
    for t, d in zip(tops, bottoms, strict=True):
        acc = acc * (t / d)
    return acc


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


def worst_residual(residuals) -> float:
    """The largest of ``residuals`` (0.0 when there are none), or NaN when
    any is NaN: ``max`` keeps whichever of a NaN and a number comes first,
    so a running ``max`` would drop a NaN that is not the first residual."""
    values = list(residuals)
    return math.nan if any(math.isnan(r) for r in values) else max(values, default=0.0)
