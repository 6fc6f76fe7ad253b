"""Scalar kernel tests: q-factorials, theta, q-binomials, the four-term
addition formula."""

from __future__ import annotations

import cmath
import math
import warnings
from random import Random

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ring_complex
from thetacb.errors import (
    DegenerateParameterError,
    DivergenceError,
    RootOfUnityError,
    ZeroArgumentError,
)
from thetacb.params import IdentitySize
from thetacb.sampling import P_HI, _draw, check_genericity
import thetacb.special as special
from thetacb.special import (
    DEFAULT_GUARD,
    LOG_SPACE_MAG,
    SERIES_NOME_BOUND,
    addition_formula_residual,
    qbinom,
    qpoch,
    ratio_row,
    ratio_rows,
    ThetaLadders,
    _Nome,
    _product_floor_bits,
    relative_residual,
    series_with_running_products,
    theta,
    theta_ratio,
    within_guard,
    worst_residual,
)


class TestQPoch:
    def test_empty_product(self):
        assert qpoch(0.3, 0.7, 0) == 1

    def test_single_factor(self):
        assert qpoch(0.5, 9.0, 1) == 0.5
        assert qpoch(0.5, 0.123, 1) == 0.5

    def test_vanishing_factor(self):
        assert qpoch(2.0, 0.5, 2) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            qpoch(0.5, 0.5, -1)

    def test_infinite_product_divergence(self):
        with pytest.raises(DivergenceError):
            theta(0.5, 1.0)


class TestTheta:
    def test_p_zero_closed_form(self):
        assert theta(0.4, 0) == 0.6

    def test_zero_at_one(self):
        assert theta(1.0, 0.3) == 0

    def test_zero_argument_rejected(self):
        with pytest.raises(ZeroArgumentError):
            theta(0.0, 0.3)

    def test_against_long_truncated_product(self):
        x, p = 0.4, 0.3
        acc = 1.0
        for k in range(200):
            acc *= (1 - x * p**k) * (1 - (p / x) * p**k)
        assert abs(theta(x, p) - acc) < 1e-15

    def test_large_argument_reduction(self):
        # the value must match the quasi-periodicity ladder applied by hand
        x, p = 2.3 - 1.1j, 0.4 + 0.1j
        big = x * 0.3**-12
        z, steps = big, 0
        while abs(z) > 1.5:
            z *= p
            steps += 1
        ref = (-1) ** steps * big**steps * p ** (steps * (steps - 1) // 2) * theta(z, p)
        assert abs(theta(big, p) - ref) / abs(ref) < 1e-12

    def test_sampler_band_values_are_pinned_bit_for_bit(self):
        # double theta at |p| <= 0.5, where every campaign draws its nome:
        # one series at p (k = 1) and two at p^2 (k = 2), with |x'| on
        # either side of 1 at k = 2, float nomes and arguments, and
        # arguments whose reduced x' is exactly 1, where theta is a signed 0
        for x, p, re, im in _PINNED_THETAS:
            value = complex(theta(x, p))
            assert (value.real.hex(), value.imag.hex()) == (re, im), (x, p)
            assert type(theta(x, p)) is type(x * p)

    @settings(max_examples=150, deadline=None)
    @given(x=ring_complex(0.1, 3.0), p=ring_complex(0.05, 0.5))
    def test_symmetry(self, x, p):
        t = theta(x, p)
        assert relative_residual(theta(p / x, p), t) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(x=ring_complex(0.1, 3.0), p=ring_complex(0.05, 0.5))
    def test_inversion(self, x, p):
        assert relative_residual(theta(1 / x, p), -theta(x, p) / x) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(x=ring_complex(0.1, 3.0), p=ring_complex(0.05, 0.5))
    def test_quasi_periodicity(self, x, p):
        assert relative_residual(theta(p * x, p), -theta(x, p) / x) < 1e-12


#: (x, p, real and imaginary part of theta(x; p) by ``float.hex``), with
#: the number k of series at p^k, the reduction exponent n and |x'|.
_PINNED_THETAS = [
    # k = 1: n = 0, |x'| 1.81 and 0.50; n = 1, |x'| 2.39; x' = 1
    (1.7111950718066637 - 0.581941981823931j, 0.10377065676130022 + 0.15990173529779528j,
     "-0x1.24d22df2f6c54p-2", "0x1.4d4f9edac4442p-1"),
    (0.27989832472473725 + 0.41170356404137093j, -0.028709283760048065 + 0.16963591507155967j,
     "0x1.e92f2de982687p-2", "-0x1.22ce2d68301c7p-1"),
    (-40.5 + 3.25j, 0.04944196438607634 + 0.031688419612854034j,
     "0x1.1153754f238dbp+7", "0x1.c44178c0df1e4p+5"),
    (0.3 + 0j, 0.3, "-0x0.0p+0", "0x0.0p+0"),
    # k = 2: n = 0, |x'| 1.40; n = -1, |x'| 0.80; n = -2, |x'| 1.41
    (0.06983264365752041 - 1.3960764761415971j, -0.40447767011394115 - 0.011914657949242213j,
     "0x1.67e4c081b2325p+0", "0x1.9ab0506a827cap+0"),
    (0.1566060958868919 - 0.22302525651454172j, -0.31244530776594404 + 0.1404437614111698j,
     "0x1.24e875cccbf00p+0", "0x1.e317c9033cf65p-2"),
    (-0.332662793350667 - 0.09490287447749154j, -0.48639588928295674 + 0.0919506267572215j,
     "-0x1.fab326dbb507dp-2", "0x1.0b6fbf8a5ca9bp+0"),
    # k = 2, one nome: n = 0, |x'| 1.25 and 0.84
    (1.1673204185445198 - 0.4415103871253612j, 0.3014833275876823 + 0.2598126816655532j,
     "0x1.473dfb9110efbp-3", "0x1.940ac5f4ce09ap-3"),
    (-0.043293348870087366 - 0.8382106595642008j, 0.3014833275876823 + 0.2598126816655532j,
     "0x1.22cd0b84406c1p+0", "0x1.225c0c536db4ep+0"),
    # k = 2: n = -19, |x'| 1.42, the prefactor formed directly
    (1e-06 + 2e-06j, -0.48639588928295674 + 0.0919506267572215j,
     "-0x1.394bd02ccc0a9p+164", "0x1.cee311edc7393p+164"),
    # k = 2, a float nome: n = 0, |x'| 1.48; a float argument, n = 1, |x'| 1.13
    (0.7 - 1.3j, 0.45, "-0x1.6792dbac1d398p-2", "0x1.62acfd19915fdp-1"),
    (-2.5, 0.45, "0x1.66e3526ac3d8fp+4", "0x0.0p+0"),
    # k = 2, x' = 1: n = 0, and n = 1 with float x and p
    (1 + 0j, 0.4 + 0.1j, "0x0.0p+0", "0x0.0p+0"),
    (2.0, 0.5, "-0x0.0p+0", "0x0.0p+0"),
]


def _theta_reference(x, p):
    """theta as the truncated product (x', p/x'; p)_inf with the
    per-factor truncation test |p|^k >= stop: the oracle the series'
    accuracy is compared with, and at a working precision 200 bits wider
    the reference of the ``mpmath`` tests."""
    tol = 1e-18 if isinstance(x, complex) else min(1e-18, float(mpmath.mp.eps) * 1e-2)
    if isinstance(x, complex):
        n = round(-math.log(float(abs(x))) / math.log(float(abs(p))))
    else:
        # mpmath logs: an mpmath modulus may lie outside the range of doubles
        n = round(-float(mpmath.log(abs(x))) / float(mpmath.log(abs(p))))
    pref = 1
    if n:
        pref = (-1) ** n * x**n * p ** (n * (n - 1) // 2)
        x = x * p**n
    stop = tol * (1 + float(abs(x))) * (1 - float(abs(p)))
    acc = 1
    pk = 1
    px = p / x
    while abs(pk) >= stop:
        acc = acc * (1 - x * pk) * (1 - px * pk)
        pk = pk * p
    return pref * acc


def _double_points():
    """2000 seeded (x, p) pairs: |p| in [0.01, 0.9], |x| in [e^-3, e^3]."""
    rng = Random(7)
    for _ in range(2000):
        p = cmath.rect(math.exp(rng.uniform(math.log(0.01), math.log(0.9))),
                       rng.uniform(0.0, 2.0 * math.pi))
        x = cmath.rect(math.exp(rng.uniform(-3.0, 3.0)), rng.uniform(0.0, 2.0 * math.pi))
        yield x, p


class TestThetaTruncation:
    def test_within_four_units_of_a_wider_reference_at_40_digits(self):
        with mpmath.workdps(40):
            for x, p in _mp_points():
                _assert_units_of_reference(theta(x, p), x, p, 4)

    def test_the_series_is_no_less_accurate_than_the_product(self):
        # 300 reduced arguments across the annulus per band of |p|, with k
        # from 1 to 23 series at p^k: against a 60-digit reference, the
        # error of theta in units of 2^-53 is no larger than that of the
        # per-factor product at the median and at the largest
        bands = [(0.05, SERIES_NOME_BOUND), (SERIES_NOME_BOUND, 0.5639)]
        bands += [(0.6 + 0.05 * i, 0.65 + 0.05 * i) for i in range(7)]
        rng = Random(11)
        for lo, hi in bands:
            series, product = [], []
            for _ in range(300):
                p = cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))
                x = cmath.rect(abs(p) ** rng.uniform(-0.5, 0.5), rng.uniform(0.0, 2.0 * math.pi))
                ref = _double_reference(x, p)
                series.append(_units(theta(x, p), ref))
                product.append(_units(_theta_reference(x, p), ref))
            series.sort()
            product.sort()
            assert series[150] <= product[150] and series[-1] <= product[-1], (lo, hi)

    def test_the_series_runs_where_it_loses_at_most_four_bits(self):
        # SERIES_NOME_BOUND is the largest |P| (to 1e-3) whose series loses
        # at most 4 bits, and theta runs k series at P = p^k, k the least
        # with |P| below it, for |p| from 0.05 to 0.99
        step = 1e-3
        assert _product_floor_bits(SERIES_NOME_BOUND) <= 4
        assert _product_floor_bits(SERIES_NOME_BOUND + step) > 4
        for i in range(189):
            p = cmath.rect(0.05 + 0.005 * i, 1.0)
            k = _factors(p)
            assert abs(p) ** k < SERIES_NOME_BOUND and _product_floor_bits(abs(p) ** k) <= 4
            assert k == 1 or abs(p) ** (k - 1) >= SERIES_NOME_BOUND
        assert _factors(cmath.rect(0.99, 1.0)) == 114
        for r, k in ((SERIES_NOME_BOUND - step, 1), (SERIES_NOME_BOUND, 2), (0.5639, 2),
                     (0.564, 3)):
            assert _factors(cmath.rect(r, 1.0)) == k, r

    def test_a_tiny_nome_keeps_the_terms_it_needs(self):
        # |p| = 1e-20 and |x| = |p|^-0.49: the product's factor count,
        # taken from 1e-18 (1 + |x|), kept the pair k = 0 alone and was
        # 6.3e-11 off, missing 1 - x p; the series' count comes from |p|
        p = cmath.rect(1e-20, 1.0)
        x = cmath.rect(abs(p) ** -0.49, 0.3)
        with mpmath.workdps(60):
            ref = _theta_reference(mpmath.mpc(x), mpmath.mpc(p))
        assert _units(theta(x, p), ref) <= 4


def _factors(p) -> int:
    """k, the number of series double theta multiplies at the nome p."""
    return len(_Nome(p).shifts) + 1


def _mp_points():
    """60 seeded mpc (x, p) pairs, exact doubles: |p| in [0.05, 0.5],
    |x| in [0.2, 3]."""
    rng = Random(8)
    for _ in range(60):
        p = mpmath.mpc(cmath.rect(rng.uniform(0.05, 0.5), rng.uniform(0.0, 6.28)))
        x = mpmath.mpc(cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(0.0, 6.28)))
        yield x, p


def _far_points():
    """60 seeded nomes |p| in [0.3, 0.95], each with 10 arguments
    x = p^-n u, n in [-40, 40] and u in the reduced annulus: reductions of
    up to forty quasi-periods, on both sides of the log-space threshold."""
    rng = Random(12)
    for _ in range(60):
        p = cmath.rect(rng.uniform(0.3, 0.95), rng.uniform(0.0, 2.0 * math.pi))
        xs = [p**-rng.randint(-40, 40)
              * cmath.rect(abs(p) ** rng.uniform(-0.5, 0.5), rng.uniform(0.0, 2.0 * math.pi))
              for _ in range(10)]
        yield p, xs


def _series_at(x, p):
    """theta(x; p) at the working precision from the test's own series
    (:func:`_theta_series`), 30 bits wider."""
    value, = _theta_series([x], p, mpmath.mp.prec + 30)
    return value


def _qp_at(x, p):
    """theta(x; p) = (x; p)_inf (p/x; p)_inf from ``mpmath.qp``: a formula
    that neither theta nor :func:`_theta_series` uses."""
    return mpmath.qp(x, p) * mpmath.qp(p / x, p)


def _double_reference(x, p, at=_series_at):
    """theta(x; p) for built-in x and p at 60 digits, as the double kernel
    is to give it: the exact prefactor (-1)^n x^n p^(n(n-1)/2) times theta
    at the reduced argument x' = x p^n as :func:`_reduced` rounds it,
    theta(x') from ``at`` (x', p) (by default the test's own series),
    and exactly 0 at x' = 1.  So the comparison leaves out how far one unit
    of x' moves theta, which no double kernel can recover."""
    n = round(-math.log(abs(x)) / _Nome(p).log_ap)
    try:
        reduced = _reduced(x, p)
    except OverflowError:
        reduced = None  # x' itself is representable; take it exact
    if reduced == 1:
        return 0
    with mpmath.workdps(60):
        xm, pm = mpmath.mpc(x), mpmath.mpc(p)
        reduced = xm * pm**n if reduced is None else mpmath.mpc(reduced)
        return (-1) ** n * xm**n * pm ** (n * (n - 1) // 2) * at(reduced, pm)


def _reduced(x, p):
    """The reduced argument x' = x p^n, n = round(-log |x| / log |p|),
    rounded as the double kernel rounds it (x itself at n = 0)."""
    n = round(-math.log(abs(x)) / _Nome(p).log_ap)
    return x * p**n if n else x


def _units(value, ref) -> float:
    """|value - ref| in units of 2^-53 |ref|."""
    return float(abs(value - ref) / abs(ref)) * 2.0**53


#: The largest error of double theta in the annulus, in units of 2^-53
#: against :func:`_double_reference`, per band of |p|: (upper end, units),
#: the last band measured up to |p| = 0.95, the largest the tests read.
#: Band i of the ends 0, 0.1, 0.2, 0.318, ... drew 50,000 points from
#: Random(100 + i): r = uniform(max(lo, 1e-3), hi), p = rect(r, uniform(0,
#: 2 pi)), x = rect(r^uniform(-1/2, 1/2), uniform(0, 2 pi)).
_ANNULUS_UNITS = ((0.1, 5.1), (0.2, 6.1), (0.318, 9.2), (0.45, 9.6), (0.5639, 17.3),
                  (0.65, 20.4), (0.7, 28.1), (0.75, 31.9), (0.8, 44.4), (0.85, 62.7),
                  (0.9, 98.4), (1.0, 201.2))

#: :func:`_double_bound` allows this many times the measured error: the
#: largest error grows slowly with the sample, at |p| in [0.9, 0.95] 59
#: units over 100 points, 110 over 5,000 and 201 over 50,000.
_MARGIN = 2


def _double_bound(x, p) -> float:
    """The units of 2^-53 double theta may lie from
    :func:`_double_reference`.  The prefactor's: 2 (|n| + 2 + L), for its
    |n| + 2 rounded complex operations (|n| - 1 products for x^|n|, its
    reciprocal counted for either sign of n, the product by p^(n(n-1)/2)
    and the one by the reduced theta), and for its powers taken as
    exp(log), which carry the error of their exponents, at most
    L = |n| |log x| + |n(n-1)/2| |log p| with complex logs.  The reduced
    theta's: the smaller of ``_MARGIN`` times the error measured in the
    annulus for the band of |p| (``_ANNULUS_UNITS``) and the sum of 4
    times 2^:func:`special._product_floor_bits` (|P|) for each of the k
    series at the nome P = p^k, whose sum cancels by up to that factor,
    and 2 for each of the k - 1 products of their values."""
    nome = _Nome(p)
    n = round(-math.log(abs(x)) / nome.log_ap)
    logs = abs(n) * abs(cmath.log(x)) + abs(n * (n - 1) // 2) * abs(cmath.log(p))
    k = _factors(p)
    measured = next(units for top, units in _ANNULUS_UNITS if abs(p) < top)
    own = min(_MARGIN * measured, 4 * k * 2 ** _product_floor_bits(abs(p) ** k) + 2 * (k - 1))
    return 2 * (abs(n) + 2 + logs) + own


def _assert_near_reference(xs, p):
    """theta at every x of ``xs`` within :func:`_double_bound` of
    :func:`_double_reference`, or 0 where the reference is."""
    for x in xs:
        ref = _double_reference(x, p)
        if ref == 0:
            assert theta(x, p) == 0, (x, p)
        else:
            assert _units(theta(x, p), ref) <= _double_bound(x, p), (x, p)


class TestThetaMany:
    """Double theta at many arguments per nome against a 60-digit
    reference, within :func:`_double_bound`."""

    def test_arguments_and_nomes_on_the_axes(self):
        # zero parts, signed zeros and the zero of theta at x = 1
        xs = [complex(r, 0.0) for r in (0.5, -0.5, 1.5, -1.5, 2.0, -2.0, 1e-3, -40.0)]
        xs += [complex(0.0, r) for r in (0.5, -0.5, 2.0, -2.0)]
        xs += [complex(-0.0, 0.7), complex(0.7, -0.0), complex(1.0, 0.0)]
        for p in (0.3 + 0j, -0.3 + 0j, 0.3j, -0.3j, complex(0.2, -0.0), complex(-0.0, 0.6)):
            _assert_near_reference(xs, p)

    @pytest.mark.parametrize("depth", [0, 3, 8, 14])
    def test_the_genericity_scans_arguments(self, depth):
        # every entry the scan stores at its depths, the thetas of the
        # weights h(i, 0) and h(0, j)
        checked = 0
        for seed in range(4):
            pp = _draw(Random(seed), P_HI)
            check_genericity(pp, IdentitySize(depth, depth))
            for ladder in pp.thetas.values():
                for j, value in ladder.items():
                    x = ladder.z * ladder.shared.q**j
                    assert _units(value, _double_reference(x, pp.p)) <= _double_bound(x, pp.p)
                    checked += 1
        assert checked >= 8 * (depth + 1)

    @pytest.mark.parametrize("r", [0.6, 0.8, 0.9, 0.95])
    def test_against_mpmath_qp(self, r):
        # an oracle that shares no formula with theta's series: theta at the
        # reduced argument as (x', p/x'; p)_inf from mpmath.qp; four
        # arguments in the annulus and four reduced by 5 to 40 quasi-periods
        rng = Random(round(100 * r))
        p = cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))
        xs = [p**-n * cmath.rect(r ** rng.uniform(-0.5, 0.5), rng.uniform(0.0, 2.0 * math.pi))
              for n in (0, 0, 0, 0, -40, -5, 7, 33)]
        for x in xs:
            ref = _double_reference(x, p, _qp_at)
            assert _units(theta(x, p), ref) <= _double_bound(x, p), (x, p)

    def test_an_overflowing_reduction_is_left_unfilled(self):
        # a read that overflows raises and stores nothing
        p = 0.5 + 0.1j
        big, fine = 1e-300 + 0j, 0.4 - 0.2j
        with pytest.raises(OverflowError):
            theta(big, p)
        store = ThetaLadders(1 + 0j, p)
        with pytest.raises(OverflowError):
            store[big][0]
        assert 0 not in store[big]
        assert store[fine][0] == theta(fine, p)

    def test_an_overflowing_product_raises_and_is_left_unfilled(self):
        # the reduction stays finite; only its prefactor times the reduced
        # theta overflows
        x = -2.167924892855616e-21 - 2.2750913679795645e-21j
        p = -0.10693684382345969 + 0.19091458050564614j
        with pytest.raises(OverflowError):
            theta(x, p)
        store = ThetaLadders(1 + 0j, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                store[x][0]
        assert 0 not in store[x]

    def test_the_bound_rejects_a_skipped_factor_pair(self):
        # theta without its factor pair k = 1 is outside the bound at every
        # seeded point
        for x, p in list(_double_points())[::8]:
            reduced = _reduced(x, p)
            value = theta(x, p) / ((1 - reduced * p) * (1 - p / reduced * p))
            assert _units(value, _double_reference(x, p)) > _double_bound(x, p), (x, p)

    def test_reductions_of_up_to_forty_quasi_periods(self):
        # k = 1 to 23 series, at |p| from 0.3 to 0.95; a reduction that
        # overflows has a reference beyond doubles
        exponents = set()
        for p, xs in _far_points():
            nome = _Nome(p)
            for x in xs:
                try:
                    value = theta(x, p)
                except OverflowError:
                    assert abs(_double_reference(x, p)) > 1e300
                    continue
                assert _units(value, _double_reference(x, p)) <= _double_bound(x, p), (x, p)
                exponents.add(round(-math.log(abs(x)) / nome.log_ap))
        assert min(exponents) <= -38 and max(exponents) >= 38

    def test_next_to_zeros_outside_the_annulus(self):
        # x = p^-k (1 + eps), next to the zero of theta at p^-k: x' = x p^k
        # is 1 + eps up to rounding and 1 - x' is exact, so theta keeps its
        # relative accuracy at x' however small eps is
        for p in (0.3 + 0.2j, -0.45 + 0.1j, 0.05 - 0.6j, 0.7j, 0.2 - 0.1j):
            xs = [p**-k * (1 + eps) for k in (1, 2)
                  for eps in (1e-7, -3e-9, 2e-10j, 1e-11 - 1e-11j, 4e-12)]
            nome = _Nome(p)
            assert [round(-math.log(abs(x)) / nome.log_ap) for x in xs] == [1] * 5 + [2] * 5
            _assert_near_reference(xs, p)

    def test_both_sides_of_the_log_space_threshold(self):
        # prefactors formed directly and in log space
        p = 0.5 + 0.2j
        nome = _Nome(p)
        xs, above = [], []
        for n in (-25, -24, -23, -22, 22, 23, 24, 25):
            for r in (0.8, 1.0, 1.25):
                x = p**-n * cmath.rect(r, n)
                # theta's test: at least the log of the larger power factor
                mag = abs(n) * abs(math.log(abs(x))) + abs(n * (n - 1) / 2) * abs(nome.log_ap)
                if 440 < mag < 560:
                    xs.append(x)
                    if mag >= LOG_SPACE_MAG:
                        above.append(x)
        assert 3 <= len(above) <= len(xs) - 3
        _assert_near_reference(xs, p)

    def test_the_bound_rejects_a_dropped_sign_or_a_shifted_exponent(self):
        # a theta that dropped (-1)^n gives -theta at odd n; one that took
        # the prefactor at n + 1 or n - 1 with x' at n gives theta (-x') or
        # theta (-p / x'): each lies outside the bound
        odd = 0
        points = [(x, p) for p, xs in _far_points() for x in xs[::2]]
        for x, p in points + list(_double_points())[::16]:
            try:
                value = theta(x, p)
            except OverflowError:
                continue
            reduced = _reduced(x, p)
            n = round(-math.log(abs(x)) / _Nome(p).log_ap)
            ref = _double_reference(x, p)
            wrong = [value * -reduced, value * (-p / reduced)]
            if n % 2:
                wrong.append(-value)
                odd += 1
            for w in wrong:
                assert _units(w, ref) > _double_bound(x, p), (x, p, n)
        assert odd > 40

    def test_domain_matches_theta(self):
        # a nome so small that the series keeps one term
        _assert_near_reference([1e19 + 0j, 1e-19 + 0j, 0.5 + 0j], 1e-40 + 0j)
        assert len(_Nome(1e-40 + 0j).series) == 1
        # a read at a zero argument raises and stores nothing
        store = ThetaLadders(0.6 + 0.2j, 0.3j)
        assert store[0.5 + 0j][0] == theta(0.5 + 0j, 0.3j)
        with pytest.raises(ZeroArgumentError):
            store[0j][1]
        assert 1 not in store[0j]
        store = ThetaLadders(0.6 + 0.2j, 1.0 + 0j)
        with pytest.raises(DivergenceError):
            store[0.5 + 0j][0]


def _assert_units_of_reference(value, x, p, units):
    """|value - ref| <= units * 2^-prec * |ref|, with ref the per-factor
    loop at the working precision plus 200 bits."""
    prec = mpmath.mp.prec
    with mpmath.workprec(prec + 200):
        ref = _theta_reference(x, p)
        assert abs(value - ref) <= units * mpmath.ldexp(abs(ref), -prec)


def _theta_series(xs, p, bits):
    """theta(x; p) at each x of ``xs`` from the Jacobi triple product
    (Gasper-Rahman, *Basic Hypergeometric Series*, ch. 11),

        theta(x; p) (p; p)_inf = sum_n (-1)^n p^(n(n-1)/2) x^n,

    with (p; p)_inf = sum_k (-1)^k p^(k(3k-1)/2) (Euler's pentagonal number
    theorem), at the working precision with no reduction: the formula of
    theta's own series, so :func:`_theta_jtheta` checks it against an
    independent implementation.  Each sum runs outward from its largest
    terms until they fall below 2^-bits of them."""
    log_ap = math.log(float(abs(p)))
    span = math.sqrt(2 * bits * math.log(2) / -log_ap)
    m, k_max = 2 + math.ceil(span), 2 + math.ceil(span / math.sqrt(3))
    # Euler's terms in pairs k >= 1: p^(k(3k-1)/2) up by p^(3k-2) from the
    # last pair's, and p^(k(3k+1)/2) that times p^k
    euler, low, pk, step, p3 = 1, 1, 1, p, p**3
    for k in range(1, k_max + 1):
        low, pk, step = low * step, pk * p, step * p3
        euler += (-1) ** k * (low + low * pk)
    out = []
    for x in xs:
        n = round(-math.log(float(abs(x))) / log_ap)
        top = (-1) ** n * p ** (n * (n - 1) // 2) * x**n
        total = top
        # the ratio of consecutive terms is -p^n x upwards, -1/(p^(n-1) x)
        # downwards, and each next ratio is the last one times p
        for term, ratio in ((top, -x * p**n), (top, -p / (x * p**n))):
            for _ in range(m):
                term *= ratio
                ratio *= p
                total += term
        out.append(total / euler)
    return out


def _theta_jtheta(x, p):
    """theta(x; p) from mpmath's Jacobi theta function theta_1, through

        theta_1(z, q) = i q^(1/4) e^(-iz) (p; p)_inf theta(e^(2iz); p),  p = q^2,

    with (p; p)_inf from ``mpmath.qp``: an implementation that shares no
    code and no formula with :func:`theta`."""
    q = mpmath.sqrt(p)
    z = mpmath.log(x) / 2j
    return mpmath.jtheta(1, z, q) / (1j * q**0.25 * mpmath.exp(-1j * z) * mpmath.qp(p))


def _near_the_unit_circle():
    """(x, p) at |p| = 0.95, 0.98 and 0.99 with |x| just inside
    |p|^(-1/2) and x p real and positive, at the working precision."""
    p = mpmath.mpc(0.95)
    yield mpmath.sqrt(abs(p)) / p * (1 - mpmath.mpf(2) ** -30), p
    for r in (0.98, 0.99):
        p = mpmath.mpc(r)
        yield mpmath.mpf("0.999") / mpmath.sqrt(p.real), p


def _forward_series_sum(series, tr, ti, wp):
    """B = sum_k c_k S_k of ``special._series_sum`` by the forward recurrence
    S_(k+1) = t S_k - S_(k-1) from S_0 = -1 and S_1 = 1, S_k in fixed point
    with ``wp`` fractional bits: two complex products per term, the
    reference Clenshaw's sum must give the bits of."""
    w, coeffs = series
    br = bi = 0
    sr, si, qr, qi = 1 << wp, 0, -1 << wp, 0
    for cr, ci in coeffs:
        br += cr * sr - ci * si
        bi += cr * si + ci * sr
        sr, si, qr, qi = ((tr * sr - ti * si) >> wp) - qr, ((tr * si + ti * sr) >> wp) - qi, sr, si
    return br >> w, bi >> w, -wp


def _clenshaw_points(rng, nomes, per_nome):
    """(p, xs) at the working precision: ``nomes`` nomes with |p| in
    (0.01, 0.995), every seventh real, each with ``per_nome`` arguments
    with |x| in e^+-8, every fifth real; then the points next to zeros of
    the other theta tests: x next to 1 and to p^n, and the edge of the
    annulus near the unit circle."""
    out = []
    for i in range(nomes):
        r = rng.uniform(0.01, 0.995)
        p = mpmath.mpf(rng.choice((-r, r))) if i % 7 == 0 else mpmath.mpc(
            cmath.rect(r, rng.uniform(-math.pi, math.pi)))
        xs = []
        for k in range(per_nome):
            x = cmath.rect(math.exp(rng.uniform(-8.0, 8.0)), rng.uniform(-math.pi, math.pi))
            xs.append(mpmath.mpf(x.real) if k % 5 == 0 else mpmath.mpc(x))
        out.append((p, xs))
    tiny = mpmath.mpf("6e-21")
    p = mpmath.mpc(0.3, 0.2)
    out.append((p, [mpmath.mpc(1 + tiny), mpmath.mpc(1, tiny**1.5), 1 + tiny,
                    mpmath.mpc(1 - tiny**1.7, -tiny**1.7), mpmath.mpc(1)]
                + [p**n * (1 + tiny * mpmath.expjpi(0.3)) for n in (-3, -1, 2, 5)]))
    out.extend((p, [x]) for x, p in _near_the_unit_circle())
    return out


class TestThetaAt40Digits:
    @pytest.mark.parametrize("dps", [15, 40, 60])
    def test_clenshaw_sum_gives_the_forward_recurrences_bits(self, dps, monkeypatch):
        # every fixed-point value carries the guard bits and is rounded
        # once, so the two sums' last bits move no rounded value here
        with mpmath.workdps(dps):
            points = _clenshaw_points(Random(dps), 300, 10)
            assert sum(len(xs) for _, xs in points) >= 3000
            nomes = [_Nome(p) for p, _ in points]
            got = [repr(theta(x, p, nome)) for (p, xs), nome in zip(points, nomes) for x in xs]
            monkeypatch.setattr(special, "_series_sum", _forward_series_sum)
            want = [repr(theta(x, p, nome)) for (p, xs), nome in zip(points, nomes) for x in xs]
        assert got == want

    def test_zero_at_one_is_exact(self):
        q, p = mpmath.mpc(0.55, 0.3), mpmath.mpc(0.2, -0.1)
        with mpmath.workdps(40):
            assert theta(mpmath.mpc(1), p) == 0
            ladder = ThetaLadders(q, p)[mpmath.mpc(1)]
            with pytest.raises(DegenerateParameterError):
                ladder.den(0)

    def test_relative_accuracy_next_to_the_zero_at_one(self):
        p = mpmath.mpc(0.3, 0.2)
        with mpmath.workdps(40):
            tiny = mpmath.mpf("6e-21")
            for x in (mpmath.mpc(1 + tiny), mpmath.mpc(1, tiny**1.5),
                      mpmath.mpc(1 - tiny**1.7, -tiny**1.7)):
                _assert_units_of_reference(theta(x, p), x, p, 4)

    def test_real_argument_next_to_the_zero_at_one(self):
        # an mpf argument with an mpc nome takes the fixed-point product too
        p = mpmath.mpc(0.3, 0.2)
        with mpmath.workdps(40):
            x = 1 + mpmath.mpf("6e-21")
            _assert_units_of_reference(theta(x, p), x, p, 4)

    def test_symmetry_inversion_quasi_periodicity(self):
        rng = Random(9)
        with mpmath.workdps(40):
            for _ in range(20):
                p = mpmath.mpc(cmath.rect(rng.uniform(0.05, 0.5), rng.uniform(0.0, 6.28)))
                x = mpmath.mpc(cmath.rect(rng.uniform(0.1, 3.0), rng.uniform(0.0, 6.28)))
                t = theta(x, p)
                assert relative_residual(theta(p / x, p), t) < 1e-37
                assert relative_residual(theta(1 / x, p), -t / x) < 1e-37
                assert relative_residual(theta(p * x, p), -t / x) < 1e-37

    def test_large_argument_reduction(self):
        # the quasi-periodicity ladder applied by hand, 200 bits wider
        with mpmath.workdps(40):
            x, p = mpmath.mpc(2.3, -1.1), mpmath.mpc(0.4, 0.1)
            big = x * mpmath.mpf(0.3) ** -12
            got = theta(big, p)
            with mpmath.workprec(mpmath.mp.prec + 200):
                z, steps = big, 0
                while abs(z) > 1.5:
                    z *= p
                    steps += 1
                ref = (-1) ** steps * big**steps * p ** (steps * (steps - 1) // 2)
                ref *= _theta_reference(z, p)
            assert abs(got - ref) / abs(ref) < 1e-37

    def test_each_precision_matches_its_own_reference(self):
        # one set of mpc inputs at 15, then 40, then 60 digits: nothing
        # computed at one precision may leak into the next
        rng = Random(10)
        points = [(mpmath.mpc(cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(0.0, 6.28))),
                   mpmath.mpc(cmath.rect(rng.uniform(0.05, 0.5), rng.uniform(0.0, 6.28))))
                  for _ in range(10)]
        for dps in (15, 40, 60):
            with mpmath.workdps(dps):
                for x, p in points:
                    _assert_units_of_reference(theta(x, p), x, p, 4)


    def test_edge_of_the_annulus_at_a_nome_near_the_unit_circle(self):
        # |p| = 0.95, |x| just inside |p|^(-1/2) with x p real and positive:
        # the factor 1 - p x is as small as it gets, and theta is about
        # 3e-28, far below the fixed-point unit of the working precision
        # plus the guard bits, while the series' terms are near 1
        with mpmath.workdps(40):
            x, p = next(_near_the_unit_circle())
            assert abs(theta(x, p)) < 1e-27
            _assert_units_of_reference(theta(x, p), x, p, 4)

    @pytest.mark.parametrize("r", [0.98, 0.99])
    def test_truncation_tail_at_nomes_nearer_the_unit_circle(self, r):
        # the same edge as above: the series needs more terms as |p| nears
        # 1, and its sum cancels by more bits
        with mpmath.workdps(40):
            x, p = next((x, p) for x, p in _near_the_unit_circle() if p == r)
            _assert_units_of_reference(theta(x, p), x, p, 4)

    @pytest.mark.parametrize("dps", [15, 60])
    def test_cancellation_near_the_unit_circle(self, dps):
        # the three edges above at 15 and 60 digits: the series' sum
        # cancels by about 43, 113 and 232 bits at |p| = 0.95, 0.98 and
        # 0.99, which its fixed-point width must carry on top of the
        # working precision
        with mpmath.workdps(dps):
            for x, p in _near_the_unit_circle():
                _assert_units_of_reference(theta(x, p), x, p, 4)

    def test_next_to_zeros_outside_the_annulus(self):
        # x = p^k (1 + 1e-25), |theta| about 1e-25: the reduced argument
        # x p^-k must not be rounded before 1 - x p^-k is formed, or one
        # unit of it moves theta by about 1e25 units; p has all 40 digits,
        # so p^2 is not exact at any working width
        with mpmath.workdps(40):
            p = mpmath.mpc("0.3", "0.2")
            for k in (1, 2, -1):
                x = p**k * (1 + mpmath.mpf("1e-25"))
                _assert_units_of_reference(theta(x, p), x, p, 4)

    def test_zeros_outside_the_annulus_are_exact(self):
        # theta vanishes at every power of p; where x p^-k is exactly 1,
        # the value is exactly 0, on either side of the annulus
        with mpmath.workdps(40):
            p = mpmath.mpc(0.5, 0.25)
            for k in (1, 2, 3):
                assert theta(p**k, p) == 0
            p = mpmath.mpc(0.5)
            for k in (-1, -2, -3, 2):
                assert theta(p**k, p) == 0

    @pytest.mark.parametrize("dps", [15, 40, 60])
    def test_reductions_of_up_to_forty_quasi_periods(self, dps):
        # against the triple product series, 200 bits wider: the per-factor
        # reference needs thousands of factors at |p| = 0.95
        with mpmath.workdps(dps):
            prec = mpmath.mp.prec
            for p, xs in _far_points():
                p, xs = mpmath.mpc(p), [mpmath.mpc(x) for x in xs]
                got = [theta(x, p) for x in xs]
                with mpmath.workprec(prec + 200):
                    for x, value, ref in zip(xs, got, _theta_series(xs, p, prec + 30)):
                        assert abs(value - ref) <= 4 * mpmath.ldexp(abs(ref), -prec), (x, p)

    def test_tiny_nomes_across_the_annulus(self):
        # at |p| = 1e-30 .. 1e-100 the terms p^(k(k-1)/2) x'^(1-k) of the
        # series pair a tiny coefficient with a huge power of x', up to
        # |p|^(-1/2) per step: the coefficients must carry those bits too
        with mpmath.workdps(40):
            for e, angle in ((30, 1.0), (60, 2.0), (100, -2.5)):
                p = mpmath.mpc(mpmath.mpf(10) ** -e * mpmath.expjpi(angle / math.pi))
                for s, phi in ((-0.49, 0.3), (-0.25, 2.0), (0.0, -1.0), (0.3, 1.2),
                               (0.49, -2.9), (-1.4, 0.7), (2.2, 2.5)):
                    x = abs(p) ** s * mpmath.expjpi(phi / math.pi)
                    _assert_units_of_reference(theta(x, p), x, p, 4)

    def test_arguments_and_nomes_beyond_double_range(self):
        # |x| = 10^-400 and 10^400, a ladder entry at about 10^366 and a
        # nome of modulus 1e-400 are sized from their mpf exponents and bit
        # lengths: in doubles they vanish or overflow
        with mpmath.workdps(40):
            p = mpmath.mpc(0.3, 0.2)
            for x in (mpmath.mpc("1e-400", "1e-400"), mpmath.mpc("1e400", "1e400"),
                      mpmath.mpc("-2e400", "3e399"), mpmath.mpf("1e-400"), mpmath.mpf("-1e400")):
                _assert_units_of_reference(theta(x, p), x, p, 4)
            q, z = mpmath.mpc(0.3), mpmath.mpc(1, 0.5)
            entry = ThetaLadders(q, p)[z][-700]
            _assert_units_of_reference(entry, z * q**-700, p, 4)
            prec = mpmath.mp.prec
            for angle in (1.0, -2.5):
                tiny = mpmath.mpf("1e-400") * mpmath.expjpi(angle / math.pi)
                for s, phi in ((-0.49, 0.3), (0.0, -1.0), (0.3, 1.2), (0.49, -2.9)):
                    x = abs(tiny) ** s * mpmath.expjpi(phi / math.pi)
                    value = theta(x, tiny)
                    # x is in the annulus, |x| <= 1e200, so the factors past the
                    # first two pairs differ from 1 by under 1e-400 (the
                    # per-factor reference stops too early at |x| >> 1)
                    with mpmath.workprec(prec + 200):
                        ref = mpmath.fprod((1 - x * tiny**k) * (1 - tiny ** (k + 1) / x)
                                           for k in range(2))
                        assert abs(value - ref) <= 4 * mpmath.ldexp(abs(ref), -prec), x

    def test_the_series_reference_agrees_with_mpmath_jtheta(self):
        # the far-point reference against mpmath.jtheta on every sixth nome,
        # 200 bits wider, and theta within 4 units of it
        with mpmath.workdps(40):
            prec = mpmath.mp.prec
            for p, xs in list(_far_points())[::6]:
                p, xs = mpmath.mpc(p), [mpmath.mpc(x) for x in xs]
                got = [theta(x, p) for x in xs]
                with mpmath.workprec(prec + 200):
                    for x, value, ref in zip(xs, got, _theta_series(xs, p, prec + 30)):
                        other = _theta_jtheta(x, p)
                        assert abs(ref - other) <= mpmath.ldexp(abs(other), -prec - 20), (x, p)
                        assert abs(value - other) <= 4 * mpmath.ldexp(abs(other), -prec), (x, p)

    def test_a_real_nome_takes_the_same_pass(self):
        # an mpf nome: an mpf value for an mpf argument, the mpc value for
        # an mpc one, each within 4 units
        with mpmath.workdps(40):
            p = mpmath.mpf("0.3")
            for x in (mpmath.mpf("2.7"), mpmath.mpf("-0.2"), 1 / p * (1 + mpmath.mpf("1e-25"))):
                value = theta(x, p)
                assert isinstance(value, mpmath.mpf)
                _assert_units_of_reference(value, x, p, 4)
                assert theta(mpmath.mpc(x), p) == value
            x = mpmath.mpc(0.4, 2.1)
            _assert_units_of_reference(theta(x, p), x, p, 4)

    def test_a_built_in_scalar_takes_the_other_ones_context(self):
        with mpmath.workdps(40):
            x, p = 0.4 + 2.1j, mpmath.mpc(0.3, 0.2)
            assert theta(x, p) == theta(mpmath.mpc(x), p)
            assert theta(mpmath.mpc(x), complex(p)) == theta(mpmath.mpc(x), p)


class TestThetaStore:
    """A store's shared values of the nome against theta's own per call."""

    def test_shared_table_matches_a_per_call_table_bit_for_bit(self):
        # each store reads arguments z q^j in shuffled order of j, with
        # reductions of several exponents n; the series' coefficient table
        # is computed once per store and precision, and equals the table
        # a direct theta computes for itself
        q = mpmath.mpc(cmath.rect(0.7, 1.3))
        order = list(range(-4, 5))
        exponents = set()
        for dps in (15, 40, 60):
            with mpmath.workdps(dps):
                for x, p in _mp_points():
                    Random(dps).shuffle(order)
                    store = ThetaLadders(q, p)
                    seen = set()
                    for j in order:
                        value = store[x][j]
                        assert repr(value) == repr(theta(x * q**j, p)), (dps, x, p, j)
                        seen.add(id(store.shared.nome.series))
                    assert len(seen) == 1
                    assert store.shared.nome.series == _Nome(p).series
                    exponents.update(store.shared.nome.powers)
        assert len(exponents) > 3

    def test_a_read_at_another_precision_raises(self):
        # a store belongs to the precision it was made at: its nome, made
        # on the first theta read, and its powers of q hold that
        # precision's values, so forming an entry at another raises, and
        # the entries it holds are still read
        q, p = mpmath.mpc(0.55, 0.3), mpmath.mpc(0.3, 0.2)
        z = mpmath.mpc(2.3, -1.1) * mpmath.mpf(0.3) ** -12
        with mpmath.workdps(15):
            store = ThetaLadders(q, p)
            assert store.shared.nome is None and store.shared.prec == mpmath.mp.prec
            value = store[z][0]
            assert repr(value) == repr(theta(z, p))
            assert store.shared.nome.series == _Nome(p).series
        with mpmath.workdps(40):
            with pytest.raises(ValueError, match="working precision"):
                store[z][1]
            with pytest.raises(ValueError):
                store[mpmath.mpc(0.6, 0.2)][0]
            assert store[z][0] is value and 1 not in store[z]
        # a store at another precision is a fresh one, whose values are
        # that precision's
        with mpmath.workdps(40):
            wide = ThetaLadders(q, p)
            assert repr(wide[z][1]) == repr(theta(z * q, p))
            _assert_units_of_reference(wide[z][1], z * q, p, 4)
        # a store at |p| >= 1 is made, and raises when read
        outside = ThetaLadders(0.55 + 0.3j, 1.0 + 0j)
        with pytest.raises(DivergenceError):
            outside[0.5 + 0j][0]

    def test_a_store_keeps_one_power_of_q_per_index(self):
        # each ladder forms z q^j from the store's q**j, computed once per j
        # with the bits of the expression a read formed
        q, p = mpmath.mpc(0.55, 0.3), mpmath.mpc(0.2, -0.1)
        with mpmath.workdps(40):
            store = ThetaLadders(q, p)
            one, other = store[mpmath.mpc(0.6, 0.2)], store[mpmath.mpc(1.3, -0.4)]
            for j in (3, -2):
                assert repr(one[j]) == repr(theta(one.z * q**j, p))
                other[j]
            store[mpmath.mpc(0, 0.45)][5]
            assert dict(store.shared.q_powers) == {j: q**j for j in (3, -2, 5)}
            power = store.shared.q_powers[5]
            assert repr(one[5]) == repr(theta(one.z * q**5, p))
            assert store.shared.q_powers[5] is power and len(store.shared.q_powers) == 3
        # a built-in q forms its powers in place
        assert ThetaLadders(0.55 + 0.3j, 0.2 - 0.1j).shared.q_powers is None

    @pytest.mark.parametrize("dps", [15, 40, 60])
    def test_ladder_arguments_are_the_mpmath_products(self, dps, monkeypatch):
        # at an mpmath q an entry's argument z q^j is formed on integers
        # and rounded once per part: the bits and the type of z * q**j,
        # an mpf for a real z and q
        rng = Random(dps)
        formed = []
        monkeypatch.setattr(special, "theta", lambda x, p, nome: formed.append(x) or 1)
        with mpmath.workdps(dps):
            for _ in range(4):
                r, phase = rng.uniform(0.3, 0.9), rng.uniform(-math.pi, math.pi)
                for q in (mpmath.mpc(cmath.rect(r, phase)), mpmath.mpf(-r)):
                    z = cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(-math.pi, math.pi))
                    for base in (mpmath.mpc(z), mpmath.mpf(z.real), z, z.real):
                        for p in (mpmath.mpc(0.2, -0.1), 0j):
                            ladder = ThetaLadders(q, p)[base]
                            real = type(q) is mpmath.mpf and not isinstance(
                                base, (mpmath.mpc, complex))
                            for j in range(-6, 7):
                                want = base * q**j
                                assert (type(want) is mpmath.mpf) == real
                                value = ladder[j]
                                if p:
                                    assert repr(formed[-1]) == repr(want)
                                    assert type(formed[-1]) is type(want)
                                else:  # the p = 0 entry 1 - z q^j
                                    assert repr(value) == repr(1 - want)
                                    assert type(value) is type(want)


class TestThetaLadder:
    def test_entries_are_theta_at_shifted_arguments(self):
        z, q, p = 0.7 - 0.4j, 0.55 + 0.3j, 0.2 - 0.1j
        ladder = ThetaLadders(q, p)[z]
        for j in range(-4, 9):
            assert ladder[j] == theta(z * q**j, p)

    def test_window_is_the_theta_factorial(self):
        z, q, p = 0.7 - 0.4j, 0.55 + 0.3j, 0.2 - 0.1j
        ladder = ThetaLadders(q, p)[z]
        assert theta_ratio(((ladder, 3, 0),), ()) == 1
        want = math.prod(theta(z * q**j, p) for j in range(2, 7))
        assert relative_residual(math.prod(ladder[j] for j in range(2, 7)), want) < 1e-14

    def test_each_entry_is_evaluated_once(self, monkeypatch):
        import thetacb.special as special

        calls = []
        inner = special.theta
        monkeypatch.setattr(special, "theta",
                            lambda x, p, *nome: calls.append(x) or inner(x, p, *nome))
        ladders = ThetaLadders(0.6 + 0.2j, 0.3j)
        for _ in range(3):
            for j in range(-2, 4):
                ladders[1.5 + 0j][j]
            ladders[0.4 + 0.1j][5]
        assert len(calls) == 7
        assert len(ladders) == 2

    def test_p_zero_entries_skip_the_theta_call(self, monkeypatch):
        import thetacb.special as special

        inner = special.theta
        monkeypatch.setattr(special, "theta", lambda x, p: pytest.fail("theta called"))
        z, q = 0.7 - 0.4j, 0.55 + 0.3j
        for p in (0j, mpmath.mpc(0)):
            ladder = ThetaLadders(q, p)[z]
            for j in range(-3, 6):
                assert ladder[j] == inner(z * q**j, p) == 1 - z * q**j
        with pytest.raises(ZeroArgumentError):
            ThetaLadders(q, 0j)[0j][2]

    def test_den_guards_each_entry(self):
        q, p = 0.55 + 0.3j, 0.2 - 0.1j
        ladder = ThetaLadders(q, p)[1 + 0j]  # entry 0 is theta(1; p) = 0
        with pytest.raises(DegenerateParameterError):
            ladder.den(0)
        assert ladder.den(1) == ladder[1]

    def test_den_of_an_mpmath_entry_raises_exactly_when_its_modulus_is_within_the_guard(
            self, monkeypatch):
        # the store sizes an mpmath entry's margin |value| / (1 + |z|) in
        # doubles first; entries about the guard and about twice the guard,
        # where that test decides, keep the outcome of the exact margin.
        # With q = 1 every entry's argument is z, and theta returns the
        # values in turn
        with mpmath.workdps(40):
            z = mpmath.mpc(0.6)
            ladder = ThetaLadders(mpmath.mpc(1), mpmath.mpc(0.2, -0.1))[z]
            g, tiny = DEFAULT_GUARD * (1 + abs(z)), mpmath.mpf(10) ** -30
            values = [mpmath.mpc("1e-400"), mpmath.mpc("1e400", 1),
                      mpmath.mpc(0.6 * g, 0.8 * g), mpmath.mpc(-0.8 * g, 0.6 * g) * (1 + tiny)]
            for scale in (1, 2):
                values += [mpmath.mpc(scale * g * (1 + e)) for e in (-tiny, 0, tiny)]
            vanished = [abs(value) / (1 + abs(z)) <= DEFAULT_GUARD for value in values]
            formed = iter(values)
            monkeypatch.setattr(special, "theta", lambda x, p, nome: next(formed))
            for j, value in enumerate(values):
                if vanished[j]:
                    with pytest.raises(DegenerateParameterError):
                        ladder.den(j)
                else:
                    assert ladder.den(j) is value
                assert ladder[j] is value
        assert vanished.count(True) == 3 and vanished.count(False) == 7


    def test_raw_part_sizing_decides_as_the_complex_sizing(self):
        # the margin's double pre-test sized through complex(), each part
        # by mpmath's to_float, against within_guard's raw-part sizing, at
        # margins about 0.5, 1, 2 and 2.0001 times the guard, at moduli
        # beyond doubles, for mpf values and beside a built-in complex z
        def by_complex(value, z, guard):
            try:
                if type(value) is not complex and (
                        abs(complex(value)) / (1.0 + abs(complex(z))) > 2 * guard):
                    return False
                return abs(value) / (1 + abs(z)) <= guard
            except OverflowError:
                return False

        guard = DEFAULT_GUARD
        with mpmath.workdps(40):
            tiny = mpmath.mpf(2) ** -100
            cases = []
            for z in (mpmath.mpc(0.6, -0.3), mpmath.mpf("-1.7"), 0.6 - 0.3j,
                      mpmath.mpc("1e400", 1), mpmath.mpc("1e-400")):
                unit = guard * (1 + abs(z))
                for scale in (0.5, 1, 2, 2.0001):
                    for e in (-tiny, 0, tiny):
                        m = scale * unit * (1 + e)
                        cases += [(mpmath.mpc(0.6 * m, -0.8 * m), z), (mpmath.mpf(m), z),
                                  (mpmath.mpf(-m), z)]
                cases += [(mpmath.mpc("1e400", 1), z), (mpmath.mpf("-1e400"), z),
                          (mpmath.mpc("1e-400", "-1e-400"), z), (mpmath.mpf("1e-400"), z)]
            decisions = [within_guard(value, z, guard) for value, z in cases]
            assert decisions == [by_complex(value, z, guard) for value, z in cases]
            assert decisions == [abs(value) / (1 + abs(z)) <= guard for value, z in cases]
        assert decisions.count(True) == 80 and decisions.count(False) == 120


class TestThetaFactorial:
    """The theta factorial (z; q, p)_k is the ladder window of entries
    0 .. k - 1 at z."""

    def test_empty(self):
        ladder = ThetaLadders(0.5, 0.3)[0.77 + 0.2j]
        assert theta_ratio(((ladder, 0, 0),), ()) == 1

    def test_composes_theta(self):
        x, q, p = 0.4, 0.6, 0.2
        ladder = ThetaLadders(q, p)[x]
        want = theta(x, p) * theta(x * q, p) * theta(x * q**2, p)
        assert abs(math.prod(ladder[j] for j in range(3)) - want) < 1e-14


class TestLadderKernels:
    def test_ratio_guards_factors_not_their_product(self):
        # two denominator factors of about 1e-4 each clear the guard while
        # their product lies far below it: the ratio is still evaluated
        q, p = 0.55 + 0.3j, 0.2 - 0.1j
        lad = ThetaLadders(q, p)
        near_lo, near_hi, free = lad[1 - 1e-4 + 0j], lad[1 + 1e-4j], lad[0.6 + 0.2j]
        assert abs(near_lo[0] * near_hi[0]) < DEFAULT_GUARD < min(abs(near_lo[0]) / 2,
                                                                  abs(near_hi[0]) / 2)
        got = theta_ratio(((free, 0, 2),), ((near_lo, 0, 1), (near_hi, 0, 1)))
        want = free[0] * free[1] / (near_lo[0] * near_hi[0])
        assert relative_residual(got, want) < 1e-13

    def test_ratio_rejects_windows_of_unequal_length(self):
        lad = ThetaLadders(0.55 + 0.3j, 0.2 - 0.1j)
        free, other = lad[0.6 + 0.2j], lad[1.3 + 0j]
        for num, den in ((((free, 0, 3),), ((other, 0, 2),)),
                         (((free, 0, 1),), ((other, 0, 1), (free, 4, 1)))):
            with pytest.raises(ValueError, match="zip"):
                theta_ratio(num, den)

    def test_ratio_raises_on_a_vanished_factor(self):
        lad = ThetaLadders(0.55 + 0.3j, 0.2 - 0.1j)
        with pytest.raises(DegenerateParameterError):
            theta_ratio(((lad[0.6 + 0.2j], 0, 2),), ((lad[1.3 + 0j], 0, 1), (lad[1 + 0j], 0, 1)))

    @staticmethod
    def _random_rows(rng, roles, count):
        rows = []
        for _ in range(count):
            num, den, size = [], [], rng.randint(0, 4)
            for windows in (num, den):
                left = size
                while left:
                    length = rng.randint(1, left)
                    windows.append((rng.randrange(roles), rng.randint(-3, 5), length))
                    left -= length
            rows.append((num, den))
        return rows

    @pytest.mark.parametrize("digits", [0, 40])
    def test_rows_are_theta_ratio_bit_for_bit(self, digits):
        rng = Random(11)
        bases = (0.6 + 0.2j, 1.3 - 0.4j, 0.45j, -0.8 + 0.7j)
        q, p = 0.55 + 0.3j, 0.2 - 0.1j
        with mpmath.workdps(digits or 15):
            if digits:
                bases = tuple(map(mpmath.mpc, bases))
                q, p = mpmath.mpc(q), mpmath.mpc(p)
            store = ThetaLadders(q, p)
            ladders = [store[z] for z in bases]
            windows = self._random_rows(rng, len(bases), 30)
            # rows that share paired factors with each other, one a prefix of
            # another, and a repeated row
            windows += [(((0, 0, 3),), ((1, 0, 3),)), (((0, 1, 3),), ((1, 1, 3),)),
                        (((0, 0, 2), (2, 4, 2)), ((1, 0, 2), (3, -1, 2))), windows[0]]
            got = ratio_rows(ladders, [ratio_row(num, den) for num, den in windows])
            for value, (num, den) in zip(got, windows):
                want = theta_ratio([(ladders[r], s, n) for r, s, n in num],
                                   [(ladders[r], s, n) for r, s, n in den])
                assert value == want
                assert type(value) is type(want)

    def test_rows_read_each_entry_once(self, monkeypatch):
        ladders = [ThetaLadders(0.55 + 0.3j, 0.2 - 0.1j)[z] for z in (0.6 + 0.2j, 1.3 + 0j)]
        reads, guards = [], []
        den = special.ThetaLadder.den
        monkeypatch.setattr(special, "theta", lambda x, p, nome: reads.append(x) or 1 + x)
        monkeypatch.setattr(special.ThetaLadder, "den",
                            lambda ladder, j: guards.append(j) or den(ladder, j))
        rows = [ratio_row(((0, 0, 3),), ((1, 0, 3),)), ratio_row(((0, 1, 3),), ((1, 1, 3),)),
                ratio_row(((1, 0, 2),), ((0, 2, 2),))]
        ratio_rows(ladders, rows)
        # the store forms each distinct entry once: numerators role 0 at
        # 0..3 and role 1 at 0..1, denominators role 1 at 0..3 and role 0 at
        # 2..3; the call guards each distinct pair once: the second row
        # shares two of its three pairs with the first
        assert len(reads) == 6 + 2
        assert len(guards) == 3 + 1 + 2

    def test_rows_raise_what_a_loop_of_theta_ratio_raises_first(self):
        # row "vanished" divides by theta(1; p) = 0, row "zero" reads
        # theta(0; p) as a numerator, row "both" does both: whichever read
        # comes first raises
        store = ThetaLadders(0.55 + 0.3j, 0.2 - 0.1j)
        ladders = [store[0.6 + 0.2j], store[1 + 0j], store[0j]]
        vanished = ratio_row(((0, 0, 1),), ((1, 0, 1),))
        zero = ratio_row(((2, 0, 1),), ((0, 0, 1),))
        both = ratio_row(((2, 0, 1),), ((1, 0, 1),))
        # row "late" divides by theta(1; p) in its first pair and reads
        # theta(0; p) in its second
        late = ratio_row(((0, 0, 1), (2, 0, 1)), ((1, 0, 1), (0, 0, 1)))
        with pytest.raises(DegenerateParameterError):
            ratio_rows(ladders, [vanished, zero])
        with pytest.raises(ZeroArgumentError):
            ratio_rows(ladders, [zero, vanished])
        # within a row, numerators are read first
        for rows in ([both], [both, vanished], [late], [late, vanished]):
            with pytest.raises(ZeroArgumentError):
                ratio_rows(ladders, rows)

    def test_a_shared_pair_with_a_vanished_denominator_raises_on_every_call(self):
        # theta(1 + 1e-9 i; p) lies within the guard: the pair that divides
        # by it is shared by both rows, and no call keeps its ratio
        store = ThetaLadders(0.55 + 0.3j, 0.2 - 0.1j)
        ladders = [store[0.6 + 0.2j], store[1 + 1e-9j], store[1.3 - 0.4j]]
        rows = [ratio_row(((0, 0, 2),), ((2, 1, 1), (1, 0, 1))),
                ratio_row(((0, 1, 1),), ((1, 0, 1),))]
        assert rows[0].pairs[1] == rows[1].pairs[0]
        for _ in range(3):
            with pytest.raises(DegenerateParameterError):
                ratio_rows(ladders, rows)
            with pytest.raises(DegenerateParameterError):
                ratio_rows(ladders, rows[::-1])
        # a call whose rows leave the pair out is evaluated
        free = ratio_row(((0, 0, 1),), ((2, 0, 1),))
        assert ratio_rows(ladders, [free, free]) == [ladders[0][0] / ladders[2][0]] * 2

    def test_an_entry_formed_as_a_numerator_raises_as_a_denominator(self):
        # an entry within the guard, formed by a numerator read, is flagged
        # when it is formed and raises on every later denominator read
        def ladders():
            store = ThetaLadders(0.55 + 0.3j, 0.2 - 0.1j)
            return [store[0.6 + 0.2j], store[1 + 1e-9j]]

        near = ladders()[1]
        assert near[0] is near[0]
        with pytest.raises(DegenerateParameterError):
            near.den(0)
        free, near = ladders()
        theta_ratio(((near, 0, 1),), ((free, 0, 1),))
        with pytest.raises(DegenerateParameterError):
            theta_ratio(((free, 0, 1),), ((near, 0, 1),))
        rows = [ratio_row(((1, 0, 1),), ((0, 0, 1),)), ratio_row(((0, 0, 1),), ((1, 0, 1),))]
        with pytest.raises(DegenerateParameterError):
            ratio_rows(ladders(), rows)

    def test_row_rejects_unequal_factor_counts(self):
        for num, den in ((((0, 0, 3),), ((1, 0, 2),)),
                         (((0, 0, 1),), ((1, 0, 1), (0, 4, 1)))):
            with pytest.raises(ValueError):
                ratio_row(num, den)

    def test_series_at_p_zero_is_the_basic_sum(self):
        # sum_k (x; q)_k / (q; q)_k q^k at p = 0, against direct q-factorials
        x, q, m = 0.37 + 0.21j, 0.61 - 0.13j, 6
        lad = ThetaLadders(q, 0j)
        total, scale = series_with_running_products(((lad[x], 0),), ((lad[q], 0),), q, m,
                                                    lambda k: 1)
        terms = [qpoch(x, q, k) / qpoch(q, q, k) * q**k for k in range(m + 1)]
        assert relative_residual(total, sum(terms)) < 1e-14
        assert abs(scale - max(abs(t) for t in terms)) < 1e-14


def _mp_store(rng, count, real=False):
    """A store at a seeded mpmath point of the working precision, q and p
    in the sampler's ranges, and ``count`` of its ladders, bases in
    [0.2, 2] in modulus; all real (mpf) under ``real``."""
    def draw(lo, hi):
        if real:
            return mpmath.mpf(rng.choice((-1, 1)) * rng.uniform(lo, hi))
        return mpmath.mpc(cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi)))

    store = ThetaLadders(draw(0.3, 0.9), draw(0.05, 0.5))
    return store, [store[draw(0.2, 2.0)] for _ in range(count)]


def _random_windows(rng, roles, size):
    """Windows (role, start, length) over ``roles`` ladders holding
    ``size`` factors in all."""
    windows, left = [], size
    while left:
        length = rng.randint(1, min(left, 6))
        windows.append((rng.randrange(roles), rng.randint(-3, 5), length))
        left -= length
    return windows


def _assert_unit_of_wider_quotient(value, tops, bottoms, units=1):
    """|value - ref| <= units * 2^-prec * |ref|, ref = prod(tops) /
    prod(bottoms) of the same values multiplied 200 bits wider."""
    prec = mpmath.mp.prec
    with mpmath.workprec(prec + 200):
        ref = mpmath.fprod(tops) / mpmath.fprod(bottoms)
        assert abs(value - ref) <= units * mpmath.ldexp(abs(ref), -prec)


class TestKernelsAtWorkingPrecision:
    """theta_ratio, ratio_rows and the series at mpmath points: products
    on integers, rounded once, against the same stored values multiplied
    200 bits wider."""

    @pytest.mark.parametrize("dps", [15, 40, 60])
    def test_rows_within_one_unit_of_a_wider_product(self, dps):
        rng = Random(29)
        with mpmath.workdps(dps):
            for size in (0, 1, 4, 10, 40):
                for _ in range(3):
                    _, ladders = _mp_store(rng, 4)
                    num, den = _random_windows(rng, 4, size), _random_windows(rng, 4, size)
                    single = theta_ratio([(ladders[r], s, n) for r, s, n in num],
                                         [(ladders[r], s, n) for r, s, n in den])
                    rows = [ratio_row(num, den), ratio_row(den, num)]
                    assert ratio_rows(ladders, rows[:1]) == [single]
                    both = ratio_rows(ladders, rows)
                    assert both[0] == single
                    tops, bottoms = ([ladders[r][j] for r, s, n in windows for j in range(s, s + n)]
                                     for windows in (num, den))
                    _assert_unit_of_wider_quotient(single, tops, bottoms)
                    _assert_unit_of_wider_quotient(both[1], bottoms, tops)
                    if size:
                        assert type(single) is type(both[1]) is mpmath.mpc
                    else:
                        assert single == both[1] == 1 and type(single) is int

    @pytest.mark.parametrize("dps", [15, 40, 60])
    def test_series_terms_within_one_unit_of_a_wider_product(self, dps):
        # a top ratio of 0 but at k = m leaves the sum exactly term m: its
        # 2 m numerator and 2 m denominator entries, q^m and the top ratio
        rng = Random(30)
        with mpmath.workdps(dps):
            for m in (0, 1, 2, 5, 10):
                store, ladders = _mp_store(rng, 5)
                num = [(ladder, rng.randint(-3, 3)) for ladder in ladders[:2]]
                den = [(ladder, rng.randint(-3, 3)) for ladder in ladders[2:4]]
                coeff = ladders[4][m]
                total, scale = series_with_running_products(num, den, store.shared.q, m,
                                                            lambda k: coeff if k == m else 0)
                tops = [coeff, *[store.shared.q] * m,
                        *(ladder[s + i] for ladder, s in num for i in range(m))]
                bottoms = [ladder[s + i] for ladder, s in den for i in range(m)]
                _assert_unit_of_wider_quotient(total, tops, bottoms)
                assert scale == abs(total) and type(total) is mpmath.mpc

    def test_a_real_point_gives_mpf_values(self):
        rng = Random(31)
        with mpmath.workdps(40):
            store, ladders = _mp_store(rng, 4, real=True)
            num, den = _random_windows(rng, 4, 10), _random_windows(rng, 4, 10)
            value = theta_ratio([(ladders[r], s, n) for r, s, n in num],
                                [(ladders[r], s, n) for r, s, n in den])
            assert type(value) is mpmath.mpf
            assert ratio_rows(ladders, [ratio_row(num, den)] * 2) == [value, value]
            tops, bottoms = ([ladders[r][j] for r, s, n in windows for j in range(s, s + n)]
                             for windows in (num, den))
            _assert_unit_of_wider_quotient(value, tops, bottoms)
            total, _ = series_with_running_products(((ladders[0], 0),), ((ladders[1], 1),),
                                                    store.shared.q, 4, lambda k: ladders[2][k])
            assert type(total) is mpmath.mpf
            # one complex factor makes the value complex
            complex_den = [(ladders[1], 0, 1), (store[mpmath.mpc(0.6, 0.2)], 0, 1)]
            assert type(theta_ratio([(ladders[0], 0, 2)], complex_den)) is mpmath.mpc

    def test_unequal_factor_counts_raise(self):
        # before any product, with the message of ratio_row
        with mpmath.workdps(40):
            _, (one, other) = _mp_store(Random(32), 2)
            for num, den in ((((one, 0, 3),), ((other, 0, 2),)),
                             (((one, 0, 1),), ((other, 0, 1), (one, 4, 1)))):
                with pytest.raises(ValueError, match="numerator factors against"):
                    theta_ratio(num, den)
                with pytest.raises(ValueError, match="numerator factors against"):
                    theta_ratio(den, num)

    def test_built_in_factors_keep_the_paired_ratio_chain(self):
        # complex and float factors are multiplied as before, bit for bit:
        # the paired ratios left to right from 1
        from functools import reduce
        from operator import mul, truediv

        lad = ThetaLadders(0.55 + 0.3j, 0.2 - 0.1j)
        ladders = [lad[z] for z in (0.6 + 0.2j, 1.3 - 0.4j, 0.45j)]
        rng = Random(33)
        for size in (1, 4, 10, 40):
            num, den = _random_windows(rng, 3, size), _random_windows(rng, 3, size)
            tops, bottoms = ([ladders[r][j] for r, s, n in windows for j in range(s, s + n)]
                             for windows in (num, den))
            want = reduce(mul, map(truediv, tops, bottoms), 1)
            assert theta_ratio([(ladders[r], s, n) for r, s, n in num],
                               [(ladders[r], s, n) for r, s, n in den]) == want
            assert ratio_rows(ladders, [ratio_row(num, den)] * 2) == [want, want]
        floats = ThetaLadders(0.5, 0.0)
        assert theta_ratio(((floats[0.3], 0, 3),), ((floats[0.7], 1, 3),)) == reduce(
            mul, [(1 - 0.3 * 0.5**j) / (1 - 0.7 * 0.5 ** (j + 1)) for j in range(3)], 1)


class TestQBinomial:
    def test_edges(self):
        q = 0.37 - 0.4j
        for n in range(6):
            assert qbinom(n, 0, q) == 1
            assert qbinom(n, n, q) == 1
        assert qbinom(3, -1, q) == 0
        assert qbinom(3, 4, q) == 0

    def test_small_values(self):
        assert abs(qbinom(2, 1, 0.5) - 1.5) < 1e-15
        q = 0.3
        assert abs(qbinom(4, 2, q) - (1 + q**2) * (1 + q + q**2)) < 1e-14

    def test_root_of_unity_rejected(self):
        with pytest.raises(RootOfUnityError):
            qbinom(4, 2, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 10), k=st.integers(0, 11), q=ring_complex(0.3, 0.9))
    def test_pascal_recursion(self, n, k, q):
        lhs = qbinom(n + 1, k, q)
        rhs = qbinom(n, k, q) + q ** (n + 1 - k) * qbinom(n, k - 1, q)
        assert relative_residual(lhs, rhs) < 1e-12


class TestAdditionFormula:
    def test_collapses_when_y_equals_v(self):
        assert addition_formula_residual(0.7 + 0.1j, 0.9, 1.2, 0.9, 0.25) == 0

    def test_fixed_sample(self):
        assert addition_formula_residual(0.7, 0.3, 1.2, 0.9, 0.25) < 1e-12

    def test_p_zero_reduces_to_rational_identity(self):
        assert addition_formula_residual(0.7, 0.31, 1.2, 0.93, 0.0) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(x=ring_complex(0.1, 3.0), y=ring_complex(0.1, 3.0),
           u=ring_complex(0.1, 3.0), v=ring_complex(0.1, 3.0),
           p=ring_complex(0.05, 0.5))
    def test_random_samples(self, x, y, u, v, p):
        # on the coincidence locus (e.g. u = v = y) all three terms vanish
        # together and the term-normalised residual is 0/0 noise; generic
        # draws avoid it almost surely, so non-generic ones are discarded
        args = (x * y, x / y, u * v, u / v, x * v, x / v, u * y, u / y,
                y * v, y / v, x * u, x / u)
        assume(min(abs(theta(arg, p)) / (1 + abs(arg)) for arg in args) > 1e-6)
        assert addition_formula_residual(x, y, u, v, p) < 1e-10

    @pytest.mark.parametrize("digits", [0, 40])
    def test_the_twelve_thetas_share_one_nome(self, digits, monkeypatch):
        # one nome for the check, and each theta_prod factor has the bits
        # of a separate theta call with a nome of its own
        x, y, u, v, p = 0.7 + 0.1j, 0.3 - 0.4j, 1.2 + 0.5j, 0.9j, 0.25 - 0.1j
        with mpmath.workdps(digits or 15):
            if digits:
                x, y, u, v, p = (mpmath.mpc(t) for t in (x, y, u, v, p))
            args = (x * y, x / y, u * v, u / v)
            separate = [theta(a, p) for a in args]
            made = []
            init = _Nome.__init__

            def counting(self, nome_p):
                made.append(nome_p)
                init(self, nome_p)

            monkeypatch.setattr(_Nome, "__init__", counting)
            product = special.theta_prod(args, p)
            assert len(made) == 1
            assert repr(product) == repr(separate[0] * separate[1] * separate[2] * separate[3])
            assert addition_formula_residual(x, y, u, v, p) < 1e-10
            assert len(made) == 2


def test_relative_residual_floor():
    assert relative_residual(1e-20, 0.0) == 1e-20
    assert relative_residual(2.0, 0.0) == 1.0
    assert relative_residual(1.0, 1.0, 1e6) == 0.0


def test_worst_residual_keeps_a_nan_wherever_it_stands():
    assert worst_residual([]) == 0.0
    assert worst_residual(iter([0.1, 0.3, 0.2])) == 0.3
    for residuals in ([math.nan, 0.1], [0.1, math.nan, 0.2], [0.1, math.inf, math.nan]):
        assert math.isnan(worst_residual(residuals))
