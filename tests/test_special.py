"""Scalar kernel tests: q-factorials, theta, q-binomials, the four-term
addition formula."""

from __future__ import annotations

import cmath
import math
import warnings
from random import Random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import ring_complex, theta_batch_bound
from thetacb.errors import (
    DegenerateParameterError,
    DivergenceError,
    RootOfUnityError,
    ZeroArgumentError,
)
from thetacb.sampling import (P_HI, _denominator_args, _draw, _weight_numerator_args,
                              theta_margin)
import thetacb.special as special
from thetacb.special import (
    DENOMINATOR_GUARD,
    LOG_SPACE_MAG,
    addition_formula_residual,
    qbinom,
    qpoch,
    ThetaLadders,
    _Nome,
    _prefactor_mag,
    _reduce,
    _reduce_many,
    _theta_batch,
    relative_residual,
    series_with_running_products,
    theta,
    theta_fact,
    theta_ratio,
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


def _theta_reference(x, p):
    """theta with the per-factor truncation test |p|^k >= stop, the loop
    the kernel replaced by a factor count computed once."""
    tol = 1e-18 if isinstance(x, complex) else min(1e-18, float(mpmath.mp.eps) * 1e-2)
    n = round(-math.log(float(abs(x))) / math.log(float(abs(p))))
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
    def test_matches_per_factor_loop_in_doubles(self):
        for x, p in _double_points():
            assert theta(x, p) == _theta_reference(x, p)

    def test_within_four_units_of_a_wider_reference_at_40_digits(self):
        with mpmath.workdps(40):
            for x, p in _mp_points():
                _assert_units_of_reference(theta(x, p), x, p, 4)


def _mp_points():
    """60 seeded mpc (x, p) pairs, exact doubles: |p| in [0.05, 0.5],
    |x| in [0.2, 3]."""
    rng = Random(8)
    for _ in range(60):
        p = mpmath.mpc(cmath.rect(rng.uniform(0.05, 0.5), rng.uniform(0.0, 6.28)))
        x = mpmath.mpc(cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(0.0, 6.28)))
        yield x, p


def _far_points():
    """60 seeded nomes |p| in [0.3, 0.9], each with 10 arguments
    x = p^-n u, n in [-40, 40] and u in the reduced annulus: reductions of
    up to forty quasi-periods, on both sides of the log-space threshold."""
    rng = Random(12)
    for _ in range(60):
        p = cmath.rect(rng.uniform(0.3, 0.9), rng.uniform(0.0, 2.0 * math.pi))
        xs = [p**-rng.randint(-40, 40)
              * cmath.rect(abs(p) ** rng.uniform(-0.5, 0.5), rng.uniform(0.0, 2.0 * math.pi))
              for _ in range(10)]
        yield p, xs


def _batch(xs, p) -> list:
    """The store's batch kernel at the arguments ``xs`` and nome p, as a
    list: None where the argument's reduction overflowed."""
    values, ok = _theta_batch(np.array(xs, dtype=complex), _Nome(p).current())
    return [value if good else None for value, good in zip(values.tolist(), ok.tolist())]


def _assert_within_bound(xs, p):
    """The batch at xs and p lies within :func:`conftest.theta_batch_bound`
    of theta at every x."""
    got = _batch(xs, p)
    assert len(got) == len(xs)
    for x, value in zip(xs, got):
        assert abs(value - theta(x, p)) <= theta_batch_bound(x, p), (x, p)


class TestThetaMany:
    """The batch behind :meth:`ThetaLadders.fill` against scalar theta."""

    def test_seeded_points_batched_per_nome(self):
        points = list(_double_points())
        for x, p in points:
            _assert_within_bound([x], p)
        # every argument under a few of the nomes: factor counts differ
        # across a batch
        xs = [x for x, _ in points]
        for _, p in points[::250]:
            _assert_within_bound(xs, p)

    def test_arguments_and_nomes_on_the_axes(self):
        # zero parts, signed zeros and the zero of theta at x = 1
        xs = [complex(r, 0.0) for r in (0.5, -0.5, 1.5, -1.5, 2.0, -2.0, 1e-3, -40.0)]
        xs += [complex(0.0, r) for r in (0.5, -0.5, 2.0, -2.0)]
        xs += [complex(-0.0, 0.7), complex(0.7, -0.0), complex(1.0, 0.0)]
        for p in (0.3 + 0j, -0.3 + 0j, 0.3j, -0.3j, complex(0.2, -0.0), complex(-0.0, 0.6)):
            _assert_within_bound(xs, p)

    @pytest.mark.parametrize("depth", [0, 3, 8, 14])
    def test_the_genericity_scans_arguments(self, depth):
        for seed in range(4):
            pp = _draw(Random(seed), P_HI)
            pairs = [*_denominator_args(pp, depth, depth),
                     *_weight_numerator_args(pp, depth, depth)]
            xs = [ladder.z * ladder.q**j for ladder, j in pairs]
            for x, value in zip(xs, _batch(xs, pp.p)):
                if value is None:
                    with pytest.raises(OverflowError):
                        theta(x, pp.p)
                else:
                    assert abs(value - theta(x, pp.p)) <= theta_batch_bound(x, pp.p), x

    def test_an_overflowing_reduction_is_left_unfilled(self):
        p = 0.5 + 0.1j
        big, fine = 1e-300 + 0j, 0.4 - 0.2j
        with pytest.raises(OverflowError):
            theta(big, p)
        first, value, last = _batch([big, fine, big], p)
        assert first is None and last is None
        assert abs(value - theta(fine, p)) <= theta_batch_bound(fine, p)

    def test_an_overflowing_product_raises_and_is_left_unfilled(self):
        # the reduction stays finite; only its prefactor times the product
        # overflows, to (-3.88e307+inf j) if it were returned
        x = -2.167924892855616e-21 - 2.2750913679795645e-21j
        p = -0.10693684382345969 + 0.19091458050564614j
        with pytest.raises(OverflowError):
            theta(x, p)
        store = ThetaLadders(1 + 0j, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            margins = store.fill([(store[x], 0)])
        assert margins.tolist() == [math.inf] and 0 not in store[x]

    def test_the_bound_rejects_a_skipped_factor_pair(self):
        # theta without its factor pair k = 1 is outside the bound at every
        # seeded point with more than one pair
        skipped = 0
        for x, p in _double_points():
            y, _, _, count = _reduce(x, _Nome(p).current())
            if count > 1:
                value = theta(x, p) / ((1 - y * p) * (1 - p / y * p))
                assert abs(value - theta(x, p)) > theta_batch_bound(x, p), (x, p)
                skipped += 1
        assert skipped > 1900

    def test_reductions_of_up_to_forty_quasi_periods(self):
        # n, x' and the factor count of every argument equal _reduce's, x'
        # bit for bit; the values lie within the bound, or the reduction
        # overflows in both
        exponents = set()
        for p, xs in _far_points():
            nome = _Nome(p).current()
            y, n, _, count, ok = _reduce_many(np.array(xs), nome)
            for i, (x, value) in enumerate(zip(xs, _batch(xs, p))):
                try:
                    want = _reduce(x, nome)
                except OverflowError:
                    assert value is None and not ok[i]
                    continue
                assert (y[i], n[i], count[i]) == (want[0], want[1], want[3]), (x, p)
                assert abs(value - theta(x, p)) <= theta_batch_bound(x, p), (x, p)
                exponents.add(want[1])
        assert min(exponents) <= -38 and max(exponents) >= 38

    def test_next_to_zeros_outside_the_annulus(self):
        # x = p^-k (1 + eps), next to the zero of theta at p^-k: x' = x p^k
        # is 1 + eps up to rounding and 1 - x' is exact, so one unit in the
        # last place of x' moves theta by about u / eps relative
        for p in (0.3 + 0.2j, -0.45 + 0.1j, 0.05 - 0.6j, 0.7j, 0.2 - 0.1j):
            xs = [p**-k * (1 + eps) for k in (1, 2)
                  for eps in (1e-7, -3e-9, 2e-10j, 1e-11 - 1e-11j, 4e-12)]
            nome = _Nome(p).current()
            assert [n for _, n, _, _ in map(lambda x: _reduce(x, nome), xs)] == [1] * 5 + [2] * 5
            _assert_within_bound(xs, p)

    def test_both_sides_of_the_log_space_threshold(self, monkeypatch):
        # an argument whose prefactor needs log space goes through _reduce
        # inside the batch, the others are reduced on the arrays
        p = 0.5 + 0.2j
        nome = _Nome(p).current()
        xs, above = [], []
        for n in (-25, -24, -23, -22, 22, 23, 24, 25):
            for r in (0.8, 1.0, 1.25):
                x = p**-n * cmath.rect(r, n)
                mag = _prefactor_mag(n, math.log(abs(x)), nome.log_ap)
                if 440 < mag < 560:
                    xs.append(x)
                    if mag >= LOG_SPACE_MAG:
                        above.append(x)
        assert 3 <= len(above) <= len(xs) - 3
        calls = []
        inner = special._reduce
        with monkeypatch.context() as patch:
            patch.setattr(special, "_reduce", lambda x, nome: calls.append(x) or inner(x, nome))
            got = _batch(xs, p)
        assert calls == above
        for x, value in zip(xs, got):
            assert abs(value - theta(x, p)) <= theta_batch_bound(x, p), x

    def test_the_bound_rejects_a_dropped_sign_or_a_shifted_exponent(self):
        # a batch that dropped (-1)^n gives -theta at odd n; one that took
        # the prefactor at n + 1 or n - 1 with x' at n gives theta (-x') or
        # theta (-p / x'): each lies outside the bound
        odd = 0
        points = [(x, p) for p, xs in _far_points() for x in xs]
        for x, p in points + list(_double_points())[::4]:
            try:
                y, n, _, _ = _reduce(x, _Nome(p).current())
                value = theta(x, p)
            except OverflowError:
                continue
            wrong = [value * -y, value * (-p / y)]
            if n % 2:
                wrong.append(-value)
                odd += 1
            for w in wrong:
                assert abs(w - value) > theta_batch_bound(x, p), (x, p, n)
        assert odd > 200

    def test_domain_matches_theta(self):
        # a nome so small that the product keeps no factor: the bound is 0
        _assert_within_bound([1e19 + 0j, 1e-19 + 0j, 0.5 + 0j], 1e-40 + 0j)
        # a zero argument has margin 0 and is left for a read, which raises
        store = ThetaLadders(0.6 + 0.2j, 0.3j)
        margins = store.fill([(store[0.5 + 0j], 0), (store[0j], 1)])
        assert margins[0] > 0 and margins[1] == 0 and 1 not in store[0j]
        with pytest.raises(ZeroArgumentError):
            store[0j][1]
        store = ThetaLadders(0.6 + 0.2j, 1.0 + 0j)
        with pytest.raises(DivergenceError):
            store.fill([(store[0.5 + 0j], 0)])

    def test_fill_batches_double_points_with_a_nome_only(self):
        q = 0.6 + 0.2j
        store = ThetaLadders(q, mpmath.mpc(0.3, 0.1))
        assert store.fill([(store[0.5 + 0.5j], j) for j in range(4)]) is None
        assert not store[0.5 + 0.5j]._values
        store = ThetaLadders(q, 0.3 + 0.1j)
        ladder = store[0.5 + 0.5j]
        store.fill([(ladder, j) for j in (-2, 0, 3, 3)])
        assert sorted(ladder._values) == [-2, 0, 3]
        for j, value in ladder._values.items():
            x = ladder.z * q**j
            assert abs(value - theta(x, 0.3 + 0.1j)) <= theta_batch_bound(x, 0.3 + 0.1j)

    def test_fill_at_p_zero_stores_the_reads_and_their_margins(self):
        q = 0.6 + 0.2j
        for seed in range(3):
            pp = _draw(Random(seed), P_HI).replace(p=0j)
            entries = [*_denominator_args(pp, 3, 3), *_weight_numerator_args(pp, 3, 3)]
            store = pp.thetas
            margins = store.fill(entries)
            reads = ThetaLadders(pp.q, 0j)
            for got, (ladder, j) in zip(margins.tolist(), entries):
                assert ladder._values[j] == reads[ladder.z][j]
                assert got == theta_margin(reads[ladder.z], j)
        # a zero argument is left unstored with margin 0
        store = ThetaLadders(q, 0j)
        margins = store.fill([(store[0.5 + 0j], 1), (store[0j], 1)])
        assert margins[0] == theta_margin(ThetaLadders(q, 0j)[0.5 + 0j], 1)
        assert margins[1] == 0 and 1 not in store[0j]


def _assert_units_of_reference(value, x, p, units):
    """|value - ref| <= units * 2^-prec * |ref|, with ref the per-factor
    loop at the working precision plus 200 bits."""
    prec = mpmath.mp.prec
    with mpmath.workprec(prec + 200):
        ref = _theta_reference(x, p)
        assert abs(value - ref) <= units * mpmath.ldexp(abs(ref), -prec)


class TestThetaAt40Digits:
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
        # the pair 1 - s p + p^3 is as small as it gets, and the product of
        # about 1,900 factors is about 3e-28, far below the fixed-point unit
        # of the working precision plus the guard bits
        with mpmath.workdps(40):
            p = mpmath.mpc(0.95)
            x = mpmath.sqrt(abs(p)) / p * (1 - mpmath.mpf(2) ** -30)
            assert abs(theta(x, p)) < 1e-27
            _assert_units_of_reference(theta(x, p), x, p, 4)

    @pytest.mark.parametrize("r", [0.98, 0.99])
    def test_truncation_tail_at_nomes_nearer_the_unit_circle(self, r):
        # the same edge as above: the dropped tail of the product grows
        # like 1 / (1 - |p|), which the factor count must absorb
        with mpmath.workdps(40):
            p = mpmath.mpc(r)
            x = mpmath.mpf("0.999") / mpmath.sqrt(p.real)
            _assert_units_of_reference(theta(x, p), x, p, 4)


class TestThetaStore:
    """A store's shared values of the nome against theta's own per call."""

    def test_shared_table_matches_a_per_call_table_bit_for_bit(self):
        # each store reads arguments z q^j in shuffled order of j: their
        # reductions differ, so the fixed-point table grows in steps
        q = mpmath.mpc(cmath.rect(0.7, 1.3))
        order = list(range(-4, 5))
        growths = stores = 0
        for dps in (15, 40, 60):
            with mpmath.workdps(dps):
                for x, p in _mp_points():
                    Random(dps).shuffle(order)
                    store = ThetaLadders(q, p)
                    sizes = set()
                    for j in order:
                        value = store[x][j]
                        assert repr(value) == repr(theta(x * q**j, p)), (dps, x, p, j)
                        sizes.add(len(store.nome.table))
                    growths += len(sizes)
                    stores += 1
        assert growths > stores

    def test_a_read_at_another_precision_computes_the_nome_afresh(self):
        # z is far outside the annulus, so the reads use the reduction's
        # powers of p as well as the product's table
        q, p = mpmath.mpc(0.55, 0.3), mpmath.mpc(0.3, 0.2)
        z = mpmath.mpc(2.3, -1.1) * mpmath.mpf(0.3) ** -12
        store = ThetaLadders(q, p)
        with mpmath.workdps(15):
            store[z][0]
            store[z][1]
            low = store.nome.powers, store.nome.table
            assert all(low)
        with mpmath.workdps(40):
            value = store[z][2]
            assert store.nome.prec == mpmath.mp.prec
            assert store.nome.powers is not low[0] and store.nome.table is not low[1]
            assert repr(value) == repr(theta(z * q**2, p))
            _assert_units_of_reference(value, z * q**2, p, 4)


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
        want = theta_fact(z * q**2, q, p, 5)
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


class TestLadderKernels:
    def test_ratio_guards_factors_not_their_product(self):
        # two denominator factors of about 1e-7 each clear the guard while
        # their product lies far below it: the ratio is still evaluated
        q, p = 0.55 + 0.3j, 0.2 - 0.1j
        lad = ThetaLadders(q, p)
        near_lo, near_hi, free = lad[1 - 1e-7 + 0j], lad[1 + 1e-7j], lad[0.6 + 0.2j]
        assert abs(near_lo[0] * near_hi[0]) < DENOMINATOR_GUARD < min(abs(near_lo[0]),
                                                                      abs(near_hi[0]))
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

    def test_series_at_p_zero_is_the_basic_sum(self):
        # sum_k (x; q)_k / (q; q)_k q^k at p = 0, against direct q-factorials
        x, q, m = 0.37 + 0.21j, 0.61 - 0.13j, 6
        lad = ThetaLadders(q, 0j)
        total, scale = series_with_running_products(((lad[x], 0),), ((lad[q], 0),), q, m,
                                                    lambda k: 1)
        terms = [qpoch(x, q, k) / qpoch(q, q, k) * q**k for k in range(m + 1)]
        assert relative_residual(total, sum(terms)) < 1e-14
        assert abs(scale - max(abs(t) for t in terms)) < 1e-14


class TestThetaFactorial:
    def test_empty(self):
        assert theta_fact(0.77 + 0.2j, 0.5, 0.3, 0) == 1

    def test_p_zero_is_bitwise_qpoch(self):
        x, q = 0.37 + 0.21j, 0.61 - 0.13j
        for k in range(8):
            assert theta_fact(x, q, 0, k) == qpoch(x, q, k)

    def test_composes_theta(self):
        x, q, p = 0.4, 0.6, 0.2
        want = theta(x, p) * theta(x * q, p) * theta(x * q**2, p)
        assert abs(theta_fact(x, q, p, 3) - want) < 1e-14

    def test_zero_argument_rejected(self):
        with pytest.raises(ZeroArgumentError):
            theta_fact(0.0, 0.5, 0.2, 2)


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
        # entry 0 of a ladder with q = 1 is theta(arg; p) itself
        lad = ThetaLadders(1, p)
        assume(min(theta_margin(lad[arg], 0) for arg in args) > 1e-6)
        assert addition_formula_residual(x, y, u, v, p) < 1e-10


def test_relative_residual_floor():
    assert relative_residual(1e-20, 0.0) == 1e-20
    assert relative_residual(2.0, 0.0) == 1.0
    assert relative_residual(1.0, 1.0, 1e6) == 0.0


def test_worst_residual_keeps_a_nan_wherever_it_stands():
    assert worst_residual([]) == 0.0
    assert worst_residual(iter([0.1, 0.3, 0.2])) == 0.3
    for residuals in ([math.nan, 0.1], [0.1, math.nan, 0.2], [0.1, math.inf, math.nan]):
        assert math.isnan(worst_residual(residuals))
