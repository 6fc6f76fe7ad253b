"""Cofactor-identity tests: series coefficients, linear-algebra solves
against closed forms, transition-matrix inversion, connection sums, and
root-evaluation divisibility."""

from __future__ import annotations

import math
from random import Random

import mpmath
import pytest

from conftest import unit_complex
from thetacb.bezout import (
    Poly,
    abq1_cofactors,
    bezout_solve,
    connection_first,
    connection_second,
    f_entry,
    g_entry,
    matrix_pair_check,
    mod_reduction_check,
    poly_monomial,
    qcb_cofactors,
    qpoch_poly,
    series_inv_qpoch,
)
from thetacb.errors import CommonRootError
from thetacb.special import qbinom, qpoch


def _coeff_gap(got: Poly, want: Poly) -> float:
    pad = max(len(got.coeffs), len(want.coeffs))
    scale = max([1.0] + [abs(z) for z in want.coeffs])
    gap = 0.0
    for i in range(pad):
        g = got.coeffs[i] if i < len(got.coeffs) else 0
        w = want.coeffs[i] if i < len(want.coeffs) else 0
        gap = max(gap, abs(g - w))
    return gap / scale


class TestPoly:
    def test_trim_and_degree(self):
        assert Poly((1, 2, 0, 0)).degree == 1
        assert Poly(()).degree == -1


class TestSeries:
    def test_geometric_case(self):
        s = series_inv_qpoch(0, 0.7, 2)
        assert s.coeffs == (1, 1, 1)

    def test_first_nontrivial_coefficient(self):
        s = series_inv_qpoch(1, 0.5, 1)
        assert abs(s.coeffs[0] - 1) == 0
        assert abs(s.coeffs[1] - 1.5) < 1e-15

    def test_product_is_one_modulo_truncation(self):
        q, n, m = 0.6 + 0.1j, 2, 5
        prod = series_inv_qpoch(n, q, m) * qpoch_poly(1, q, n + 1)
        assert abs(prod.coeffs[0] - 1) < 1e-14
        assert max(abs(c) for c in prod.coeffs[1:m + 1]) < 1e-13


class TestBezoutSolve:
    def test_smallest_case(self):
        q1, q2 = bezout_solve(qpoch_poly(1, 0.5, 1), poly_monomial(1), 0, 0)
        assert q1.coeffs == (1 + 0j,)
        assert q2.coeffs == (1 + 0j,)

    def test_one_parameter_family_matches_series(self):
        q = 0.6
        m, n = 2, 1
        q1, _ = bezout_solve(qpoch_poly(1, q, n + 1), poly_monomial(m + 1), m, n)
        for k, c in enumerate(q1.coeffs):
            assert abs(c - qbinom(n + k, k, q)) < 1e-12

    def test_two_parameter_family_matches_closed_sum(self):
        rng = Random(71)
        for _ in range(10):
            a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
            q = unit_complex(rng, 0.3, 0.9)
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            got1, got2 = bezout_solve(qpoch_poly(b, q, n + 1),
                                      qpoch_poly(a, q, m + 1), m, n)
            want1, want2 = abq1_cofactors(a, b, q, m, n)
            assert _coeff_gap(got1, want1) < 1e-9
            assert _coeff_gap(got2, want2) < 1e-9

    def test_cross_orientation_symmetry(self):
        # Q1 at (a, b, m, n) equals Q2 of the independent swapped solve
        rng = Random(72)
        a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
        q = unit_complex(rng, 0.3, 0.9)
        m, n = 3, 2
        q1, _ = bezout_solve(qpoch_poly(b, q, n + 1), qpoch_poly(a, q, m + 1), m, n)
        _, q2_swapped = bezout_solve(qpoch_poly(a, q, m + 1), qpoch_poly(b, q, n + 1), n, m)
        assert _coeff_gap(q1, q2_swapped) < 1e-10

    def test_repeat_solves_are_identical(self):
        q = 0.45 + 0.2j
        first = bezout_solve(qpoch_poly(1, q, 3), poly_monomial(3), 2, 2)
        second = bezout_solve(qpoch_poly(1, q, 3), poly_monomial(3), 2, 2)
        assert first[0].coeffs == second[0].coeffs
        assert first[1].coeffs == second[1].coeffs

    def test_common_root_rejected(self):
        q = 0.5
        with pytest.raises(CommonRootError):
            bezout_solve(qpoch_poly(1, q, 2), qpoch_poly(1, q, 3), 2, 1)

    def test_degree_contract(self):
        with pytest.raises(ValueError):
            bezout_solve(qpoch_poly(1, 0.5, 4), poly_monomial(1), 0, 0)


class TestTransitionMatrices:
    def test_trivial_size(self):
        assert matrix_pair_check(0, 0.7) == 0

    def test_moderate_size(self):
        assert matrix_pair_check(5, 0.7) < 1e-12

    def test_inverse_entries_are_base_inverted(self):
        q = 0.7 - 0.2j
        worst = max(abs(g_entry(n, k, q) - f_entry(n, k, 1 / q))
                    for n in range(6) for k in range(n + 1))
        assert worst < 1e-13


class TestConnectionCoefficients:
    def test_k_zero_prefactor(self):
        a, b, q = 0.8, 1.3, 0.6
        for n in range(5):
            assert abs(connection_first(n, 0, a, b, q) - qpoch(b / a, q, n)) < 1e-13

    def test_first_kind_connecting_relation(self):
        rng = Random(77)
        worst = 0.0
        for _ in range(20):
            a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
            q, x = unit_complex(rng, 0.3, 0.9), unit_complex(rng, 0.2, 2)
            n = rng.randint(0, 5)
            terms = [connection_first(n, k, a, b, q) * qpoch(a * x, q, k)
                     for k in range(n + 1)]
            scale = max([1.0] + [abs(t) for t in terms])
            worst = max(worst, abs(sum(terms) - qpoch(b * x, q, n)) / scale)
        assert worst < 1e-11

    def test_second_kind_connecting_relation(self):
        rng = Random(78)
        worst = 0.0
        for _ in range(20):
            a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
            q, x = unit_complex(rng, 0.3, 0.9), unit_complex(rng, 0.2, 2)
            n = rng.randint(0, 5)
            terms = [connection_second(n, k, a, b, q)
                     * qpoch(a * x, q, k) * qpoch(a / x, q, k)
                     for k in range(n + 1)]
            scale = max([1.0] + [abs(t) for t in terms])
            target = qpoch(b * x, q, n) * qpoch(b / x, q, n)
            worst = max(worst, abs(sum(terms) - target) / scale)
        assert worst < 1e-11

    def test_terminates_above_n(self):
        # the (q^-n; q)_k factor vanishes for k > n, up to rounding in q^-n q^n
        assert abs(connection_first(3, 5, 0.8, 1.3, 0.6)) < 1e-15


class TestNanReachesTheResidual:
    """A residual fold keeps a NaN wherever it stands, not only first."""

    def test_matrix_pair_check(self):
        # q^0 = 1 even at q = NaN, so the first entries stay finite
        assert math.isnan(matrix_pair_check(2, math.nan))

    @pytest.mark.parametrize("family", ["first", "second"])
    def test_mod_reduction_check(self, monkeypatch, family):
        import thetacb.bezout as bezout

        a, b, q = 0.9, 1.4, 0.6
        inner = bezout.qpoch
        # the modulus factor (b x; q) at the second root x = q^-1 / a
        second = b * (q ** (-1) / a)
        monkeypatch.setattr(bezout, "qpoch",
                            lambda x, q, k: math.nan if x == second else inner(x, q, k))
        assert math.isnan(mod_reduction_check(family, a, b, q, 1, 1))


class TestModReduction:
    def test_single_root(self):
        assert mod_reduction_check("first", 0.9, 1.4, 0.6, 0, 3) < 1e-12

    def test_first_kind_sweep(self):
        rng = Random(79)
        worst = 0.0
        for _ in range(10):
            a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
            q = unit_complex(rng, 0.3, 0.9)
            worst = max(worst, mod_reduction_check("first", a, b, q, 2, 1))
        assert worst < 1e-11

    def test_second_kind_sweep(self):
        rng = Random(80)
        worst = 0.0
        for _ in range(10):
            a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
            q = unit_complex(rng, 0.3, 0.9)
            worst = max(worst, mod_reduction_check("second", a, b, q, 1, 1))
        assert worst < 1e-10

    def test_second_kind_at_thirty_digits(self):
        # the closed cofactors are built at the working precision: read in
        # doubles they leave a gap near 1e-17
        rng = Random(81)
        worst = 0.0
        with mpmath.workdps(30):
            for _ in range(6):
                a, b = (mpmath.mpc(unit_complex(rng, 0.2, 2)) for _ in range(2))
                q = mpmath.mpc(unit_complex(rng, 0.3, 0.9))
                for m in range(4):
                    for n in range(4):
                        worst = max(worst, mod_reduction_check("second", a, b, q, m, n))
        assert worst < 1e-25

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            mod_reduction_check("third", 1, 2, 0.5, 1, 1)


def test_qcb_cofactors_satisfy_identity():
    q, m, n = 0.55 + 0.2j, 3, 2
    q1, q2 = qcb_cofactors(q, m, n)
    ident = qpoch_poly(1, q, n + 1) * q1 + poly_monomial(m + 1) * q2
    assert abs(ident.coeffs[0] - 1) < 1e-12
    assert max(abs(c) for c in ident.coeffs[1:]) < 1e-12
