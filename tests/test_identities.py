"""Identity family tests: every member of the degeneration chain, the
variant and homogeneous forms, and the limit arrows."""

from __future__ import annotations

import cmath
import math
from random import Random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ring_complex, unit_complex
from thetacb.errors import DegenerateParameterError, UnknownIdentityError
from thetacb.identities import (
    ARROWS,
    FAMILIES,
    abq1_q_to_1_gap,
    cb_homogeneous_residual,
    cb_residual,
    cb_term_abcq,
    cb_term_elliptic,
    cb_terms,
    cb_terms_classical,
    degeneration_consistency,
    degeneration_decay,
)
from thetacb.lattice import master_equality_total
from thetacb.params import IdentitySize, ParamPoint
from thetacb.sampling import sample_param_point
from thetacb.special import relative_residual


class TestDirectFamilies:
    def test_classical_smallest_case(self):
        # (1 - x) + x telescopes exactly
        assert cb_residual("classical", _point(x=0.37), 0, 0) < 1e-16

    def test_qcb_fixed_case(self):
        assert cb_residual("qcb", _point(x=0.3, q=0.6), 2, 1) < 1e-12

    def test_every_family_random_sweep(self):
        rng = Random(202)
        worst = {family: 0.0 for family in FAMILIES}
        for _ in range(25):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            pp = sample_param_point(rng, IdentitySize(m, n))
            for family in FAMILIES:
                worst[family] = max(worst[family], cb_residual(family, pp, m, n))
        assert worst["elliptic"] < 1e-9
        for family in ("abcq", "abq2", "abq1", "qcb", "classical"):
            assert worst[family] < 1e-10, family

    def test_classical_exact_binomials_large_depths(self):
        rng = Random(203)
        worst = 0.0
        for _ in range(60):
            x = unit_complex(rng, 0.05, 2.0)
            m, n = rng.randint(0, 20), rng.randint(0, 20)
            worst = max(worst, cb_residual("classical", _point(x=x), m, n))
        assert worst < 1e-13

    def test_unknown_family(self, generic_point):
        with pytest.raises(UnknownIdentityError):
            cb_residual("hyperbolic", generic_point, 1, 1)

    def test_p_zero_fast_path_is_bitwise(self, point_factory):
        pp = point_factory(4, 3)
        assert cb_term_elliptic(pp.replace(p=0j), 4, 3) == cb_term_abcq(pp, 4, 3)

    def test_elliptic_matches_lattice_master_route(self):
        rng = Random(204)
        worst = 0.0
        for _ in range(8):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            pp = sample_param_point(rng, IdentitySize(m, n))
            term_a, term_b = cb_terms("elliptic", pp, m, n)
            total, scale = master_equality_total(pp, IdentitySize(m, n))
            worst = max(worst, relative_residual(
                term_a + term_b, total, scale, abs(term_a), abs(term_b)))
        assert worst < 1e-9

    def test_prefactor_finite_where_its_products_overflow(self):
        # deep campaign (m, n <= 8) at seed 2, identity elliptic_cb,
        # (m, n) = (4, 8), trial seed below: the numerator and denominator
        # products of the prefactor each overflowed, giving NaN
        pp = sample_param_point(Random(6883571911407151626), IdentitySize(4, 8), p_max=0.5)
        assert cb_residual("elliptic", pp, 4, 8) < 1e-8


    def test_series_cancellation_scales_the_residual(self):
        # deep campaign (m, n <= 8) at seed 11, identity elliptic_cb,
        # (m, n) = (1, 5), trial 0: the mirror series sums to 3.1e-6 from
        # terms up to 44.7, and the residual normalised by the family terms
        # alone read 9.7e-9 against 5e-33 at 40 digits
        pp = sample_param_point(Random(2898370640500266951), IdentitySize(1, 5), p_max=0.5)
        assert cb_residual("elliptic", pp, 1, 5) <= 1e-12

    def test_vanished_prefactor_factor_raises(self, generic_point):
        with pytest.raises(DegenerateParameterError):
            cb_term_elliptic(generic_point.replace(b=generic_point.a), 3, 4)


class TestMirrorSymmetry:
    def test_parameterised_families_swap_exactly(self):
        rng = Random(205)
        for _ in range(10):
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            pp = sample_param_point(rng, IdentitySize(max(m, n), max(m, n)))
            for family in ("elliptic", "abcq", "abq2", "abq1"):
                r1 = cb_residual(family, pp, m, n)
                r2 = cb_residual(family, pp.swap_ab(), n, m)
                assert abs(r1 - r2) < 1e-12, family

    def test_plain_families_are_tiny_after_swap(self):
        rng = Random(206)
        for _ in range(10):
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            pp = sample_param_point(rng, IdentitySize(max(m, n), max(m, n)))
            for family in ("qcb", "classical"):
                assert cb_residual(family, pp, m, n) < 1e-12
                assert cb_residual(family, pp, n, m) < 1e-12

    def test_abq1_b_redundancy(self):
        rng = Random(207)
        for _ in range(10):
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            pp = sample_param_point(rng, IdentitySize(max(m, n), max(m, n)))
            r1 = cb_residual("abq1", pp, m, n)
            eliminated = pp.replace(x=pp.x / pp.b, a=pp.a * pp.b, b=1 + 0j)
            r2 = cb_residual("abq1", eliminated, m, n)
            assert abs(r1 - r2) < 1e-12


class TestVariantAndHomogeneous:
    # the signed variant is the homogeneous form at (X, Y) = (-x, 1)
    def test_variant_smallest_case(self):
        assert cb_homogeneous_residual(-0.5, 1, 0, 0) < 1e-16

    def test_variant_fixed_cases(self):
        assert cb_homogeneous_residual(-2.5, 1, 3, 2) < 1e-12
        assert cb_homogeneous_residual(1.2, 1, 1, 4) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(x=ring_complex(0.1, 2.5), m=st.integers(0, 6), n=st.integers(0, 6))
    def test_variant_matches_mapped_classical_terms(self, x, m, n):
        # the variant is the classical expansion at x/(x-1), cleared of
        # denominators; term one must match factor for factor
        if abs(x - 1) < 0.05:
            return
        y = x / (x - 1)
        term_a_cl, _ = cb_terms_classical(y, m, n)
        mapped = (1 - x) ** (m + n + 1) * term_a_cl
        term_a = 0
        sign = 1
        xk = 1
        for k in range(m + 1):
            term_a += math.comb(n + k, k) * sign * xk * (1 - x) ** (m - k)
            sign = -sign
            xk *= x
        assert relative_residual(term_a, mapped) < 1e-11

    def test_homogeneous_smallest_case(self):
        assert cb_homogeneous_residual(0.4, 0.6, 0, 0) < 1e-16

    def test_homogeneous_fixed_cases(self):
        assert cb_homogeneous_residual(1.3, -0.2, 2, 2) < 1e-12
        assert cb_homogeneous_residual(0.1, 5.0, 4, 1) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(x=ring_complex(0.1, 2.5), y=ring_complex(0.1, 2.5),
           m=st.integers(0, 6), n=st.integers(0, 6))
    # |x/s| about 3.1: the double-precision sum cancels to 1.09e-10
    @example(x=1.6487212707001282 + 0j, y=cmath.rect(math.exp(0.75), 3.0), m=5, n=5)
    def test_homogeneous_is_scaled_classical(self, x, y, m, n):
        # evaluated at 30 digits, so the bound tests the identity rather
        # than the cancellation of the classical sums at large |x/s|
        with mpmath.workdps(30):
            x, y = mpmath.mpc(x), mpmath.mpc(y)
            s = x + y
            if abs(s) < 0.05:
                return
            term_a_cl, term_b_cl = cb_terms_classical(x / s, m, n)
            scale = s ** (m + n + 1)
            assert relative_residual(scale * (term_a_cl + term_b_cl), scale) < 1e-10


# one pinned, moderately-scaled point keeps the literal gap bounds stable
_PINNED = ParamPoint(x=0.83 + 0.21j, a=1.12 - 0.33j, b=0.64 + 0.48j,
                     c=1.31 + 0.09j, q=0.52 + 0.11j, p=0.21 + 0.07j)


def _point(**kwargs):
    values = dict(x=_PINNED.x, a=_PINNED.a, b=_PINNED.b, c=_PINNED.c,
                  q=_PINNED.q, p=_PINNED.p)
    values.update(kwargs)
    return ParamPoint(**values)


class TestDegenerationChain:
    def test_first_arrow_small_eps(self):
        rep = degeneration_consistency(_PINNED, 1, 1, 1e-4)
        assert rep.gaps["elliptic_to_abcq"] < 1e-3

    def test_last_arrow_small_eps(self):
        rep = degeneration_consistency(_PINNED, 2, 1, 1e-5)
        assert rep.gaps["qcb_to_classical"] < 1e-3

    def test_all_arrows_decay_under_halving(self):
        rng = Random(208)
        for _ in range(3):
            pp = sample_param_point(rng, IdentitySize(2, 2))
            seqs = degeneration_decay(pp, 2, 1, eps0=1e-3, halvings=2)
            for name in ARROWS:
                gaps = seqs[name]
                for first, second in zip(gaps, gaps[1:]):
                    assert second < first / 1.8, name

    def test_q_to_one_limit_with_substituted_argument(self):
        # the first-kind family at q -> 1 is the classical identity in
        # x' = (1 - ax)/(1 - a/b); the gap decays linearly in eps
        gap_coarse = abq1_q_to_1_gap(_PINNED, 1e-4, 2, 1)
        gap_fine = abq1_q_to_1_gap(_PINNED, 1e-5, 2, 1)
        assert gap_fine < gap_coarse / 5
        assert gap_fine < 1e-3
