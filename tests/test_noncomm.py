"""Normal-form algebra tests: elliptic binomial coefficients and their
recursions, the reorder rules, binomial and homogeneous theorems,
convolution, and the terminating very-well-poised summation."""

from __future__ import annotations

import math
from itertools import combinations
from random import Random

import mpmath
import pytest

from conftest import (LEAF_KERNELS, ab_point, fresh_copy, nan_on_second_call,
                      normal_form_leaves, shifted_point, unit_complex)
from thetacb import noncomm
from thetacb.errors import DegenerateParameterError
from thetacb.noncomm import (
    AlgebraTag,
    Evaluator,
    binomial_theorem_residual,
    closed_binomial,
    coeff_binomial_weight,
    coeff_h,
    compare_maps,
    convolution_nf_cross_check,
    convolution_residual,
    elliptic_binomial,
    evaluate_element,
    frenkel_turaev,
    frenkel_turaev_from_convolution,
    homogeneous_cb_residual,
    nf_mul,
    pascal_residual,
    path_binomial,
)
from thetacb.lattice import b_closed
from thetacb.params import IdentitySize, ParamPoint
from thetacb.sampling import check_genericity, sample_param_point, to_mp
from thetacb.special import qbinom, relative_residual, theta_ratio, worst_residual
from thetacb.weights import ZERO_SHIFT, binomial_weight, elliptic_weight, normalized_weight


class TestEllipticBinomials:
    def test_boundaries_are_exact(self, rng):
        a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
        q, p = unit_complex(rng, 0.3, 0.9), unit_complex(rng, 0.05, 0.5)
        pp = ab_point(a, b, q, p)
        for n in range(5):
            assert elliptic_binomial(pp, n, 0) == 1
            assert elliptic_binomial(pp, n, n) == 1

    def test_vanishes_outside_range(self, rng):
        a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
        assert elliptic_binomial(ab_point(a, b, 0.5, 0.2), 3, -1) == 0
        assert elliptic_binomial(ab_point(a, b, 0.5, 0.2), 3, 4) == 0
        assert path_binomial(_pp(rng), 3, -2) == 0
        assert path_binomial(_pp(rng), 3, 5) == 0

    def test_recursion_fixed_case(self, rng):
        a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
        q, p = unit_complex(rng, 0.3, 0.9), unit_complex(rng, 0.05, 0.5)
        assert pascal_residual(AlgebraTag.ELLIPTIC_AB, ab_point(a, b, q, p), 3) < 1e-10

    def test_recursion_sweep(self, rng):
        worst = 0.0
        for _ in range(30):
            a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
            q, p = unit_complex(rng, 0.3, 0.9), unit_complex(rng, 0.05, 0.5)
            worst = max(worst, pascal_residual(AlgebraTag.ELLIPTIC_AB, ab_point(a, b, q, p),
                                               rng.randint(0, 5)))
        assert worst < 1e-10

    def test_limit_reaches_q_binomial(self):
        # iterated order p -> 0, a -> 0, b -> 0, so |a| << |b| << 1
        q = 0.55
        worst = max(abs(elliptic_binomial(ab_point(1e-16, 1e-8, q, 0), n, k) - qbinom(n, k, q))
                    for n in range(6) for k in range(n + 1))
        assert worst < 1e-6

    def test_nearly_vanished_denominator_factor_raises(self, generic_point):
        # aq/b = 1/(1 + 1e-15): one denominator theta is about 1e-15,
        # small enough to blow the value up, but not exactly zero
        a, q, p = generic_point.a, generic_point.q, generic_point.p
        with pytest.raises(DegenerateParameterError):
            elliptic_binomial(ab_point(a, a * q * (1 + 1e-15), q, p), 4, 2)

    def test_path_binomial_is_normalised_table(self, generic_point):
        for n in range(1, 6):
            for k in range(1, n):
                want = b_closed(generic_point, k, n - k)
                assert relative_residual(path_binomial(generic_point, n, k), want) == 0

    def test_path_binomial_counts_weighted_paths(self, generic_point):
        # independent oracle: enumerate paths to (k, n-k), east steps at
        # (i, j) weighing H(i, j), north steps H~(j, i)
        pp = generic_point
        swapped = pp.replace(a=pp.b, b=pp.a)
        worst = 0.0
        for n in range(6):
            for k in range(n + 1):
                total = 0
                for pos in combinations(range(n), k):
                    bits = [0] * n
                    for t in pos:
                        bits[t] = 1
                    acc, i, j = 1, 0, 0
                    for s in bits:
                        if s:
                            acc *= normalized_weight(pp, i, j)
                            i += 1
                        else:
                            acc *= normalized_weight(swapped, j, i)
                            j += 1
                    total += acc
                worst = max(worst, relative_residual(path_binomial(pp, n, k), total))
        assert worst < 1e-12

    def test_path_recursion_sweep(self, generic_point):
        worst = 0.0
        for n in range(5):
            worst = max(worst, pascal_residual(AlgebraTag.ELLIPTIC_XABC, generic_point, n))
        assert worst < 1e-10

    def test_path_binomial_ellipticity(self, generic_point):
        pp = generic_point
        base = path_binomial(pp, 5, 2)
        worst = 0.0
        for name in ("x", "a", "b", "c"):
            shifted = pp.replace(**{name: getattr(pp, name) * pp.p})
            worst = max(worst, relative_residual(path_binomial(shifted, 5, 2), base))
        assert worst < 1e-9


def _pp(rng):
    return sample_param_point(rng, IdentitySize(6, 6))


class TestShiftedLeaves:
    """A leaf at a substitution state reads the base point's ladders at
    offset indices; the reference is the kernel at the substituted point."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_leaf_is_its_kernel_at_the_substituted_point(self, seed):
        pp = sample_param_point(Random(seed), IdentitySize(3, 3))
        leaves = normal_form_leaves(pp)
        assert {name for (name, *_), _ in leaves} == LEAF_KERNELS.keys()
        for ((name, *indices), shift), value in leaves.items():
            want = LEAF_KERNELS[name](shifted_point(pp, shift), *indices, ZERO_SHIFT)
            assert abs(value - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("seed", range(3))
    def test_binomials_are_read_at_the_substituted_point(self, seed):
        # the normal forms' shifts and the convolution's (j, n - j, n)
        pp = sample_param_point(Random(seed), IdentitySize(3, 3))
        shifts = {shift for _, shift in normal_form_leaves(pp)}
        shifts |= {(j, n - j, n) for n in range(4) for j in range(n + 1)}
        for shift in sorted(shifts):
            ref = shifted_point(pp, shift)
            for n in range(5):
                for k in range(n + 1):
                    for kernel in (elliptic_binomial, path_binomial):
                        want = kernel(ref, n, k)
                        assert abs(kernel(pp, n, k, shift) - want) <= 1e-12 * abs(want)

    def test_shifted_leaves_add_no_ladders(self):
        sizes = []
        for depth in (1, 2, 3):
            pp = sample_param_point(Random(depth), IdentitySize(depth, depth))
            homogeneous_cb_residual(AlgebraTag.ELLIPTIC_XABC, pp, depth, depth)
            convolution_residual(pp, depth, depth, depth)
            sizes.append(len(pp.thetas))
        assert sizes[0] == sizes[1] == sizes[2]


def _monomial(k, l):
    """The element X^k Y^l."""
    return lambda ev, shift: [((k, l), 1)]


def _constant(value):
    """The coefficient ``value``, the same at every shift."""
    return lambda ev, shift: value


class TestNormalForm:
    def test_x_times_y_is_already_normal(self, generic_point):
        ev = Evaluator(AlgebraTag.Q_COMMUTING, generic_point)
        assert dict(nf_mul(ev, [((1, 0), 1)], _monomial(0, 1))) == {(1, 1): 1}

    def test_yx_reorders_with_q(self, generic_point):
        ev = Evaluator(AlgebraTag.Q_COMMUTING, generic_point)
        values = dict(nf_mul(ev, [((0, 1), 1)], _monomial(1, 0)))
        assert abs(values[(1, 1)] - generic_point.q) == 0

    def test_yx_reorders_with_normalised_weight(self, generic_point):
        ev = Evaluator(AlgebraTag.ELLIPTIC_XABC, generic_point)
        values = dict(nf_mul(ev, [((0, 1), 1)], _monomial(1, 0)))
        want = normalized_weight(generic_point, 0, 1)
        assert relative_residual(values[(1, 1)], want) < 1e-14

    def test_general_reorder_rule(self, generic_point):
        # Y^s X^r = (prod_{i<r} H(i, s)) X^r Y^s, checked against the
        # closed product rather than the elementary steps the engine uses
        ev = Evaluator(AlgebraTag.ELLIPTIC_XABC, generic_point)
        worst = 0.0
        for s in range(5):
            for r in range(5):
                got = dict(nf_mul(ev, [((0, s), 1)], _monomial(r, 0)))[(r, s)]
                want = 1
                for i in range(r):
                    want = want * normalized_weight(generic_point, i, s)
                worst = max(worst, relative_residual(got, want))
        assert worst < 1e-12

    def test_associativity_all_algebras(self, generic_point):
        rng = Random(303)

        def random_element(tag):
            terms = {}
            for _ in range(3):
                key = (rng.randint(0, 2), rng.randint(0, 2))
                if tag is AlgebraTag.ELLIPTIC_XABC:
                    c = coeff_h(rng.randint(0, 2), rng.randint(0, 2),
                                swap=bool(rng.getrandbits(1)))
                elif tag is AlgebraTag.ELLIPTIC_AB:
                    c = coeff_binomial_weight(rng.randint(0, 2), rng.randint(1, 2))
                else:
                    c = _constant(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                terms.setdefault(key, []).append(c)
            return lambda ev, shift: sorted((key, sum(c(ev, shift) for c in coeffs))
                                            for key, coeffs in terms.items())

        worst = 0.0
        for tag in AlgebraTag:
            ev = Evaluator(tag, generic_point)
            for _ in range(4):
                e1, e2, e3 = (random_element(tag) for _ in range(3))
                left = nf_mul(ev, nf_mul(ev, e1(ev, ZERO_SHIFT), e2), e3)
                right = nf_mul(ev, e1(ev, ZERO_SHIFT),
                               lambda ev, shift: nf_mul(ev, e2(ev, shift), e3, shift))
                worst = max(worst, compare_maps(dict(left), dict(right)))
        assert worst < 1e-10


class TestBinomialTheorems:
    def test_zeroth_power_is_unit(self, generic_point):
        assert Evaluator(AlgebraTag.ELLIPTIC_AB, generic_point).power(0) == [((0, 0), 1)]

    def test_first_power_of_weighted_base(self, generic_point):
        pp = generic_point
        values = dict(Evaluator(AlgebraTag.ELLIPTIC_XABC, pp).power(1))
        want = elliptic_weight(pp.replace(a=pp.b, b=pp.a), 0, 0)
        assert values[(1, 0)] == 1
        assert relative_residual(values[(0, 1)], want) == 0

    def test_q_commuting_cubic_coefficients(self, generic_point):
        values = dict(Evaluator(AlgebraTag.Q_COMMUTING, generic_point).power(3))
        q = generic_point.q
        for k in range(4):
            assert relative_residual(values[(k, 3 - k)], qbinom(3, k, q)) < 1e-14

    def test_fourth_power_matches_closed_binomials(self, generic_point):
        pp = generic_point
        values = dict(Evaluator(AlgebraTag.ELLIPTIC_AB, pp).power(4))
        worst = 0.0
        for k in range(5):
            want = elliptic_binomial(pp, 4, k)
            worst = max(worst, relative_residual(values[(k, 4 - k)], want))
        assert worst < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_closed_binomial_is_the_numeric_closed_formula(self, seed):
        # each row's closed coefficients, evaluated, are the formulas bit for bit
        pp = sample_param_point(Random(seed), IdentitySize(6, 6))
        for n in range(7):
            prods = [1]
            for j in range(n):
                prods.append(prods[-1] * elliptic_weight(pp, j, 0, swap=True))
            want = {
                AlgebraTag.Q_COMMUTING: [qbinom(n, k, pp.q) for k in range(n + 1)],
                AlgebraTag.ELLIPTIC_AB: [elliptic_binomial(pp, n, k) for k in range(n + 1)],
                AlgebraTag.ELLIPTIC_XABC: [path_binomial(pp, n, k) * prods[n - k]
                                           for k in range(n + 1)],
            }
            for tag, values in want.items():
                got = evaluate_element(Evaluator(tag, pp), closed_binomial(n))
                assert got == {(k, n - k): v for k, v in enumerate(values)}, (tag, n)

    def test_all_theorems_to_degree_six(self, generic_point):
        # worst_residual keeps a NaN, which a plain max could drop
        worst = worst_residual(binomial_theorem_residual(tag, generic_point, n)
                               for tag in AlgebraTag for n in range(7))
        assert worst < 1e-9

    def test_cancelling_point_holds_at_forty_digits(self):
        with mpmath.workdps(40):
            residual = binomial_theorem_residual(AlgebraTag.ELLIPTIC_AB,
                                                 to_mp(_cancelling_point()), 8)
        assert residual < 1e-25

    @pytest.mark.xfail(strict=True, reason="the X^3 Y^5 coefficient, |c| = 3.1e-7, cancels "
                       "in doubles; the residual is not scaled by the magnitude it was "
                       "summed from (ROADMAP item 1)")
    def test_cancelling_point_passes_in_doubles(self):
        # a fresh store at this point reads 1.55e-3
        residual = binomial_theorem_residual(AlgebraTag.ELLIPTIC_AB, _cancelling_point(), 8)
        assert residual <= 1e-8


def _cancelling_point():
    """The draw of binomial_elliptic_ab (8, 0), trial 0 of `thetacb --identities
    w_binomial_recursion,binomial_elliptic_ab,homogeneous_elliptic_ab --m-max 8
    --n-max 8 --trials 2 --seed 0` (trial seed 4431215079822502626), which
    reads 1.47e-3 in doubles and 1.4e-28 at 40 digits."""
    return ParamPoint(x=-0.17926543361262848 - 1.0251336627138594j,
                      a=1.0641560825669323 - 0.27006412411253955j,
                      b=-0.14094340248939174 - 0.36013370207818773j,
                      c=-0.20939939478207598 + 0.5209536693970459j,
                      q=0.33682115241938176 - 0.45362145752266947j,
                      p=0.2706616070836588 - 0.056261948324981506j)


class TestHomogeneousTheorems:
    def test_smallest_case_all_algebras(self, generic_point):
        for tag in AlgebraTag:
            assert homogeneous_cb_residual(tag, generic_point, 0, 0) < 1e-14

    def test_fixed_cases(self, generic_point):
        assert homogeneous_cb_residual(AlgebraTag.ELLIPTIC_AB, generic_point, 2, 2) < 1e-9
        assert homogeneous_cb_residual(AlgebraTag.ELLIPTIC_XABC, generic_point, 3, 1) < 1e-9

    def test_q_commuting_with_swap_invariance(self, generic_point):
        worst = 0.0
        for m in range(3):
            for n in range(3):
                worst = max(worst, homogeneous_cb_residual(
                    AlgebraTag.Q_COMMUTING, generic_point, m, n))
        assert worst < 1e-10

    def test_sweep_small_sizes(self, generic_point):
        worst = 0.0
        for tag in AlgebraTag:
            for m in range(3):
                for n in range(3):
                    worst = max(worst, homogeneous_cb_residual(tag, generic_point, m, n))
        assert worst < 1e-9

    def test_q_commuting_rhs_is_the_paper_form_in_normal_order(self, generic_point):
        # the paper's first sum leads with Y^(n+1):
        #   Y^(n+1) sum_k [n+k, k]_q q^(-(n+1)k) X^k (X+Y)^(m-k)
        #   + X^(m+1) sum_k [m+k, k]_(1/q) q^((m+1)k) Y^k (X+Y)^(n-k)
        q = generic_point.q
        ev = Evaluator(AlgebraTag.Q_COMMUTING, generic_point)

        def power(j):
            return lambda ev, shift: ev.power(j, shift)

        def times(k, l, right):
            return lambda ev, shift: nf_mul(ev, [((k, l), 1)], right, shift)

        worst = 0.0
        for m in range(4):
            for n in range(4):
                terms = [(q ** (-(n + 1) * k) * qbinom(n + k, k, q),
                          times(0, n + 1, times(k, 0, power(m - k)))) for k in range(m + 1)]
                terms += [(q ** ((m + 1) * k) * qbinom(m + k, k, 1 / q),
                           times(m + 1, k, power(n - k))) for k in range(n + 1)]
                paper = {}
                for c, term in terms:
                    for key, value in evaluate_element(ev, term).items():
                        paper[key] = paper.get(key, 0) + c * value
                ours = evaluate_element(ev, noncomm._homogeneous_rhs(m, n))
                worst = max(worst, compare_maps(paper, ours))
        assert worst <= 1e-13


class TestNanReachesTheResidual:
    """A residual fold keeps a NaN wherever it stands, not only first."""

    def test_compare_maps(self):
        left = {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 1.0}
        right = {(0, 0): 1.001, (1, 0): math.nan, (0, 1): 1.0}
        assert math.isnan(compare_maps(left, right))

    @pytest.mark.parametrize("left, right", [
        # an inf made the row maximum inf, and so hid the gap at (0, 0)
        ({(0, 0): 1.0, (1, 0): 2.0}, {(0, 0): 3.0, (1, 0): math.inf}),
        # max(0, nan) is 0, so every entry read as a structural zero
        ({(0, 0): 1.0, (1, 0): 0.0}, {(0, 0): 1.0, (1, 0): math.nan}),
    ])
    def test_compare_maps_reads_any_non_finite_coefficient_as_nan(self, left, right):
        assert math.isnan(compare_maps(left, right))
        assert math.isnan(compare_maps(right, left))

    def test_q_commuting_swap_fold(self, monkeypatch, generic_point):
        monkeypatch.setattr(noncomm, "compare_maps", nan_on_second_call(noncomm.compare_maps))
        assert math.isnan(homogeneous_cb_residual(AlgebraTag.Q_COMMUTING, generic_point, 1, 1))


def _pascal_reference(tag, pp, n):
    """The three Pascal rules as the numeric formulas the row replaces,
    worst over 0 <= k <= n+1."""
    q, gaps = pp.q, []
    for k in range(n + 2):
        if tag is AlgebraTag.Q_COMMUTING:
            lhs = qbinom(n + 1, k, q)
            rhs = qbinom(n, k, q) + q ** (n + 1 - k) * qbinom(n, k - 1, q)
        elif tag is AlgebraTag.ELLIPTIC_AB:
            lhs = elliptic_binomial(pp, n + 1, k)
            rhs = elliptic_binomial(pp, n, k)
            if k:
                rhs = rhs + elliptic_binomial(pp, n, k - 1) * binomial_weight(pp, k, n + 1 - k)
        else:
            lhs, rhs = path_binomial(pp, n + 1, k), 0
            if k:
                rhs = rhs + path_binomial(pp, n, k - 1) * normalized_weight(pp, k - 1, n + 1 - k)
            if k <= n:
                rhs = rhs + path_binomial(pp, n, k) * normalized_weight(pp, n - k, k, swap=True)
        gaps.append(relative_residual(lhs, rhs))
    return worst_residual(gaps)


def _convolution_reference(pp, n, m, k):
    """convolution_residual as the numeric sum with math.prod swap products."""
    def swaps(count, start=0, row=0):
        return math.prod(elliptic_weight(pp, start + s, row, swap=True) for s in range(count))

    lhs = path_binomial(pp, n + m, k) * swaps(n + m - k)
    total, scale = 0, abs(lhs)
    for j in range(max(0, k - m), min(k, n) + 1):
        term = path_binomial(pp, n, j) * path_binomial(pp, m, k - j, (j, n - j, n))
        term = term * swaps(n - j) * swaps(m + j - k, n - j, j)
        for i in range(k - j):
            term = term * normalized_weight(pp, i + j, n - j)
        total = total + term
        scale = max(scale, abs(term))
    return float(abs(lhs - total) / max(1.0, scale))


class TestRowsAreTheNumericFormulas:
    """The residuals built from the rows of noncomm._RULES give the numeric
    formulas bit for bit."""

    @pytest.mark.parametrize("seed", range(3))
    def test_pascal_residual(self, seed):
        pp = sample_param_point(Random(seed), IdentitySize(6, 6))
        for tag in AlgebraTag:
            for n in range(7):
                assert pascal_residual(tag, pp, n) == _pascal_reference(tag, pp, n), (tag, n)

    @pytest.mark.parametrize("seed", range(3))
    def test_convolution_residual(self, seed):
        pp = sample_param_point(Random(seed), IdentitySize(4, 4))
        for n in range(5):
            for m in range(5):
                for k in range(n + m + 1):
                    got = convolution_residual(pp, n, m, k)
                    assert got == _convolution_reference(pp, n, m, k), (n, m, k)


class TestConvolution:
    def test_k_zero_single_term(self, generic_point):
        assert convolution_residual(generic_point, 2, 3, 0) < 1e-12

    def test_fixed_case(self, generic_point):
        assert convolution_residual(generic_point, 2, 2, 2) < 1e-9

    def test_sweep(self, generic_point):
        worst = 0.0
        for n in range(4):
            for m in range(4):
                for k in range(n + m + 1):
                    worst = max(worst, convolution_residual(generic_point, n, m, k))
        assert worst < 1e-9

    def test_normal_form_route_agrees(self, generic_point):
        worst = 0.0
        for n, m, k in ((1, 1, 1), (2, 2, 2), (3, 1, 2), (2, 3, 4)):
            worst = max(worst, convolution_nf_cross_check(generic_point, n, m, k))
        assert worst < 1e-9

    def test_out_of_range_rejected(self, generic_point):
        with pytest.raises(ValueError):
            convolution_residual(generic_point, 1, 1, 3)


class TestVeryWellPoisedSum:
    def test_empty_case(self):
        lhs, rhs, scale = frenkel_turaev(ParamPoint(1.1, 0.8, 1.2, 0.7, 0.5, 0.2), 0)
        assert lhs == 1 and rhs == 1 and scale == 1

    def test_vanished_denominator_factor_raises(self, generic_point):
        # b = aq puts theta(aq/b; p) = theta(1; p) into both sides
        pp = generic_point
        with pytest.raises(DegenerateParameterError):
            frenkel_turaev(pp.replace(b=pp.a * pp.q), 4)

    def test_fixed_depth_three(self, rng):
        a, b, c, d = (unit_complex(rng, 0.2, 2) for _ in range(4))
        q, p = unit_complex(rng, 0.3, 0.9), unit_complex(rng, 0.05, 0.5)
        lhs, rhs, scale = frenkel_turaev(ParamPoint(d, a, b, c, q, p), 3)
        assert relative_residual(lhs, rhs, scale) < 1e-9

    def test_random_sweep(self, rng):
        worst = 0.0
        checked = 0
        while checked < 40:
            a, b, c, d = (unit_complex(rng, 0.2, 2) for _ in range(4))
            n = rng.randint(0, 6)
            q, p = unit_complex(rng, 0.3, 0.9), unit_complex(rng, 0.05, 0.5)
            try:
                lhs, rhs, scale = frenkel_turaev(ParamPoint(d, a, b, c, q, p), n)
            except DegenerateParameterError:
                continue
            worst = max(worst, relative_residual(lhs, rhs, scale))
            checked += 1
        assert worst < 1e-9

    def test_double_point_reads_the_store_bit_for_bit(self, generic_point):
        # the sum reads its entries as it reaches them: the scanned store
        # and a fresh one hand out the bits of direct theta calls
        for n in range(7):
            sides = frenkel_turaev(generic_point, n)
            assert sides == frenkel_turaev(fresh_copy(generic_point), n)
            assert relative_residual(*sides) < 1e-9

    def test_mp_point_reads_the_store_bit_for_bit(self, generic_point):
        # the store hands out the bits of a direct theta call, whatever
        # read it first
        with mpmath.workdps(40):
            pp = ParamPoint(*(mpmath.mpc(v) for v in (
                generic_point.x, generic_point.a, generic_point.b,
                generic_point.c, generic_point.q, generic_point.p)))
            check_genericity(pp, IdentitySize(3, 3))
            for n in (2, 4):
                assert frenkel_turaev(pp, n) == frenkel_turaev(fresh_copy(pp), n)

    def test_scaling_passes_a_wrong_window_no_more_often(self, monkeypatch):
        # a mutant right side with the window (a q^2; q, p)_n in place of
        # (aq; q, p)_n: dividing by the series' largest term must not let it
        # pass tol 1e-8 at more points than the plain residual does
        def mutant_ratio(num, den):
            (ladder, _start, length), *rest = num
            return theta_ratio(((ladder, 2, length), *rest), den)

        monkeypatch.setattr(noncomm, "theta_ratio", mutant_ratio)
        rng = Random(22)
        plain = scaled = total = 0
        for m in range(4):
            for n in range(4):
                for _ in range(40):
                    pp = sample_param_point(rng, IdentitySize(m, n))
                    lhs, rhs, scale = frenkel_turaev(pp, m + n)
                    plain += relative_residual(lhs, rhs) <= 1e-8
                    scaled += relative_residual(lhs, rhs, scale) <= 1e-8
                    total += 1
        assert scaled <= plain < total

    def test_convolution_specialisation(self, rng):
        # (i) on the window k <= m every factor of the substituted sum is
        # regular and the summation identity holds there; (ii) across the
        # whole window the convolution terms are exactly proportional to
        # the substituted series terms, which pins down the parameter map
        pp = sample_param_point(rng, IdentitySize(6, 6))
        for n, m, k in ((1, 2, 1), (2, 3, 2), (1, 3, 3)):
            lhs, rhs, scale = frenkel_turaev_from_convolution(pp, n, m, k)
            assert relative_residual(lhs, rhs, scale) < 1e-9
        self._check_term_proportionality(pp, 2, 3, 4)

    @staticmethod
    def _check_term_proportionality(pp, n, m, k):
        from thetacb.special import theta

        x, a, b, c, q, p = pp.x, pp.a, pp.b, pp.c, pp.q, pp.p
        swapped = pp.replace(a=pp.b, b=pp.a)

        conv = {}
        for j in range(max(0, k - m), min(k, n) + 1):
            t = path_binomial(pp, n, j) \
                * path_binomial(shifted_point(pp, (j, n - j, n)), m, k - j)
            for ell in range(n - j):
                t *= elliptic_weight(swapped, ell, 0)
            for s in range(m + j - k):
                t *= elliptic_weight(swapped, s + n - j, j)
            for i in range(k - j):
                t *= normalized_weight(pp, i + j, n - j)
            conv[j] = t

        aa = a * q ** (-n) / b
        bb = a * c * q ** (n + m)
        cc = q ** (1 - n) / (b * c)
        dd = a * q ** (k - n - m) / b
        ee = aa * aa * q ** (k + 1) / (bb * cc * dd)
        num = [aa, bb, cc, dd, ee, q ** (-k)]
        den = [q, aa * q / bb, aa * q / cc, aa * q / dd, aa * q / ee,
               aa * q ** (k + 1)]
        series = {}
        run, qj = 1, 1
        for j in range(k + 1):
            if j:
                for idx, z in enumerate(num):
                    run = run * theta(z, p)
                    num[idx] = z * q
                for idx, z in enumerate(den):
                    run = run / theta(z, p)
                    den[idx] = z * q
                qj = qj * q
            series[j] = theta(aa * q ** (2 * j), p) / theta(aa, p) * run * qj

        ratios = [conv[j] / series[j] for j in conv if series[j] != 0]
        assert len(ratios) >= 2
        spread = max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])
        assert spread < 1e-10
