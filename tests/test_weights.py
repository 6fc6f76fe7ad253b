"""Weight-function tests: complement symmetry, ellipticity, the recursion
weight and its degenerate limits."""

from __future__ import annotations

import math
from random import Random

import pytest

from conftest import ab_point, normal_form_leaves, shifted_point, unit_complex
from thetacb import cli
from thetacb.errors import DegenerateParameterError, HConditionError
from thetacb.params import IdentitySize, ParamPoint
from thetacb.sampling import check_genericity, sample_param_point
from thetacb.special import relative_residual, theta, theta_prod
from thetacb.weights import (
    binomial_weight,
    elliptic_weight,
    h_table,
    normalized_weight,
)


def test_weight_is_the_eight_theta_ratio(generic_point):
    pp = generic_point
    x, a, b, c, p = pp.x, pp.a, pp.b, pp.c, pp.p
    want = theta_prod((b * c, c / b, a * x, a / x), p) \
        / theta_prod((a * b, a / b, c * x, c / x), p)
    assert relative_residual(elliptic_weight(pp, 0, 0), want) < 1e-14


def test_weight_is_finite_where_a_four_theta_product_overflows():
    # a draw of lattice_master_equality (9, 7), trial 0 of campaign seed 4,
    # before cells shared their draws: the four numerator thetas of h(9, 7)
    # multiply to inf and so do the four denominators, which gave inf/inf =
    # NaN and a NaN residual
    pp = ParamPoint(x=-0.04038563603792899 + 0.35871105339533094j,
                    a=0.16600715543098896 + 0.2803175785921589j,
                    b=-1.3521672116289696 - 0.5698483062290217j,
                    c=-0.04652248897209834 - 0.7237357424169752j,
                    q=-0.30937798717252013 + 0.02856011517184232j,
                    p=-0.37892894733084626 - 0.3047563935628018j)
    # the store the campaign evaluated at: the one its scan filled
    assert check_genericity(pp, IdentitySize(9, 7))
    x, a, b, c, lad = pp.x, pp.a, pp.b, pp.c, pp.thetas
    for product in (lad[b * c][23] * lad[c / b][9] * lad[a * x][9] * lad[a / x][9],
                    lad[a * b][16] * lad[a / b][2] * lad[c * x][16] * lad[c / x][16]):
        assert not math.isfinite(abs(product))
    assert all(math.isfinite(abs(h)) for row in h_table(pp, 9, 7) for h in row)
    assert cli.REGISTRY["lattice_master_equality"][2](pp, 9, 7) <= 1e-8


def test_complement_symmetry_sweep():
    rng = Random(101)
    worst = 0.0
    for _ in range(500):
        pp = sample_param_point(rng, IdentitySize(6, 6))
        i, j = rng.randint(0, 6), rng.randint(0, 6)
        h = elliptic_weight(pp, i, j)
        worst = max(worst, relative_residual(1 - h, elliptic_weight(pp, j, i, swap=True)))
    assert worst < 1e-10


def test_motivation_substitution(point_factory):
    # h(i, j) equals h(0, 0) at the index-shifted parameter point, and read
    # through the shift it is the same ladder entries bit for bit
    pp = point_factory()
    for i, j in ((0, 0), (1, 2), (3, 1), (4, 4)):
        h = elliptic_weight(pp, i, j)
        want = elliptic_weight(shifted_point(pp, (i, j, i + j)), 0, 0)
        assert relative_residual(h, want) < 1e-12
        assert elliptic_weight(pp, 0, 0, (i, j, i + j)) == h


@pytest.mark.parametrize("seed", range(3))
def test_shifted_weights_are_the_weights_at_the_substituted_point(seed):
    # read at every shift the normal forms reach at m, n <= 3, with and
    # without swap, off the base point's ladders at offset indices
    pp = sample_param_point(Random(seed), IdentitySize(3, 3))
    for shift in sorted({shift for _, shift in normal_form_leaves(pp)}):
        ref = shifted_point(pp, shift)
        for i in range(4):
            for j in range(4):
                for swap in (False, True):
                    for kernel in (elliptic_weight, normalized_weight):
                        want = kernel(ref, i, j, swap=swap)
                        assert abs(kernel(pp, i, j, shift, swap) - want) <= 1e-12 * abs(want)
                want = binomial_weight(ref, i, j)
                assert abs(binomial_weight(pp, i, j, shift) - want) <= 1e-12 * abs(want)


def test_total_ellipticity(point_factory):
    pp = point_factory()
    worst = 0.0
    for i, j in ((0, 0), (2, 1), (1, 3)):
        h = elliptic_weight(pp, i, j)
        big_h = normalized_weight(pp, i, j)
        for name in ("x", "a", "b", "c"):
            shifted = pp.replace(**{name: getattr(pp, name) * pp.p})
            worst = max(worst, relative_residual(elliptic_weight(shifted, i, j), h))
            worst = max(worst, relative_residual(normalized_weight(shifted, i, j), big_h))
    assert worst < 1e-9


def test_degenerate_denominator_raises(generic_point):
    # a = b puts theta(1) = 0 into the weight denominator at i = j
    pp = generic_point.replace(b=generic_point.a)
    with pytest.raises(DegenerateParameterError):
        elliptic_weight(pp, 1, 1)


def test_h_table_is_elliptic_weight_bit_for_bit(point_factory):
    for pp in (point_factory(5, 4), point_factory(5, 4, p_max=0.1)):
        table = h_table(pp, 5, 4)
        assert [len(row) for row in table] == [5] * 6
        for i in range(6):
            for j in range(5):
                assert table[i][j] == elliptic_weight(pp, i, j)


def test_h_table_degenerate_denominator_raises(generic_point):
    pp = generic_point.replace(b=generic_point.a)
    with pytest.raises(DegenerateParameterError):
        h_table(pp, 1, 1)


def test_normalized_weight_row_zero(generic_point):
    assert normalized_weight(generic_point, 3, 0) == 1
    h = elliptic_weight(generic_point, 2, 3) / elliptic_weight(generic_point, 2, 0)
    assert relative_residual(normalized_weight(generic_point, 2, 3), h) < 1e-14


def test_normalized_weight_guards_h_i0_at_its_shift():
    # P27 of ROADMAP item 1: homogeneous_elliptic_xabc (3, 3) divides by
    # h(0, 0) at shift (4, 0, 4), where |h| = 3.6e-7, within the default
    # guard; the unshifted h(0, 0) is clear of it
    pp = ParamPoint(x=-0.5035720466390124 - 1.2822796665674618j,
                    a=0.5687273642434789 + 0.706859735531259j,
                    b=0.23980464018378086 - 0.056756357621395546j,
                    c=-0.2744202998140196 - 0.07440052050795169j,
                    q=0.2620848112528071 - 0.29355070211651463j,
                    p=0.4882170452819061 + 0.01754851720261825j)
    shift = (4, 0, 4)
    assert 1e-7 < abs(elliptic_weight(pp, 0, 0, shift)) <= pp.guard
    assert abs(elliptic_weight(pp, 0, 0)) > pp.guard
    for j in (0, 1):
        with pytest.raises(HConditionError, match="within the guard"):
            normalized_weight(pp, 0, j, shift)
    normalized_weight(pp, 0, 1)
    normalized_weight(pp.replace(guard=1e-7), 0, 1, shift)


class TestBinomialWeight:
    def test_t_zero_is_exactly_one(self):
        rng = Random(7)
        for _ in range(20):
            a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
            q, p = unit_complex(rng, 0.3, 0.9), unit_complex(rng, 0.05, 0.5)
            assert binomial_weight(ab_point(a, b, q, p), rng.randint(0, 5), 0) == 1

    def test_ellipticity(self):
        rng = Random(8)
        worst = 0.0
        for _ in range(50):
            a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
            q, p = unit_complex(rng, 0.3, 0.9), unit_complex(rng, 0.05, 0.5)
            s, t = rng.randint(0, 4), rng.randint(1, 4)
            try:
                w = binomial_weight(ab_point(a, b, q, p), s, t)
                worst = max(worst, relative_residual(
                    binomial_weight(ab_point(a * p, b, q, p), s, t), w))
                worst = max(worst, relative_residual(
                    binomial_weight(ab_point(a, b * p, q, p), s, t), w))
            except DegenerateParameterError:
                continue
        assert worst < 1e-9

    def test_iterated_limit_reaches_plain_q_weight(self):
        # order matters: p -> 0 first, then a -> 0, then b -> 0, so the
        # probe point needs |a| << |b| << 1 (a = b sits on the degenerate
        # a/b = 1 locus where the weight vanishes instead).
        q = 0.55
        worst = max(abs(binomial_weight(ab_point(1e-14, 1e-7, q, 0), s, t) - q**t)
                    for s in range(4) for t in range(5))
        assert worst < 1e-6


def test_param_point_validation():
    with pytest.raises(ValueError):
        ParamPoint(0, 1, 1, 1, 0.5, 0.1)
    with pytest.raises(ValueError):
        ParamPoint(1, 1, 1, 1, 0.5, 1.2)
    pp = ParamPoint(1 + 0j, 2, 3, 4, 0.5, 0)
    assert pp.p == 0
    assert pp.swap_ab().a == 3
