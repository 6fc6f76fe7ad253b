"""Lattice model tests: enumeration, the three routes to the endpoint
generating function, the normalised table, and the partition of unity."""

from __future__ import annotations

import math
from itertools import combinations
from random import Random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_theta_calls, fresh_copy, nan_on_second_call
from thetacb.errors import CapExceededError, DegenerateParameterError, HConditionError
from thetacb.lattice import (
    BRUTE_FORCE_CAP,
    _path_weights,
    a_bruteforce,
    a_closed,
    a_closed_alt,
    a_row,
    a_table_dp,
    b_closed,
    b_row,
    b_system_residual,
    endpoint_weights,
    master_equality_residual,
    master_equality_total,
    total_weight,
    total_weight_residual,
)
from thetacb.params import IdentitySize, ParamPoint
from thetacb.sampling import sample_param_point, to_mp
from thetacb.special import ratio_rows, relative_residual, theta, theta_prod, worst_residual
from thetacb.weights import ZERO_SHIFT, elliptic_weight, h_row, h_table


class TestEnumeration:
    def test_tiny_counts(self, generic_point):
        assert len(endpoint_weights(generic_point, 1, 1)) == 2
        assert len(endpoint_weights(generic_point, 2, 1)) == 3
        assert len(endpoint_weights(generic_point, 3, 3)) == 20

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(0, 6), l=st.integers(0, 6))
    def test_counts_match_binomials(self, k, l):
        pp = sample_param_point(Random(20260809), IdentitySize(6, 6))
        assert len(endpoint_weights(pp, k, l)) == math.comb(k + l, k)

    def test_cap(self, generic_point):
        with pytest.raises(CapExceededError):
            total_weight(generic_point, IdentitySize(7, 7))
        with pytest.raises(CapExceededError):
            endpoint_weights(generic_point, 7, 6)


def _enumerated_weights(pp, east, north, m, n) -> list:
    """The path weights of ``lattice._path_weights`` by enumeration: every
    path as a bit sequence, east = 1 and north = 0, in the order of the
    combinations of its east steps, its weight multiplied out from 1 step
    by step."""
    h = h_table(pp, m, n)
    out = []
    for pos in combinations(range(east + north), east):
        bits = [0] * (east + north)
        for t in pos:
            bits[t] = 1
        acc = 1
        i = j = 0
        for s in bits:
            if s:
                if j <= n:
                    acc = acc * h[i][j]
                i += 1
            else:
                if i <= m:
                    acc = acc * (1 - h[i][j])
                j += 1
        out.append(acc)
    return out


class TestPathWeights:
    def test_the_walk_gives_the_enumerations_weights_bit_for_bit(self):
        # at every (k, l) up to the cap, in the form endpoint_weights reads
        # and in the form of the total over the rectangle
        pp = sample_param_point(Random(7), IdentitySize(6, 6))
        for k in range(BRUTE_FORCE_CAP + 1):
            for l in range(BRUTE_FORCE_CAP + 1 - k):
                assert endpoint_weights(pp, k, l) == _enumerated_weights(pp, k, l, k, l)
                assert (list(_path_weights(pp, k + 1, l + 1, k, l))
                        == _enumerated_weights(pp, k + 1, l + 1, k, l))

    def test_two_step_region(self, generic_point):
        h00 = elliptic_weight(generic_point, 0, 0)
        east = endpoint_weights(generic_point, 1, 0)
        north = endpoint_weights(generic_point, 0, 1)
        assert east == [h00]
        assert north == [1 - h00]
        assert abs(east[0] + north[0] - 1) < 1e-14

    def test_total_weight_small_sizes(self, point_factory):
        for m, n in ((0, 0), (3, 2), (1, 4)):
            pp = point_factory(m, n)
            assert abs(total_weight(pp, IdentitySize(m, n)) - 1) < 1e-10
            assert total_weight_residual(pp, IdentitySize(m, n)) < 1e-12


class TestTables:
    def test_dp_boundaries(self, generic_point):
        table = a_table_dp(generic_point, IdentitySize(3, 3))
        assert table.a[0][0] == 1
        assert relative_residual(table.a[1][0], elliptic_weight(generic_point, 0, 0)) == 0
        assert table.b[0][2] == 1 and table.b[2][0] == 1

    def test_three_routes_agree(self):
        rng = Random(33)
        worst = 0.0
        for _ in range(6):
            pp = sample_param_point(rng, IdentitySize(4, 4))
            table = a_table_dp(pp, IdentitySize(4, 4))
            for k in range(5):
                for ell in range(5):
                    weights = endpoint_weights(pp, k, ell)
                    brute = sum(weights)
                    scale = max((abs(w) for w in weights), default=0.0)
                    for other in (table.a[k][ell], a_closed(pp, k, ell)):
                        worst = max(worst, relative_residual(brute, other, scale))
        assert worst < 1e-9

    def test_bruteforce_matches_dp_exactly_at_origin(self, generic_point):
        assert a_bruteforce(generic_point, 0, 0) == 1

    def test_table_factorisation_invariant(self, point_factory):
        # a[k][l] = a[k][0] * a[0][l] * b[k][l]
        pp = point_factory(4, 4)
        table = a_table_dp(pp, IdentitySize(4, 4))
        worst = 0.0
        for k in range(5):
            for ell in range(5):
                want = table.a[k][0] * table.a[0][ell] * table.b[k][ell]
                worst = max(worst, relative_residual(table.a[k][ell], want))
        assert worst < 1e-10


class TestClosedForms:
    def test_b_closed_boundaries(self, generic_point):
        for k in range(5):
            assert b_closed(generic_point, k, 0) == 1
        for ell in range(5):
            assert abs(b_closed(generic_point, 0, ell) - 1) < 1e-12

    def test_b_closed_solves_difference_system(self):
        # residual of the displayed two-term theta-ratio system, which is
        # an oracle independent of the closed form's own factorisation
        rng = Random(44)
        worst = 0.0
        for _ in range(10):
            pp = sample_param_point(rng, IdentitySize(4, 4))
            x, a, b, c, q, p = pp.x, pp.a, pp.b, pp.c, pp.q, pp.p
            for k in range(1, 5):
                for ell in range(1, 5):
                    east = theta_prod(
                        (b * c * q ** (k + 2 * ell - 1), a * b * q ** (k - 1),
                         (a / b) * q ** (k - 1), c * x * q ** (k - 1),
                         (c / x) * q ** (k - 1)), p) \
                        / theta_prod(
                        (a * b * q ** (k + ell - 1), (a / b) * q ** (k - ell - 1),
                         c * x * q ** (k + ell - 1), (c / x) * q ** (k + ell - 1),
                         b * c * q ** (k - 1)), p)
                    north = theta_prod(
                        (a * c * q ** (2 * k + ell - 1), a * b * q ** (ell - 1),
                         (b / a) * q ** (ell - 1), c * x * q ** (ell - 1),
                         (c / x) * q ** (ell - 1)), p) \
                        / theta_prod(
                        (a * b * q ** (k + ell - 1), (b / a) * q ** (ell - k - 1),
                         c * x * q ** (k + ell - 1), (c / x) * q ** (k + ell - 1),
                         a * c * q ** (ell - 1)), p)
                    lhs = east * b_closed(pp, k - 1, ell) + north * b_closed(pp, k, ell - 1)
                    worst = max(worst, relative_residual(lhs, b_closed(pp, k, ell)))
        assert worst < 1e-10

    def test_b_closed_matches_dp(self, point_factory):
        pp = point_factory(4, 4)
        table = a_table_dp(pp, IdentitySize(4, 4))
        worst = 0.0
        for k in range(5):
            for ell in range(5):
                worst = max(worst, relative_residual(table.b[k][ell], b_closed(pp, k, ell)))
        assert worst < 1e-10

    def test_a_closed_origin(self, generic_point):
        assert abs(a_closed(generic_point, 0, 0) - 1) < 1e-14

    def test_a_closed_variants_agree(self, point_factory):
        pp = point_factory()
        for k, ell in ((2, 3), (0, 4), (4, 0), (3, 3)):
            v1, v2 = a_closed(pp, k, ell), a_closed_alt(pp, k, ell)
            assert relative_residual(v1, v2) < 1e-11


    @pytest.mark.parametrize("closed, k, l", [(a_closed, 3, 4), (b_closed, 0, 4)])
    def test_vanished_single_factor_raises(self, closed, k, l, generic_point):
        # b = a (1 + 1e-14) leaves theta(a/b; p) at about 1e-14 while the
        # other denominator factors lift the product above 1e-12
        pp = generic_point
        with pytest.raises(DegenerateParameterError):
            closed(pp.replace(b=pp.a * (1 + 1e-14)), k, l)


class TestMasterEquality:
    def test_smallest_size_is_exact(self, generic_point):
        assert master_equality_residual(generic_point, IdentitySize(0, 0)) < 1e-14

    def test_moderate_sizes(self):
        rng = Random(55)
        pp43 = sample_param_point(rng, IdentitySize(4, 3))
        assert master_equality_residual(pp43, IdentitySize(4, 3)) < 1e-9
        pp66 = sample_param_point(rng, IdentitySize(6, 6))
        assert master_equality_residual(pp66, IdentitySize(6, 6)) < 1e-8

    @pytest.mark.parametrize("m, n, seed", [(5, 6, 473919498261906257),
                                            (8, 8, 319706860416724823)])
    def test_finite_where_closed_form_products_overflow(self, m, n, seed):
        # deep campaign (m, n <= 8) at seed 2, identity
        # lattice_master_equality, trial seeds below: the numerator and
        # denominator products of a_closed each overflowed, giving NaN
        pp = sample_param_point(Random(seed), IdentitySize(m, n), p_max=0.5)
        assert master_equality_residual(pp, IdentitySize(m, n)) < 1e-12

    def test_depth_eight_sweep(self):
        rng = Random(56)
        worst = 0.0
        for _ in range(10):
            m, n = rng.randint(0, 8), rng.randint(0, 8)
            pp = sample_param_point(rng, IdentitySize(m, n))
            worst = max(worst, master_equality_residual(pp, IdentitySize(m, n)))
        assert worst < 1e-8


def test_weights_follow_the_working_precision():
    # A point sampled for 40 digits and first evaluated at 15 digits must
    # not see its 15-digit weights again when it is rerun at 40 digits.
    pp = to_mp(sample_param_point(Random(21), IdentitySize(3, 1)))

    def last_path_weight():
        # paths to (3, 1) come in bit order; the last is north, then three
        # east steps, the final one weighted by h(2, 1)
        return endpoint_weights(pp, 3, 1)[-1]

    with mpmath.workdps(15):
        last_path_weight()
    with mpmath.workdps(40):
        got = last_path_weight()
        want = 1
        for w in (1 - elliptic_weight(pp, 0, 0), elliptic_weight(pp, 0, 1),
                  elliptic_weight(pp, 1, 1), elliptic_weight(pp, 2, 1)):
            want = want * w
        assert relative_residual(got, want) < 1e-35


@pytest.mark.parametrize("check", [b_system_residual, master_equality_total])
def test_theta_calls_grow_linearly_with_depth(monkeypatch, check):
    # closed-form cells and weights share the point's theta store, so
    # doubling the depth at most about doubles the theta calls (per-cell
    # rebuilds grow them by 4x or more); each depth starts from an empty
    # store
    pp = sample_param_point(Random(31), IdentitySize(8, 8))
    small = count_theta_calls(monkeypatch, lambda: check(fresh_copy(pp), IdentitySize(4, 4)))
    large = count_theta_calls(monkeypatch, lambda: check(fresh_copy(pp), IdentitySize(8, 8)))
    assert 0 < small and large <= 2.5 * small


def test_b_system_residual_is_small_at_generic_points():
    rng = Random(57)
    for m, n in ((1, 1), (4, 2), (3, 6)):
        pp = sample_param_point(rng, IdentitySize(m, n))
        assert b_system_residual(pp, IdentitySize(m, n)) < 1e-10



def test_scaling_passes_a_wrong_second_term_no_more_often():
    # a mutant difference system with an extra factor q on its second term:
    # scaling each cell by |t1| and |t2| must not let it pass tol 1e-8 at
    # more points than the plain residual does
    rng = Random(22)
    plain = scaled = total = 0
    for m in range(1, 4):
        for n in range(1, 4):
            for _ in range(40):
                pp = sample_param_point(rng, IdentitySize(m, n))
                bt = [[b_closed(pp, k, l) for l in range(n + 1)] for k in range(m + 1)]
                cells = []
                for k in range(1, m + 1):
                    for l in range(1, n + 1):
                        t1 = (elliptic_weight(pp, k - 1, l) / elliptic_weight(pp, k - 1, 0)
                              * bt[k - 1][l])
                        t2 = pp.q * ((1 - elliptic_weight(pp, k, l - 1))
                                     / (1 - elliptic_weight(pp, 0, l - 1)) * bt[k][l - 1])
                        cells.append((bt[k][l], t1, t2))
                plain += worst_residual(relative_residual(cell, t1 + t2)
                                        for cell, t1, t2 in cells) <= 1e-8
                scaled += worst_residual(relative_residual(cell, t1 + t2, abs(t1), abs(t2))
                                         for cell, t1, t2 in cells) <= 1e-8
                total += 1
    assert scaled <= plain < total


#: A draw of b_system (6, 8), trial 2 of the deep configuration's seed 25,
#: at which |h(0, 0)| = 1.47e-8: the difference system divides by it.
_SMALL_H00 = ParamPoint(x=0.769278153879992 + 0.03454926468311582j,
                        a=0.981919245212405 + 0.1117298059142043j,
                        b=-0.9293559723965064 - 0.09665816254488485j,
                        c=-1.2450124271088499 - 0.4151431982564111j,
                        q=0.30777001368818546 - 0.5947265629962777j,
                        p=0.4109076533683834 - 0.09573190659698552j)


@pytest.mark.parametrize("table", [b_system_residual, a_table_dp])
def test_a_weight_denominator_within_the_points_guard_raises(table):
    # |h(0, 0)| lies within the default guard and outside 1e-9; every theta
    # the tables divide by lies outside both
    assert 1e-9 < abs(elliptic_weight(_SMALL_H00, 0, 0)) <= _SMALL_H00.guard
    for size in (IdentitySize(1, 1), IdentitySize(6, 8)):
        with pytest.raises(HConditionError, match="within the guard"):
            table(fresh_copy(_SMALL_H00), size)
        table(_SMALL_H00.replace(guard=1e-9), size)
    # at m = 0 neither table divides by h(0, 0)
    table(fresh_copy(_SMALL_H00), IdentitySize(0, 3))


def test_b_system_residual_keeps_a_nan_that_is_not_first(monkeypatch):
    import thetacb.lattice as lattice

    pp = sample_param_point(Random(57), IdentitySize(2, 2))
    monkeypatch.setattr(lattice, "relative_residual",
                        nan_on_second_call(lattice.relative_residual))
    assert math.isnan(b_system_residual(pp, IdentitySize(2, 2)))


class TestRatioRows:
    """The tables read their cells as one set of rows
    (``special.ratio_rows``); every cell keeps the bits of its single-cell
    kernel."""

    @staticmethod
    def _points():
        rng = Random(24)
        doubles = [sample_param_point(rng, IdentitySize(8, 8)) for _ in range(20)]
        return [(pp, 15) for pp in doubles] + [(to_mp(pp), 40) for pp in doubles[:3]]

    def test_every_row_is_its_single_cell_kernel_bit_for_bit(self):
        # repr compares bits, the NaN of a row whose products overflow too;
        # a closed form is its row's value times q^l, a weight its row's value
        cells = [(k, l) for k in range(9) for l in range(9)]
        shift = (2, -1, 3)
        for pp, digits in self._points():
            with mpmath.workdps(digits):
                cases = [*((b_row(k, l), l, b_closed(pp, k, l)) for k, l in cells if l),
                         *((a_row(k, l), l, a_closed(pp, k, l)) for k, l in cells),
                         *((h_row(i, j), None, elliptic_weight(pp, i, j)) for i, j in cells),
                         *((b_row(k, l, shift), l, b_closed(pp, k, l, shift))
                           for k, l in cells if l)]
                values = ratio_rows(fresh_copy(pp).role_ladders(), [row for row, _, _ in cases])
                for value, (_, l, want) in zip(values, cases, strict=True):
                    assert repr(value if l is None else value * pp.q**l) == repr(want)

    def test_h_and_its_mirror_are_one_set_of_rows_bit_for_bit(self):
        # h(i, j) and the mirror h~(j, i), the two sides of the complement
        # identity 1 - h(i, j) = h~(j, i), read as one set of rows over the
        # point's one role tuple: each row keeps the bits of its single
        # elliptic_weight read
        cells = [(i, j) for i in range(4) for j in range(4)]
        for pp, digits in self._points():
            with mpmath.workdps(digits):
                cases = [case for shift in (ZERO_SHIFT, (1, 0, 1), (2, -1, 3))
                         for i, j in cells
                         for case in ((h_row(i, j, shift), elliptic_weight(pp, i, j, shift)),
                                      (h_row(j, i, shift, True),
                                       elliptic_weight(pp, j, i, shift, True)))]
                values = ratio_rows(fresh_copy(pp).role_ladders(), [row for row, _ in cases])
                assert [repr(value) for value in values] == [repr(want) for _, want in cases]

    def test_tables_are_the_per_cell_loops_bit_for_bit(self):
        for pp, digits in self._points()[::4]:
            with mpmath.workdps(digits):
                for m, n in ((1, 1), (3, 5), (8, 8)):
                    size = IdentitySize(m, n)
                    assert repr(b_system_residual(fresh_copy(pp), size)) \
                        == repr(_per_cell_b_system(fresh_copy(pp), m, n))
                    assert repr(master_equality_total(fresh_copy(pp), size)) \
                        == repr(_per_cell_master_total(fresh_copy(pp), m, n))

    @pytest.mark.parametrize("table", [b_system_residual, master_equality_total])
    def test_vanished_single_factor_raises_from_a_table(self, table, generic_point):
        # as test_vanished_single_factor_raises for one cell: theta(a/b; p)
        # of about 1e-14 is one denominator factor of the tables' rows
        pp = generic_point
        with pytest.raises(DegenerateParameterError):
            table(pp.replace(b=pp.a * (1 + 1e-14)), IdentitySize(3, 4))

    def test_b_system_makes_the_theta_calls_of_the_per_cell_loop(self, monkeypatch):
        pp = sample_param_point(Random(31), IdentitySize(8, 8))
        rows = count_theta_calls(
            monkeypatch, lambda: b_system_residual(fresh_copy(pp), IdentitySize(8, 8)))
        loop = count_theta_calls(monkeypatch, lambda: _per_cell_b_system(fresh_copy(pp), 8, 8))
        assert rows == loop == B_SYSTEM_8_8_THETA_CALLS


#: theta calls of b_system_residual at (8, 8) on a fresh store at the
#: point of test_b_system_makes_the_theta_calls_of_the_per_cell_loop
B_SYSTEM_8_8_THETA_CALLS = 157


def _per_cell_b_system(pp, m, n):
    """b_system_residual as a loop of single-cell kernels, each weight read
    once in the order the difference system first reads it."""
    bt = [[b_closed(pp, k, l) for l in range(n + 1)] for k in range(m + 1)]
    weights = {}

    def h(i, j):
        if (i, j) not in weights:
            weights[i, j] = elliptic_weight(pp, i, j)
        return weights[i, j]

    def cell(k, l):
        t1 = h(k - 1, l) / h(k - 1, 0) * bt[k - 1][l]
        t2 = (1 - h(k, l - 1)) / (1 - h(0, l - 1)) * bt[k][l - 1]
        return relative_residual(bt[k][l], t1 + t2, abs(t1), abs(t2))

    return worst_residual(cell(k, l) for k in range(1, m + 1) for l in range(1, n + 1))


def _per_cell_master_total(pp, m, n):
    """master_equality_total as a loop of single-cell kernels."""
    total, scale = 0, 0.0
    for k in range(m + 1):
        term = (1 - elliptic_weight(pp, k, n)) * a_closed(pp, k, n)
        total, scale = total + term, max(scale, abs(term))
    for l in range(n + 1):
        term = elliptic_weight(pp, m, l) * a_closed(pp, m, l)
        total, scale = total + term, max(scale, abs(term))
    return total, scale
