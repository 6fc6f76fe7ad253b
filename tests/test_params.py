"""The theta store a parameter point owns: who shares it, when a point
starts a fresh one, and how the genericity scan fills it."""

from __future__ import annotations

import math
from random import Random

import mpmath
import pytest

from conftest import count_theta_calls, fresh_copy, theta_batch_bound
from thetacb import cli
from thetacb.cli import REGISTRY, THETA_FREE, CampaignConfig
from thetacb.identities import cb_residual, cb_term_abcq, cb_term_elliptic
from thetacb.lattice import master_equality_residual
from thetacb.noncomm import AlgebraTag, binomial_theorem_residual, pascal_residual
from thetacb.params import IdentitySize, ParamPoint
import thetacb.sampling as sampling
from thetacb.errors import DegenerateParameterError, ResamplingExhaustedError
from thetacb.sampling import (DEFAULT_GUARD, P_HI, P_LO, _denominator_args, _draw,
                              _weight_numerator_args, check_genericity, sample_param_point,
                              theta_margin, to_mp)
from thetacb.special import ThetaLadder, ThetaLadders
from thetacb.weights import elliptic_weight


def test_store_is_not_part_of_the_point(generic_point):
    before = (repr(generic_point), hash(generic_point))
    cb_residual("elliptic", generic_point, 2, 2)
    assert len(generic_point.thetas) > 0
    copy = fresh_copy(generic_point)
    assert copy == generic_point and (repr(copy), hash(copy)) == before
    assert len(copy.thetas) == 0


def test_derived_points_share_the_store_only_at_the_same_q_and_p(generic_point):
    pp = generic_point
    store = pp.thetas
    assert pp.swap_ab().thetas is store
    assert pp.replace(a=pp.a * pp.q, c=pp.c * pp.q**2).thetas is store
    assert pp.replace(x=2 * pp.x).thetas is store
    assert pp.replace(p=0j).thetas is not store
    assert pp.replace(q=1 / pp.q).thetas is not store


@pytest.mark.parametrize("check", [
    pytest.param(lambda pp: cb_residual("elliptic", pp, 3, 3), id="elliptic_cb"),
    pytest.param(lambda pp: pascal_residual(AlgebraTag.ELLIPTIC_AB, pp, 3),
                 id="w_binomial_recursion"),
    pytest.param(lambda pp: binomial_theorem_residual(AlgebraTag.ELLIPTIC_AB, pp, 3),
                 id="binomial_elliptic_ab"),
])
def test_check_reuses_the_thetas_of_the_genericity_scan(monkeypatch, check):
    pp = sample_param_point(Random(41), IdentitySize(3, 3))
    copy = fresh_copy(pp)
    got, want = [], []
    after_scan = count_theta_calls(monkeypatch, lambda: got.append(check(pp)))
    fresh = count_theta_calls(monkeypatch, lambda: want.append(check(copy)))
    assert after_scan < fresh
    # the scanned point read every theta the fresh copy read, each within
    # the batch bound; the residuals differ by rounding only
    _assert_store_within_bound(_store(pp), _store(copy), pp)
    assert max(got + want) <= CampaignConfig().tol


def test_mirror_term_reads_the_thetas_of_the_first(monkeypatch):
    pp = fresh_copy(sample_param_point(Random(42), IdentitySize(3, 3)))
    first = count_theta_calls(monkeypatch, lambda: cb_term_elliptic(pp, 3, 3))
    mirror = count_theta_calls(monkeypatch, lambda: cb_term_elliptic(pp.swap_ab(), 3, 3))
    assert 0 < mirror < first


def test_a_changed_nome_never_reads_the_store():
    pp = sample_param_point(Random(43), IdentitySize(3, 3))
    cb_residual("elliptic", pp, 3, 3)
    got = cb_term_abcq(pp, 3, 3)
    want = cb_term_abcq(fresh_copy(pp), 3, 3)
    assert got == want


def test_store_follows_the_working_precision():
    # one mpmath point read at 15 digits and then at 40 must give the
    # 40-digit value of a point that was never read at 15
    pp = to_mp(sample_param_point(Random(44), IdentitySize(2, 2)))
    size = IdentitySize(2, 2)
    with mpmath.workdps(15):
        master_equality_residual(pp, size)
    with mpmath.workdps(40):
        got = master_equality_residual(pp, size)
        want = master_equality_residual(fresh_copy(pp), size)
    assert got == want


def _store(pp):
    """The point's theta store as {(base, index): value}."""
    return {(z, j): value for z, ladder in pp.thetas.items()
            for j, value in ladder._values.items()}


def _assert_store_within_bound(store, reads, pp):
    """``store`` holds every entry of ``reads``, a store of scalar reads at
    point ``pp``, within the batch bound of its value
    (:func:`conftest.theta_batch_bound`)."""
    for (z, j), want in reads.items():
        x = z * pp.q**j
        assert abs(store[z, j] - want) <= theta_batch_bound(x, pp.p), (z, j)


def _verdict(pp, size, guard):
    try:
        return check_genericity(pp, size, guard)
    except OverflowError:
        return OverflowError


@pytest.mark.parametrize("depth", [0, 3, 8, 14])
@pytest.mark.parametrize("guard", [DEFAULT_GUARD, 0.05])
def test_genericity_scan_fills_the_store_with_the_values_of_scalar_reads(
        monkeypatch, depth, guard):
    size = IdentitySize(depth, depth)
    for seed in range(6):
        pp = _draw(Random(seed), P_HI)
        verdict = _verdict(pp, size, guard)
        # every pair the scan reads, read one at a time on a fresh copy; a
        # read whose reduction overflows leaves no entry, as in the scan
        reads = fresh_copy(pp)
        for ladder, j in [*_denominator_args(reads, depth, depth),
                          *_weight_numerator_args(reads, depth, depth)]:
            try:
                ladder[j]
            except OverflowError:
                pass
        assert _store(pp).keys() == _store(reads).keys()
        _assert_store_within_bound(_store(pp), _store(reads), pp)
        # the scan without the batch, on scalar reads alone
        with monkeypatch.context() as patch:
            patch.setattr(ThetaLadders, "fill", lambda self, entries: None)
            assert _verdict(fresh_copy(pp), size, guard) == verdict


def test_the_scan_makes_no_scalar_theta_call(monkeypatch):
    size = IdentitySize(3, 3)
    for seed in range(4):
        pp = _draw(Random(seed), P_HI)
        assert count_theta_calls(monkeypatch, lambda: check_genericity(pp, size)) == 0


def _reference_verdict(pp, size, guard):
    """check_genericity's rule on a fresh copy of ``pp``, read entry by
    entry: every denominator's :func:`theta_margin` above ``guard``, then
    the weight-normalisation condition."""
    pp = fresh_copy(pp)
    try:
        if any(theta_margin(ladder, j) <= guard
               for ladder, j in _denominator_args(pp, size.m, size.n)):
            return False
        return (all(abs(elliptic_weight(pp, i, 0)) > guard for i in range(size.m + 1))
                and all(abs(1 - elliptic_weight(pp, 0, j)) > guard for j in range(size.n + 1)))
    except DegenerateParameterError:
        return False
    except OverflowError:
        return OverflowError


@pytest.mark.parametrize("depth", [0, 3, 8, 14])
def test_genericity_scan_margins_and_verdicts_match_a_per_entry_loop(monkeypatch, depth):
    size = IdentitySize(depth, depth)
    verdicts, overflowed = set(), 0
    for seed in range(8):
        pp = _draw(Random(seed), P_HI)
        scan = list(_denominator_args(pp, depth, depth))
        margins = pp.thetas.fill([*scan, *_weight_numerator_args(pp, depth, depth)])
        reads = fresh_copy(pp)
        for got, (ladder, j) in zip(margins[:len(scan)], _denominator_args(reads, depth, depth)):
            want = theta_margin(ladder, j)
            if want == math.inf:
                assert got == math.inf
                overflowed += 1
            else:
                x = ladder.z * ladder.q**j
                slack = theta_batch_bound(x, pp.p) / (1 + abs(x)) + 4 * 2.0**-53 * want
                assert abs(got - want) <= slack, (ladder.z, j)
        for guard in (DEFAULT_GUARD, 0.05):
            got = []
            scan_point = fresh_copy(pp)
            assert count_theta_calls(
                monkeypatch, lambda: got.append(_verdict(scan_point, size, guard))) == 0
            assert got[0] == _reference_verdict(pp, size, guard)
            verdicts.add(got[0])
    assert {True, False} <= verdicts
    assert overflowed or depth < 14


def _scan_with_counted_margins(monkeypatch, pp, size):
    """check_genericity's verdict at a fresh copy of ``pp`` and the indices
    it read through :func:`theta_margin`."""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(sampling, "theta_margin",
                      lambda ladder, j: calls.append(j) or theta_margin(ladder, j))
        verdict = check_genericity(fresh_copy(pp), size)
    return verdict, calls


@pytest.mark.parametrize("point", [pytest.param(to_mp, id="mpmath")])
def test_genericity_scan_reads_entry_by_entry_without_a_batch(monkeypatch, point):
    size = IdentitySize(2, 2)
    for seed in range(3):
        pp = point(_draw(Random(seed), P_HI))
        assert pp.thetas.fill(_denominator_args(pp, 2, 2)) is None
        verdict, calls = _scan_with_counted_margins(monkeypatch, pp, size)
        assert calls and verdict == _reference_verdict(pp, size, DEFAULT_GUARD)


def test_a_p_zero_scan_reads_its_margins_from_the_fill(monkeypatch):
    # the fill stores the values a read forms and returns theta_margin's
    # margins, so the scan reads none entry by entry
    size = IdentitySize(2, 2)
    for seed in range(3):
        pp = _draw(Random(seed), P_HI).replace(p=0j)
        scan = list(_denominator_args(pp, 2, 2))
        margins = pp.thetas.fill(scan)
        reads = fresh_copy(pp)
        for got, (ladder, j), (read, _) in zip(margins.tolist(), scan,
                                               _denominator_args(reads, 2, 2)):
            assert ladder._values[j] == read[j] and got == theta_margin(read, j)
        verdict, calls = _scan_with_counted_margins(monkeypatch, pp, size)
        assert not calls and verdict == _reference_verdict(pp, size, DEFAULT_GUARD)


def test_a_nome_bound_below_the_sampled_range_is_rejected():
    # |p| is drawn log-uniformly between P_LO and p_max; a bound below P_LO
    # would put every draw between the two, above the bound asked for
    with pytest.raises(ValueError, match="p_max"):
        sample_param_point(Random(0), IdentitySize(1, 1), p_max=0.01)
    with pytest.raises(ValueError, match="p_max"):
        sample_param_point(Random(0), IdentitySize(1, 1), p_max=0.0)
    pp = sample_param_point(Random(0), IdentitySize(1, 1), p_max=P_LO)
    assert math.isclose(abs(pp.p), P_LO, rel_tol=1e-12)
    for seed in range(20):
        pp = sample_param_point(Random(seed), IdentitySize(1, 1), p_max=0.1)
        assert P_LO * (1 - 1e-12) <= abs(pp.p) <= 0.1 * (1 + 1e-12)


def test_a_nome_bound_above_the_sampled_range_is_rejected():
    # |p| is drawn at most P_HI; a wider bound would be narrowed without notice
    for p_max in (0.9, math.nextafter(P_HI, 1), math.nan):
        with pytest.raises(ValueError, match="p_max"):
            sample_param_point(Random(0), IdentitySize(1, 1), p_max=p_max)
    pp = sample_param_point(Random(0), IdentitySize(1, 1), p_max=P_HI)
    assert pp == sample_param_point(Random(0), IdentitySize(1, 1))


def test_a_theta_free_scan_keeps_a_draw_lost_only_to_a_theta_at_p(monkeypatch):
    # c x = p: theta(c x; p) = theta(p; p) = 0, so the elliptic scan rejects
    # the draw; at p = 0 the same factor is 1 - c x = 1 - p, clear of zero
    p, x = 0.3 + 0.1j, 2 + 0j
    pp = ParamPoint(x=x, a=0.7 + 0.4j, b=-0.5 + 0.9j, c=p / x, q=0.2 + 0.6j, p=p)
    assert pp.c * pp.x == p and pp.thetas[p][0] == 0
    assert abs(1 - pp.c * pp.x) > DEFAULT_GUARD
    for depth in [(0, 0), (2, 1), (3, 3)]:
        size = IdentitySize(*depth)
        assert not check_genericity(fresh_copy(pp), size)
        # that zero alone is what the elliptic scan rejects
        assert check_genericity(pp.replace(c=1.1 * pp.c), size)
        assert check_genericity(pp.replace(p=0j), size)
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "_draw", lambda rng, p_hi: fresh_copy(pp))
            got = sample_param_point(Random(0), size, theta_free=True)
            assert got == pp and got.p == p
            with pytest.raises(ResamplingExhaustedError):
                sample_param_point(Random(0), size)


def _unscanned_divisors(monkeypatch, name, m, n, seed):
    """The denominator thetas that check ``name`` reads at a campaign point
    for depths (m, n) and that the genericity scan of that point leaves
    out: every :meth:`ThetaLadder.den` read of the check, as (base, index),
    against :func:`_denominator_args` of the point its trial scans (the
    p = 0 point for a theta-free check).  A read of b/a at j is matched
    with a/b at -j, which the scan covers by theta inversion."""
    reads, den = [], ThetaLadder.den
    runner = REGISTRY[name][2]

    def recording(pp, m, n):
        # only the reads of the accepted point's evaluation
        reads.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ThetaLadder, "den",
                          lambda ladder, j: reads.append((ladder.p, ladder.z, j))
                          or den(ladder, j))
            return runner(pp, m, n)

    theta_free = name in THETA_FREE
    pp, _ = cli._run_trial(Random(seed), CampaignConfig(), recording, m, n,
                           theta_free=theta_free)
    scanned = pp.replace(p=0j) if theta_free else pp
    scan = {(ladder.p, ladder.z, j) for ladder, j in _denominator_args(scanned, m, n)}
    b_a = pp.b / pp.a
    return {(z, j) for p, z, j in reads
            if ((p, pp.a / pp.b, -j) if z == b_a else (p, z, j)) not in scan}


@pytest.mark.parametrize("name", sorted(REGISTRY.keys() - {"frenkel_turaev"}))
def test_the_scan_covers_every_denominator_a_check_reads(monkeypatch, name):
    # the very-well-poised sum divides by its own bases, which no scan reads
    for m in range(4):
        for n in range(4):
            for seed in range(2):
                assert not _unscanned_divisors(monkeypatch, name, m, n, seed), (m, n, seed)


@pytest.mark.xfail(strict=True, reason="convolution's b_closed at shift (j, n - j, n) reads "
                   "bc and ac past the scan's top index (ROADMAP item 7)")
@pytest.mark.parametrize("m, n", [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 4)])
def test_the_scan_covers_the_convolutions_denominators_past_depth_three(monkeypatch, m, n):
    assert not _unscanned_divisors(monkeypatch, "convolution", m, n, 0)
