"""The theta store a parameter point owns: who shares it, when a point
starts a fresh one, and what the genericity scan stores in it."""

from __future__ import annotations

import math
from random import Random

import mpmath
import pytest

from conftest import count_theta_calls, fresh_copy
from thetacb import cli
from thetacb.cli import REGISTRY, CampaignConfig
from thetacb.identities import cb_residual, cb_term_abcq, cb_term_elliptic
from thetacb.lattice import master_equality_residual
from thetacb.noncomm import AlgebraTag, binomial_theorem_residual, pascal_residual
from thetacb.params import IdentitySize, ParamPoint
import thetacb.sampling as sampling
from thetacb.errors import DegenerateParameterError, ResamplingExhaustedError
from thetacb.sampling import (DEFAULT_GUARD, P_HI, P_LO, _denominator_args, _draw,
                              check_genericity, sample_param_point, theta_margin, to_mp)
from thetacb.special import ThetaLadder, theta
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


def test_a_copied_point_reads_the_store_and_keeps_its_own_reads(generic_point):
    pp = generic_point
    cb_residual("elliptic", pp, 2, 2)
    before = _store(pp)
    copy = pp.copy()
    assert copy == pp and _store(copy) == before and copy.thetas.nome is pp.thetas.nome
    cb_residual("elliptic", copy, 3, 3)
    assert _store(pp) == before and _store(copy).keys() > before.keys()


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
    # the scanned point holds every theta the fresh copy read, bit for bit,
    # so the residuals are equal
    store = _store(pp)
    assert all(store[key] == value for key, value in _store(copy).items())
    assert got == want and got[0] <= CampaignConfig().tol


def test_mirror_term_reads_the_thetas_of_the_first(monkeypatch):
    pp = fresh_copy(sample_param_point(Random(42), IdentitySize(3, 3)))
    first = count_theta_calls(monkeypatch, lambda: cb_term_elliptic(pp, 3, 3))
    mirror = count_theta_calls(monkeypatch, lambda: cb_term_elliptic(pp.swap_ab(), 3, 3))
    assert 0 < mirror < first


def test_the_elliptic_term_reads_the_ladders_of_the_roles():
    # cb_term_elliptic reads exactly the point's 14 role ladders, the ones
    # the lattice forms read, and makes no ladder of its own
    pp = fresh_copy(sample_param_point(Random(45), IdentitySize(2, 2)))
    roles = pp.role_ladders()
    cb_term_elliptic(pp, 2, 2)
    assert list(pp.thetas.values()) == list(roles)
    assert all(ladder._values for ladder in roles)


@pytest.mark.parametrize("digits", [0, 40])
def test_the_swapped_roles_are_the_ladders_the_swapped_bases_look_up(digits):
    # role_ladders(swap=True) and the roles swap_ab() hands its point are
    # the point's own role ladders permuted: the swapped bases, formed as
    # role_ladders forms them, find exactly these ladders in the store
    with mpmath.workdps(digits or 15):
        for seed in range(4):
            pp = sample_param_point(Random(46 + seed), IdentitySize(2, 2))
            pp = to_mp(pp) if digits else fresh_copy(pp)
            roles = pp.role_ladders()
            mirror = pp.swap_ab()
            x, a, b, c, q = mirror.x, mirror.a, mirror.b, mirror.c, mirror.q
            built = [pp.thetas[z] for z in (a / b, b / a, b * c, a * c, a * b, c * x, c / x, q,
                                            c / b, a * x, a / x, b * x, b / x, c / a)]
            assert len(pp.thetas) == 14
            for got in (mirror.role_ladders(), pp.role_ladders(True)):
                assert all(s is t for s, t in zip(got, built, strict=True))
            assert mirror.role_ladders(True) is roles


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


def _verdict(pp, size, guard):
    try:
        return check_genericity(pp, size, guard)
    except OverflowError:
        return OverflowError


@pytest.mark.parametrize("depth", [0, 3, 8, 14])
@pytest.mark.parametrize("guard", [DEFAULT_GUARD, 0.05])
def test_genericity_scan_fills_the_store_with_the_values_of_scalar_reads(depth, guard):
    # every entry the scan stores, at a draw and at its p = 0 point, is a
    # fresh theta at its argument, bit for bit; a draw the scan accepts
    # holds every denominator it checks but those whose read overflows
    size = IdentitySize(depth, depth)
    accepted = 0
    for seed in range(6):
        draw = _draw(Random(seed), P_HI)
        for pp in (draw, draw.replace(p=0j)):
            verdict = _verdict(pp, size, guard)
            store = _store(pp)
            assert store
            for (z, j), value in store.items():
                assert value == theta(z * pp.q**j, pp.p), (z, j)
            if verdict is True:
                accepted += 1
                reads = fresh_copy(pp)
                assert store.keys() >= {(ladder.z, j) for ladder, j
                                        in _denominator_args(reads, depth, depth)
                                        if theta_margin(ladder, j) < math.inf}
    assert accepted


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
def test_genericity_scan_margins_and_verdicts_match_a_per_entry_loop(depth):
    size = IdentitySize(depth, depth)
    verdicts, overflowed = set(), 0
    for seed in range(8):
        pp = _draw(Random(seed), P_HI)
        overflowed += sum(theta_margin(ladder, j) == math.inf
                          for ladder, j in _denominator_args(fresh_copy(pp), depth, depth))
        for guard in (DEFAULT_GUARD, 0.05):
            got = _verdict(fresh_copy(pp), size, guard)
            assert got == _reference_verdict(pp, size, guard)
            verdicts.add(got)
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


@pytest.mark.parametrize("point", [pytest.param(to_mp, id="mpmath"),
                                   pytest.param(fresh_copy, id="double")])
def test_genericity_scan_reads_entry_by_entry_without_a_batch(monkeypatch, point):
    size = IdentitySize(2, 2)
    for seed in range(3):
        pp = point(_draw(Random(seed), P_HI))
        verdict, calls = _scan_with_counted_margins(monkeypatch, pp, size)
        assert calls and verdict == _reference_verdict(pp, size, DEFAULT_GUARD)


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


def test_the_union_scan_rejects_a_draw_lost_only_to_a_theta_at_p(monkeypatch):
    # c x = p: theta(c x; p) = theta(p; p) = 0, so the elliptic scan rejects
    # the draw; at p = 0 the same factor is 1 - c x = 1 - p, clear of zero.
    # A draw must pass both scans, so the sampler rejects it.
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
            with pytest.raises(ResamplingExhaustedError):
                sample_param_point(Random(0), size)


def test_a_draw_must_also_pass_the_scan_of_its_p_zero_point(monkeypatch):
    scanned = []

    def scan(pp, size, guard):
        scanned.append(pp.p)
        return pp.p != 0

    monkeypatch.setattr(sampling, "check_genericity", scan)
    with pytest.raises(ResamplingExhaustedError):
        sample_param_point(Random(0), IdentitySize(1, 1))
    assert scanned.count(0j) == sampling.MAX_ATTEMPTS == len(scanned) / 2


def _unscanned_divisors(monkeypatch, name, m, n, seed):
    """The denominator thetas that check ``name`` reads at the point of a
    campaign cell for depths (m, n) and that the genericity scans of that
    point leave out: every :meth:`ThetaLadder.den` read of the check, as
    (base, index), against the union of :func:`_denominator_args` of the
    point and of its p = 0 point, the two scans every cell's draw passes.
    A read of b/a at j is matched with a/b at -j, which the scan covers by
    theta inversion."""
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

    pp, *_ = cli._run_trial(CampaignConfig(), name, recording, cli._Cell(m, n, 0, seed))
    scan = {(ladder.p, ladder.z, j) for point in (pp, pp.replace(p=0j))
            for ladder, j in _denominator_args(point, m, n)}
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
