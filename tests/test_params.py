"""The theta store a parameter point owns: who shares it, when a point
starts a fresh one, what the genericity scan stores in it, and the guard
each of its entries is tested against."""

from __future__ import annotations

import gc
import math
from random import Random

import mpmath
import pytest

from conftest import count_theta_calls, fresh_copy
from thetacb import cli, special
from thetacb.cli import REGISTRY, CampaignConfig, run_campaign
from thetacb.identities import cb_residual, cb_term_abcq, cb_term_elliptic
from thetacb.lattice import master_equality_residual
from thetacb.noncomm import AlgebraTag, binomial_theorem_residual, pascal_residual
from thetacb.params import SWAPPED, IdentitySize, ParamPoint
import thetacb.sampling as sampling
from thetacb.errors import ResamplingExhaustedError
from thetacb.sampling import (DEFAULT_GUARD, P_HI, P_LO, _draw, check_genericity,
                              sample_param_point, to_mp)
from thetacb.special import ThetaLadder, ThetaLadders, ratio_rows, theta, within_guard
from thetacb.weights import ZERO_SHIFT, elliptic_weight, h_row


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
    assert pp.replace(a=pp.a * pp.q, c=pp.c * pp.q**2).thetas is store
    assert pp.replace(x=2 * pp.x).thetas is store
    assert pp.replace(p=0j).thetas is not store
    assert pp.replace(q=1 / pp.q).thetas is not store


@pytest.mark.parametrize("digits", [0, 40])
def test_derived_points_share_the_store_whichever_reads_first(digits):
    # made before any read of the parent's store, a point at another x,
    # of the p = 0 point and of the point, holds that store, by reference,
    # and its first reads land in it
    with mpmath.workdps(digits or 15):
        pp = sample_param_point(Random(48), IdentitySize(2, 2))
        pp = to_mp(pp) if digits else fresh_copy(pp)
        basic = pp.basic
        derived = basic.replace(x=2 * basic.x)
        other = pp.replace(x=2 * pp.x)
        assert derived.thetas is basic.thetas and other.thetas is pp.thetas
        assert len(pp.thetas) == len(basic.thetas) == 0
        got = cb_residual("abq1", derived, 2, 2)
        assert len(basic.thetas) > 0 and _store(basic) == _store(derived)
        assert got == cb_residual("abq1", fresh_copy(derived), 2, 2)


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
    mirror = count_theta_calls(monkeypatch, lambda: cb_term_elliptic(pp, 3, 3, swap=True))
    assert 0 < mirror < first


@pytest.mark.parametrize("digits", [0, 40])
def test_a_point_keeps_one_p_zero_point_and_hands_it_to_the_mirror(digits):
    with mpmath.workdps(digits or 15):
        pp = sample_param_point(Random(47), IdentitySize(2, 2))
        pp = to_mp(pp) if digits else fresh_copy(pp)
        basic = pp.basic
        assert basic == pp.replace(p=0j) and basic.guard == pp.guard
        assert pp.basic is basic and basic.basic is basic
        store = basic.thetas
        for family in ("abq1", "abq2", "abcq"):
            got = cb_residual(family, pp, 2, 2)
            assert got == cb_residual(family, fresh_copy(pp), 2, 2) <= CampaignConfig().tol
        # the three families and their mirrors read one p = 0 store
        assert basic.thetas is store and len(store) > 0


def test_the_basic_checks_form_one_p_zero_store_per_cell(monkeypatch):
    # the basic checks of one campaign cell share its p = 0 point: one
    # p = 0 store per cell, and the records of a fresh p = 0 point per term
    config = CampaignConfig(identities=("abq1_cb", "abq2_cb", "abcq_cb", "elliptic_cb"),
                            m_max=2, n_max=2, trials=2, seed=5)
    inner = special.ThetaLadders.__init__
    stores = []

    def counting(self, q, p, *args, **kwargs):
        stores.append(p == 0)
        inner(self, q, p, *args, **kwargs)

    monkeypatch.setattr(special.ThetaLadders, "__init__", counting)
    records = run_campaign(config).records
    assert all(rec["resamples"] == 0 for rec in records)
    assert stores.count(True) == 3 * 3 * 2
    monkeypatch.setattr(ParamPoint, "basic", property(lambda pp: pp.replace(p=0j)))
    assert run_campaign(config).records == records


def test_the_elliptic_term_reads_the_ladders_of_the_roles():
    # cb_term_elliptic reads exactly the point's 14 role ladders, the ones
    # the lattice forms read, and makes no ladder of its own
    pp = fresh_copy(sample_param_point(Random(45), IdentitySize(2, 2)))
    roles = pp.role_ladders()
    cb_term_elliptic(pp, 2, 2)
    assert list(pp.thetas.values()) == list(roles)
    assert all(ladder for ladder in roles)


@pytest.mark.parametrize("digits", [0, 40])
def test_the_swapped_roles_are_the_ladders_the_swapped_bases_look_up(digits):
    # a row of h read with swap over the point's one role tuple names the
    # ladders and indices, entry for entry, that its unswapped row at the
    # exchanged shift names over the mirror's roles; the mirror, built with
    # a and b exchanged, forms its roles from its own scalars, and they find
    # exactly the point's ladders, permuted by SWAPPED, in the shared store
    grid = [(i, j, shift) for i in range(3) for j in range(3)
            for shift in (ZERO_SHIFT, (1, 0, 1), (2, -1, 3))]
    with mpmath.workdps(digits or 15):
        for seed in range(4):
            pp = sample_param_point(Random(46 + seed), IdentitySize(2, 2))
            pp = to_mp(pp) if digits else fresh_copy(pp)
            roles = pp.role_ladders()
            mirrored = pp.replace(a=pp.b, b=pp.a).role_ladders()
            assert len(pp.thetas) == 14
            assert all(mirrored[r] is roles[s] for r, s in enumerate(SWAPPED))
            for i, j, (al, be, ga) in grid:
                got = h_row(i, j, (al, be, ga), True)
                want = h_row(i, j, (be, al, ga))
                assert _entries(roles, got.num) == _entries(mirrored, want.num)
                assert _entries(roles, got.den) == _entries(mirrored, want.den)


def _entries(ladders, ids):
    """The (ladder identity, index) of each (role, j) entry id of a row."""
    return [(id(ladders[role]), j) for role, j in ids]


def test_a_changed_nome_never_reads_the_store():
    pp = sample_param_point(Random(43), IdentitySize(3, 3))
    cb_residual("elliptic", pp, 3, 3)
    got = cb_term_abcq(pp, 3, 3)
    want = cb_term_abcq(fresh_copy(pp), 3, 3)
    assert got == want


@pytest.mark.parametrize("digits", [0, 40])
def test_a_dropped_point_frees_its_store_without_the_collector(digits):
    # no ladder references its store, so a point's store and ladders are
    # freed by reference counting: with the collector off while the point
    # is read and dropped, a collection finds none of them
    gc.collect()
    gc.disable()
    try:
        with mpmath.workdps(digits or 15):
            pp = sample_param_point(Random(46), IdentitySize(2, 2))
            pp = to_mp(pp) if digits else fresh_copy(pp)
            ratio_rows(pp.role_ladders(), [h_row(i, j) for i in range(3) for j in range(3)])
            master_equality_residual(pp, IdentitySize(2, 2))
            assert len(pp.thetas) == 14
            del pp
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = [obj for obj in gc.garbage if isinstance(obj, (ThetaLadders, ThetaLadder))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not left


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
            for j, value in ladder.items()}


def _flagged(pp):
    """The entries of the point's store within its guard, as (base, index)."""
    return {(z, j) for z, ladder in pp.thetas.items() for j in ladder._flagged or ()}


def _weight_denominators(pp, size):
    """The (ladder, index) denominators of the weights h(i, 0) and h(0, j)
    that the genericity scan reads at depths ``size``."""
    roles = pp.role_ladders()
    rows = [*(h_row(i, 0) for i in range(size.m + 1)),
            *(h_row(0, j) for j in range(1, size.n + 1))]
    return [(roles[role], j) for row in rows for role, j in row.den]


@pytest.mark.parametrize("depth", [0, 3, 8, 14])
@pytest.mark.parametrize("guard", [DEFAULT_GUARD, 0.05])
def test_genericity_scan_fills_the_store_with_the_values_of_scalar_reads(depth, guard):
    # every entry the scan stores, at a draw and at its p = 0 point, is a
    # fresh theta at its argument, bit for bit, flagged exactly when its
    # margin lies within the point's guard; a draw the scan accepts holds
    # every denominator of its weights, none of them flagged
    size = IdentitySize(depth, depth)
    accepted = 0
    for seed in range(6):
        draw = _draw(Random(seed), P_HI, guard)
        for pp in (draw, draw.replace(p=0j)):
            verdict = check_genericity(pp, size)
            store = _store(pp)
            assert store
            for (z, j), value in store.items():
                arg = z * pp.q**j
                assert value == theta(arg, pp.p), (z, j)
                assert ((z, j) in _flagged(pp)) == (abs(value) / (1 + abs(arg)) <= guard)
            if verdict:
                accepted += 1
                assert all(j in ladder and (ladder.z, j) not in _flagged(pp)
                           for ladder, j in _weight_denominators(pp, size))
    assert accepted


def _reference_verdict(pp, size):
    """check_genericity's range test at a fresh copy of ``pp``, entry by
    entry from fresh thetas: every denominator of the weights h(i, 0) and
    h(0, j) with margin |theta| / (1 + |arg|) above the point's guard, and
    every weight formed without an overflow.  The weights' own values
    play no part."""
    pp, guard = fresh_copy(pp), pp.guard
    try:
        for ladder, j in _weight_denominators(pp, size):
            arg = ladder.z * pp.q**j
            if abs(theta(arg, pp.p)) / (1 + abs(arg)) <= guard:
                return False
        for i, j in [*((i, 0) for i in range(size.m + 1)), *((0, j) for j in range(size.n + 1))]:
            elliptic_weight(pp, i, j)
    except OverflowError:
        return False
    return True


@pytest.mark.parametrize("depth", [0, 3, 8, 14])
def test_genericity_scan_margins_and_verdicts_match_a_per_entry_loop(depth):
    # a guard of 0.3 rejects some draws at every depth: their weights'
    # smallest denominator margins lie between 0.05 and 0.3
    size = IdentitySize(depth, depth)
    verdicts = set()
    for seed in range(8):
        for guard in (DEFAULT_GUARD, 0.3):
            pp = _draw(Random(seed), P_HI, guard)
            got = check_genericity(pp, size)
            assert got == _reference_verdict(pp, size)
            verdicts.add(got)
    assert {True, False} <= verdicts


@pytest.mark.parametrize("point", [pytest.param(to_mp, id="mpmath"),
                                   pytest.param(fresh_copy, id="double")])
def test_genericity_scan_reads_entry_by_entry_without_a_batch(monkeypatch, point):
    # each entry the scan stores is one theta read, tested against the
    # point's guard once, when it is formed
    size = IdentitySize(2, 2)
    for seed in range(3):
        pp = point(_draw(Random(seed), P_HI))
        tested = []
        with monkeypatch.context() as patch:
            patch.setattr(special, "within_guard",
                          lambda value, z, guard: tested.append(guard)
                          or within_guard(value, z, guard))
            verdict = check_genericity(pp, size)
        assert tested == [pp.guard] * len(_store(pp))
        assert verdict == _reference_verdict(pp, size)


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


def test_the_scan_rejects_a_draw_lost_only_to_a_theta_at_p(monkeypatch):
    # c x = p: theta(c x; p) = theta(p; p) = 0, so the store flags it and
    # the scan, which divides by it in h(0, 0), rejects the draw; at p = 0
    # the same factor is 1 - c x = 1 - p, clear of zero
    p, x = 0.3 + 0.1j, 2 + 0j
    pp = ParamPoint(x=x, a=0.7 + 0.4j, b=-0.5 + 0.9j, c=p / x, q=0.2 + 0.6j, p=p)
    assert pp.c * pp.x == p and pp.thetas[p][0] == 0
    assert abs(1 - pp.c * pp.x) > DEFAULT_GUARD
    for depth in [(0, 0), (2, 1), (3, 3)]:
        size = IdentitySize(*depth)
        assert not check_genericity(fresh_copy(pp), size)
        # that zero alone is what the scan rejects
        assert check_genericity(pp.replace(c=1.1 * pp.c), size)
        assert check_genericity(pp.replace(p=0j), size)
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "_draw", lambda rng, p_hi, guard: fresh_copy(pp))
            with pytest.raises(ResamplingExhaustedError):
                sample_param_point(Random(0), size)


def test_a_draw_is_scanned_once_at_its_own_nome(monkeypatch):
    # the p = 0 stores test their own entries, so the sampler scans each
    # draw once, at its nome, with the guard asked for
    scanned, scan = [], sampling.check_genericity
    monkeypatch.setattr(sampling, "check_genericity",
                        lambda pp, size: scanned.append(pp) or scan(pp, size))
    for guard in (DEFAULT_GUARD, 0.05):
        scanned.clear()
        pp = sample_param_point(Random(3), IdentitySize(3, 3), guard=guard)
        assert scanned[-1] is pp and pp.guard == guard
        assert all(point.p != 0 and point.guard == guard for point in scanned)
        assert len({point.p for point in scanned}) == len(scanned)


def _untested_divisors(monkeypatch, config, name, m, n, seed):
    """The denominators that check ``name`` divides by at the point of
    the campaign ``config``'s cell (m, n, 0) of seed ``seed`` and that were
    not tested against the campaign's guard: every :meth:`ThetaLadder.den`
    read of the check whose value no :func:`special.within_guard` call
    tested with that guard, or tested within it, as (p, base, index); and
    the guard of any margin test, the scan's and the check's q-factors'
    included, that is not the campaign's, as ("guard", guard)."""
    tested, reads = {}, []
    den = ThetaLadder.den
    runner = REGISTRY[name][2]

    def test(value, z, guard):
        tested[id(value)] = (value, guard)  # the value is held, so its id stays its own
        return within_guard(value, z, guard)

    def recording(pp, m, n):
        # only the reads of the accepted point's evaluation
        reads.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ThetaLadder, "den",
                          lambda ladder, j: reads.append((ladder, j)) or den(ladder, j))
            return runner(pp, m, n)

    with monkeypatch.context() as patch:
        patch.setattr(special, "within_guard", test)
        cli._run_trial(config, name, recording, cli._Cell(m, n, 0, seed))
    untested = set()
    for ladder, j in reads:
        value = ladder.get(j)  # the kept value; a read here would form a missing one
        value_tested, guard = tested.get(id(value), (None, None))
        if (value_tested is not value or guard != config.guard
                or within_guard(value, ladder.z * ladder.shared.q**j, guard)):
            untested.add((ladder.shared.p, ladder.z, j))
    return untested | {("guard", guard) for _, guard in tested.values() if guard != config.guard}


#: A campaign guard other than the default: a store left at the default
#: guard shows as a test at another guard.
_GUARD = 2 * DEFAULT_GUARD


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_the_scan_covers_every_denominator_a_check_reads(monkeypatch, name):
    # every denominator a check divides by was tested against the campaign's
    # guard when its store entry was formed, the very-well-poised sum's own
    # bases included
    config = CampaignConfig(guard=_GUARD)
    for m in range(4):
        for n in range(4):
            for seed in range(2):
                assert not _untested_divisors(monkeypatch, config, name, m, n, seed), (m, n, seed)


@pytest.mark.parametrize("m, n", [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 4)])
def test_the_scan_covers_the_convolutions_denominators_past_depth_three(monkeypatch, m, n):
    # b_closed at shift (j, n - j, n) reads bc and ac past index m + n + 1
    config = CampaignConfig(guard=_GUARD)
    assert not _untested_divisors(monkeypatch, config, "convolution", m, n, 0)


@pytest.mark.parametrize("name", ["elliptic_cb", "abcq_cb", "frenkel_turaev", "mod_reduction"])
def test_every_store_of_a_forty_digit_campaign_applies_its_guard(monkeypatch, name):
    # the draw's to_mp conversion and its p = 0 point test every entry
    # against the campaign's guard, at 40 digits
    config = CampaignConfig(guard=_GUARD, precision=40)
    with mpmath.workdps(40):
        for m, n in [(0, 1), (2, 1)]:
            assert not _untested_divisors(monkeypatch, config, name, m, n, 0), (m, n)


def _records_at(monkeypatch, point, name, guard):
    """The record of check ``name`` at cell (2, 0) of a one-trial campaign
    at m <= 2, n = 0 with ``guard``, whose cell draws ``point`` first."""
    size, placed = IdentitySize(2, 0), []
    sample = cli.sample_param_point

    def placing(rng, at, guard, p_max):
        if at == size and not placed:
            placed.append(point)
            return point.replace(guard=guard)
        return sample(rng, at, guard=guard, p_max=p_max)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "sample_param_point", placing)
        report = run_campaign(CampaignConfig(identities=(name,), m_max=2, n_max=0, trials=1,
                                             guard=guard))
    rec, = [rec for rec in report.records if (rec["m"], rec["n"]) == (2, 0)]
    return rec


#: name -> (check, the point at a generic draw with one denominator factor
#: moved next to a zero by eps, that factor's margin): a theta entry at p
#: (theta(ac q; p), zero at ac q = p), an entry 1 - z q^j of the p = 0 store
#: (1 - ac q) and a q-factor the check forms itself (connection_first's
#: 1 - a q^(1-n) / b at n = 2).  The scan reads the entries of ac at index
#: 0 only (in 1 - h(0, 0)), so it accepts each point.
_NEAR_ZERO = {
    "theta_at_p": ("elliptic_cb", lambda pp, eps: pp.replace(c=pp.p * (1 + eps) / (pp.a * pp.q)),
                   lambda pp: _margin(theta(pp.a * pp.c * pp.q, pp.p), pp.a * pp.c * pp.q)),
    "basic_at_p_zero": ("abcq_cb", lambda pp, eps: pp.replace(c=(1 + eps) / (pp.a * pp.q)),
                        lambda pp: _margin(1 - pp.a * pp.c * pp.q, pp.a * pp.c * pp.q)),
    "own_q_factor": ("connection_first", lambda pp, eps: pp.replace(a=pp.b * pp.q * (1 + eps)),
                     lambda pp: _margin(1 - pp.a / (pp.q * pp.b), pp.a / (pp.q * pp.b))),
}


def _margin(value, z):
    return abs(value) / (1 + abs(z))


@pytest.mark.parametrize("family", sorted(_NEAR_ZERO))
def test_a_denominator_within_the_guard_falls_back_to_the_checks_own_draw(monkeypatch, family):
    name, near, margin = _NEAR_ZERO[family]
    draw = sample_param_point(Random(7), IdentitySize(2, 0))
    # a margin past the old absolute guard of 1e-12 and within the default
    pp = near(draw, 1e-8)
    assert 1e-12 < margin(pp) <= DEFAULT_GUARD and check_genericity(pp, IdentitySize(2, 0))
    rec = _records_at(monkeypatch, pp, name, DEFAULT_GUARD)
    assert rec["resamples"] > 0 and rec["verdict"] == "pass"
    assert rec["seed"] == cli._trial_seed(0, name, 2, 0, 0)
    # a point the default guard accepts, and a larger guard does not
    pp = near(draw, 1e-4)
    wide = 1e-3
    assert DEFAULT_GUARD < margin(pp) <= wide
    assert check_genericity(pp.replace(guard=wide), IdentitySize(2, 0))
    assert _records_at(monkeypatch, pp, name, DEFAULT_GUARD)["resamples"] == 0
    rec = _records_at(monkeypatch, pp, name, wide)
    assert rec["resamples"] > 0 and rec["verdict"] == "pass"
