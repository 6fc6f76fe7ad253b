"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Comparisons of summed quantities are relative to the largest summand, the
package-wide residual convention for theta products that span many orders
of magnitude; the transition-matrix check runs at extended precision
because its re-expansion scales exceed double headroom at the small-|q|
end of the sampling domain.
"""

from __future__ import annotations

import math
import time
from random import Random

import mpmath

from conftest import unit_complex
from thetacb import bezout, noncomm
from thetacb.errors import DegenerateParameterError
from thetacb.identities import (
    ARROWS,
    FAMILIES,
    cb_residual,
    cb_terms,
    degeneration_decay,
)
from thetacb.lattice import (
    a_bruteforce,
    a_closed,
    a_table_dp,
    master_equality_total,
    total_weight,
)
from thetacb.params import IdentitySize, ParamPoint
from thetacb.sampling import sample_param_point, to_mp
from thetacb.special import addition_formula_residual, relative_residual, theta
from thetacb.cli import CampaignConfig, run_campaign


def _announce(number: int, label: str, ok: bool, detail: str):
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number} ({label}): {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_theta_primitives():
    rng = Random(0xC1)
    started = time.perf_counter()
    worst = {"symmetry": 0.0, "inversion": 0.0, "quasi_periodicity": 0.0,
             "addition": 0.0}
    for _ in range(1000):
        p = unit_complex(rng, 0.05, 0.5)
        x = unit_complex(rng, 0.1, 3.0)
        t = theta(x, p)
        worst["symmetry"] = max(worst["symmetry"],
                                relative_residual(theta(p / x, p), t))
        worst["inversion"] = max(worst["inversion"],
                                 relative_residual(theta(1 / x, p), -t / x))
        worst["quasi_periodicity"] = max(worst["quasi_periodicity"],
                                         relative_residual(theta(p * x, p), -t / x))
        y, u, v = (unit_complex(rng, 0.1, 3.0) for _ in range(3))
        worst["addition"] = max(worst["addition"],
                                addition_formula_residual(x, y, u, v, p))
    elapsed = time.perf_counter() - started
    ok = all(value < 1e-10 for value in worst.values()) and elapsed < 5.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _announce(1, "theta primitives", ok, f"{detail}, {elapsed:.1f}s over 1000 samples")


def _cell_residual(pp, table, k, ell):
    brute = a_bruteforce(pp, k, ell)
    dp_val = table.a[k][ell]
    closed = a_closed(pp, k, ell)
    return max(relative_residual(brute, dp_val),
               relative_residual(brute, closed),
               relative_residual(dp_val, closed))


def test_criterion_2_lattice_oracle_equivalence():
    rng = Random(0xC2)
    started = time.perf_counter()
    size = IdentitySize(5, 5)
    worst_pairwise = 0.0
    worst_total = 0.0
    rescued = 0
    for _ in range(100):
        pp = sample_param_point(rng, size)
        table = a_table_dp(pp, size)
        mp_state = None  # (point, table), built on first rescued cell
        for k in range(6):
            for ell in range(6):
                residual = _cell_residual(pp, table, k, ell)
                if residual >= 5e-10:
                    # path weights can reach 1e8 at generic points, so the
                    # plain summation residual is rounding-bound in doubles;
                    # recheck the failing cell at extended precision
                    rescued += 1
                    with mpmath.workdps(40):
                        if mp_state is None:
                            mp_pp = to_mp(pp)
                            mp_state = (mp_pp, a_table_dp(mp_pp, size))
                        residual = _cell_residual(*mp_state, k, ell)
                worst_pairwise = max(worst_pairwise, residual)
        for m in range(6):
            for n in range(6):
                residual = relative_residual(1, total_weight(pp, IdentitySize(m, n)))
                if residual >= 5e-10:
                    rescued += 1
                    with mpmath.workdps(40):
                        if mp_state is None:
                            mp_pp = to_mp(pp)
                            mp_state = (mp_pp, a_table_dp(mp_pp, size))
                        residual = relative_residual(
                            1, total_weight(mp_state[0], IdentitySize(m, n)))
                worst_total = max(worst_total, residual)
    elapsed = time.perf_counter() - started
    ok = worst_pairwise < 1e-9 and worst_total < 1e-9 and elapsed < 30.0
    _announce(2, "lattice oracle equivalence", ok,
              f"pairwise={worst_pairwise:.2e}, total_weight={worst_total:.2e}, "
              f"{rescued} cells rechecked at extended precision, "
              f"{elapsed:.1f}s over 100 samples x all m,n <= 5")


def _elliptic_trial(pp, m, n):
    term_a, term_b = cb_terms("elliptic", pp, m, n)
    residual = relative_residual(1, term_a + term_b)
    total, _scale = master_equality_total(pp, IdentitySize(m, n))
    routes = relative_residual(term_a + term_b, total)
    return residual, routes


def test_criterion_3_elliptic_identity():
    rng = Random(0xC3)
    started = time.perf_counter()
    worst_residual = 0.0
    worst_routes = 0.0
    trials = 0
    rescued = 0
    for m in range(9):
        for n in range(9):
            for _ in range(3):
                pp = sample_param_point(rng, IdentitySize(m, n))
                residual, routes = _elliptic_trial(pp, m, n)
                if residual >= 5e-9 or routes >= 5e-10:
                    rescued += 1
                    with mpmath.workdps(40):
                        residual, routes = _elliptic_trial(to_mp(pp), m, n)
                worst_residual = max(worst_residual, residual)
                worst_routes = max(worst_routes, routes)
                trials += 1
    elapsed = time.perf_counter() - started
    ok = worst_residual < 1e-8 and worst_routes < 1e-9 and elapsed < 60.0
    _announce(3, "elliptic two-term expansion", ok,
              f"residual={worst_residual:.2e}, route gap={worst_routes:.2e}, "
              f"{trials} trials (all m,n <= 8), {rescued} rerun at extended "
              f"precision, {elapsed:.1f}s")


def test_criterion_4_degeneration_chain():
    rng = Random(0xC4)
    started = time.perf_counter()
    worst = {family: 0.0 for family in FAMILIES if family != "elliptic"}
    for m in range(11):
        for n in range(11):
            pp = sample_param_point(rng, IdentitySize(m, n))
            for family in worst:
                worst[family] = max(worst[family], cb_residual(family, pp, m, n))
    families_ok = all(value < 1e-10 for value in worst.values())

    decay_ok = True
    worst_ratio = math.inf
    for _ in range(3):
        pp = sample_param_point(rng, IdentitySize(3, 3))
        seqs = degeneration_decay(pp, 2, 1, eps0=1e-3, halvings=3)
        for name in ARROWS:
            gaps = seqs[name]
            for first, second in zip(gaps, gaps[1:]):
                ratio = first / second if second else math.inf
                worst_ratio = min(worst_ratio, ratio)
                decay_ok = decay_ok and ratio >= 1.8
    elapsed = time.perf_counter() - started
    ok = families_ok and decay_ok and elapsed < 30.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _announce(4, "degeneration chain", ok,
              f"{detail}, slowest decay {worst_ratio:.2f}x per halving, {elapsed:.1f}s")


def test_criterion_5_bezout_suite():
    rng = Random(0xC5)
    started = time.perf_counter()

    worst_cofactor = 0.0
    worst_reduction = 0.0
    for _ in range(50):
        a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
        q = unit_complex(rng, 0.3, 0.9)
        for m in range(6):
            for n in range(6):
                got1, got2 = bezout.bezout_solve(
                    bezout.qpoch_poly(1, q, n + 1), bezout.poly_monomial(m + 1), m, n)
                want1, want2 = bezout.qcb_cofactors(q, m, n)
                worst_cofactor = max(worst_cofactor, _poly_gap(got1, want1),
                                     _poly_gap(got2, want2))
                got1, got2 = bezout.bezout_solve(
                    bezout.qpoch_poly(b, q, n + 1), bezout.qpoch_poly(a, q, m + 1), m, n)
                want1, want2 = bezout.abq1_cofactors(a, b, q, m, n)
                worst_cofactor = max(worst_cofactor, _poly_gap(got1, want1),
                                     _poly_gap(got2, want2))
                for family in ("first", "second"):
                    worst_reduction = max(
                        worst_reduction,
                        bezout.mod_reduction_check(family, a, b, q, m, n),
                        bezout.mod_reduction_check(family, b, a, q, n, m))

    # the transition check re-expands through scales up to |q|^-28 at
    # degree 8, so it runs at extended precision
    worst_matrix = 0.0
    with mpmath.workdps(40):
        for _ in range(25):
            q = mpmath.mpc(unit_complex(rng, 0.3, 0.9))
            worst_matrix = max(worst_matrix, bezout.matrix_pair_check(8, q))

    from thetacb.special import qpoch

    worst_connection = 0.0
    for _ in range(30):
        a, b = unit_complex(rng, 0.2, 2), unit_complex(rng, 0.2, 2)
        q = unit_complex(rng, 0.3, 0.9)
        for n in range(7):
            for _ in range(5):
                x = unit_complex(rng, 0.2, 2)
                terms = [bezout.connection_first(n, k, a, b, q) * qpoch(a * x, q, k)
                         for k in range(n + 1)]
                scale = max([1.0] + [abs(t) for t in terms])
                worst_connection = max(
                    worst_connection, abs(sum(terms) - qpoch(b * x, q, n)) / scale)
                terms = [bezout.connection_second(n, k, a, b, q)
                         * qpoch(a * x, q, k) * qpoch(a / x, q, k)
                         for k in range(n + 1)]
                scale = max([1.0] + [abs(t) for t in terms])
                target = qpoch(b * x, q, n) * qpoch(b / x, q, n)
                worst_connection = max(worst_connection,
                                       abs(sum(terms) - target) / scale)

    elapsed = time.perf_counter() - started
    ok = (worst_cofactor < 1e-9 and worst_reduction < 1e-9
          and worst_matrix < 1e-12 and worst_connection < 1e-11
          and elapsed < 30.0)
    _announce(5, "cofactor suite", ok,
              f"cofactors={worst_cofactor:.2e}, mod_reduction={worst_reduction:.2e}, "
              f"transition={worst_matrix:.2e}, connection={worst_connection:.2e}, "
              f"{elapsed:.1f}s")


def _poly_gap(got, want) -> float:
    pad = max(len(got.coeffs), len(want.coeffs))
    scale = max([1.0] + [abs(z) for z in want.coeffs])
    gap = 0.0
    for i in range(pad):
        g = got.coeffs[i] if i < len(got.coeffs) else 0
        w = want.coeffs[i] if i < len(want.coeffs) else 0
        gap = max(gap, abs(g - w))
    return gap / scale


def test_criterion_6_noncommutative_suite():
    rng = Random(0xC6)
    started = time.perf_counter()

    worst_binomial = 0.0
    for _ in range(5):
        pp = sample_param_point(rng, IdentitySize(8, 8))
        worst_binomial = max(worst_binomial, *(noncomm.binomial_theorem_residual(tag, pp, n)
                                                for tag in noncomm.AlgebraTag
                                                for n in range(7)))

    worst_homogeneous = 0.0
    for _ in range(2):
        pp = sample_param_point(rng, IdentitySize(9, 9))
        for tag in noncomm.AlgebraTag:
            for m in range(5):
                for n in range(5):
                    worst_homogeneous = max(worst_homogeneous,
                                            noncomm.homogeneous_cb_residual(tag, pp, m, n))

    worst_convolution = 0.0
    for _ in range(3):
        pp = sample_param_point(rng, IdentitySize(8, 8))
        for n in range(5):
            for m in range(5):
                for k in range(n + m + 1):
                    worst_convolution = max(
                        worst_convolution, noncomm.convolution_residual(pp, n, m, k))

    worst_sum = 0.0
    checked = 0
    rescued = 0
    while checked < 100:
        a, b, c, d = (unit_complex(rng, 0.2, 2) for _ in range(4))
        q, p = unit_complex(rng, 0.3, 0.9), unit_complex(rng, 0.05, 0.5)
        pp = ParamPoint(d, a, b, c, q, p)
        for n in range(7):
            try:
                lhs, rhs = noncomm.frenkel_turaev(pp, n)
            except DegenerateParameterError:
                continue
            residual = relative_residual(lhs, rhs)
            if residual >= 5e-10:
                rescued += 1
                with mpmath.workdps(40):
                    lhs, rhs = noncomm.frenkel_turaev(
                        ParamPoint(*(mpmath.mpc(v) for v in (d, a, b, c, q, p))), n)
                residual = relative_residual(lhs, rhs)
            worst_sum = max(worst_sum, residual)
        checked += 1

    elapsed = time.perf_counter() - started
    ok = (worst_binomial < 1e-9 and worst_homogeneous < 1e-9
          and worst_convolution < 1e-9 and worst_sum < 1e-9
          and elapsed < 120.0)
    _announce(6, "non-commutative suite", ok,
              f"binomial={worst_binomial:.2e}, homogeneous={worst_homogeneous:.2e}, "
              f"convolution={worst_convolution:.2e}, very-well-poised={worst_sum:.2e} "
              f"({rescued} rerun at extended precision), {elapsed:.1f}s")


def test_criterion_7_campaign_determinism():
    config = CampaignConfig(
        identities=("elliptic_cb", "frenkel_turaev", "convolution", "qcb"),
        m_max=2, n_max=2, trials=2, seed=31)
    first = run_campaign(config).to_text()
    second = run_campaign(config).to_text()
    ok = first == second and len(first.splitlines()) > 1
    _announce(7, "campaign determinism", ok,
              f"{len(first.splitlines())} report lines, byte-identical rerun")
