"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import cmath
import math
import sys
from random import Random

import pytest
from hypothesis import strategies as st

from thetacb.noncomm import (AlgebraTag, Evaluator, _homogeneous_rhs, elliptic_binomial,
                             evaluate_element, path_binomial)
from thetacb.params import IdentitySize, ParamPoint
from thetacb.sampling import sample_param_point
from thetacb.weights import binomial_weight, elliptic_weight, normalized_weight


def ring_complex(lo: float, hi: float) -> st.SearchStrategy:
    """Complex numbers with log-uniform-ish magnitude in [lo, hi]."""
    return st.builds(
        lambda mag, ang: cmath.rect(math.exp(mag), ang),
        st.floats(math.log(lo), math.log(hi)),
        st.floats(0.0, 2.0 * math.pi),
    )


def unit_complex(rng: Random, lo: float, hi: float) -> complex:
    mag = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return cmath.rect(mag, rng.uniform(0.0, 2.0 * math.pi))


def patch_theta(monkeypatch, wrap):
    """Replace ``special.theta`` by ``wrap(theta)`` under every name a
    ``thetacb`` module binds it to."""
    import thetacb.special as special

    inner = special.theta
    wrapper = wrap(inner)
    for name, module in list(sys.modules.items()):
        if name.startswith("thetacb") and getattr(module, "theta", None) is inner:
            monkeypatch.setattr(module, "theta", wrapper)


def count_theta_calls(monkeypatch, run) -> int:
    """How many times ``run()`` calls ``special.theta``, under every name
    a ``thetacb`` module binds it to."""
    calls = [0]

    def counting(inner):
        def call(x, *args):
            calls[0] += 1
            return inner(x, *args)
        return call

    patch_theta(monkeypatch, counting)
    try:
        run()
    finally:
        monkeypatch.undo()
    return calls[0]


def nan_on_second_call(fn):
    """``fn``, except that its second call returns NaN."""
    calls = [0]

    def wrapped(*args):
        calls[0] += 1
        value = fn(*args)
        return math.nan if calls[0] == 2 else value

    return wrapped


def ab_point(a, b, q, p) -> ParamPoint:
    """A point for the two-parameter (a, b) evaluators, which read a, b, q
    and p only; x and c are set to 1."""
    return ParamPoint(1, a, b, 1, q, p)


def fresh_copy(pp: ParamPoint) -> ParamPoint:
    """The same point, with its guard, on an empty theta store."""
    return ParamPoint(pp.x, pp.a, pp.b, pp.c, pp.q, pp.p, guard=pp.guard)


def shifted_point(pp: ParamPoint, shift) -> ParamPoint:
    """The substituted point (a q^alpha, b q^beta, c q^gamma), built as a
    new point: the reference a kernel read at ``shift`` is compared with."""
    alpha, beta, gamma = shift
    q = pp.q
    return pp.replace(a=pp.a * q**alpha, b=pp.b * q**beta, c=pp.c * q**gamma)


def normal_form_leaves(pp: ParamPoint, depth: int = 3) -> dict:
    """Every leaf that the homogeneous and binomial normal forms of the two
    elliptic algebras read at m, n <= depth, with each substitution state
    it is read at, listed from the memo of the evaluators that evaluate
    them at ``pp``: {(leaf key, shift): value}, the key naming the kernel
    (a key of :data:`LEAF_KERNELS`) and its indices."""
    found = {}
    for tag in (AlgebraTag.ELLIPTIC_AB, AlgebraTag.ELLIPTIC_XABC):
        ev = Evaluator(tag, pp)
        for m in range(depth + 1):
            for n in range(depth + 1):
                ev.power(m + n + 1)
                evaluate_element(ev, _homogeneous_rhs(m, n))
        found.update(((key, shift), value) for (key, shift), value in ev.memo.items()
                     if key[0] in LEAF_KERNELS)
    return found


#: The name of each shifted leaf of the elliptic normal forms -> its kernel,
#: called as kernel(pp, *indices, shift).
LEAF_KERNELS = {
    "h": lambda pp, i, j, swap, shift: elliptic_weight(pp, i, j, shift, swap),
    "H": lambda pp, i, j, swap, shift: normalized_weight(pp, i, j, shift, swap),
    "pbin": path_binomial,
    "wbin": elliptic_binomial,
    "W": binomial_weight,
}


@pytest.fixture
def rng() -> Random:
    return Random(20260809)


@pytest.fixture
def generic_point(rng):
    """One generic parameter point, safe for depths up to (6, 6)."""
    return sample_param_point(rng, IdentitySize(6, 6))


@pytest.fixture
def point_factory(rng):
    def make(m: int = 6, n: int = 6, **kwargs):
        return sample_param_point(rng, IdentitySize(m, n), **kwargs)

    return make
