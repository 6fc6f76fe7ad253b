"""Parameter bundles shared by every evaluator.

A :class:`ParamPoint` fixes one numeric instance of the six quantities
(x, a, b, c, q, p) at which all series, weights and normal forms are
evaluated.  Scalars may be built-in ``complex`` or ``mpmath.mpc``; the
evaluators are agnostic as long as the usual arithmetic works.

A point also owns the theta values read at it (:attr:`ParamPoint.thetas`),
so every evaluator that reads the same theta at the same point computes it
once, the denominator margin its stores apply (:attr:`ParamPoint.guard`),
and its p = 0 point (:attr:`ParamPoint.basic`), whose store the basic
families read.
"""

from __future__ import annotations

import dataclasses
from dataclasses import InitVar, dataclass

from .special import DEFAULT_GUARD, ThetaLadders

#: The ladder roles of the lattice forms (h in ``weights``, A and B in
#: ``lattice``): role r is entry r of :meth:`ParamPoint.role_ladders`.
A_B, B_A, BC, AC, AB, CX, C_X, Q, C_B, AX, A_X, BX, B_X, C_A = range(14)

#: Role r of the point with a and b exchanged is role ``SWAPPED[r]`` of
#: the point itself, and the other way round: both bases are the same
#: expression of the same scalars (b a and a b are the same product, bit
#: for bit).
SWAPPED = (B_A, A_B, AC, BC, AB, CX, C_X, Q, C_A, BX, B_X, AX, A_X, C_B)


@dataclass(frozen=True)
class ParamPoint:
    """One sampled evaluation point.

    Invariants: x, a, b, c, q nonzero; |p| < 1 with p = 0 only for the
    basic (theta-free) specialisation.

    ``guard`` is the denominator margin of the point (``special.within_guard``):
    every theta store of the point tests its entries against it, and the
    checks the q-factors they form.  It is not a field, so equality,
    hashing and records ignore it; :meth:`replace` keeps it.
    """

    x: complex
    a: complex
    b: complex
    c: complex
    q: complex
    p: complex
    guard: InitVar[float] = DEFAULT_GUARD

    def __post_init__(self, guard):
        # an attribute of the instance, which dataclasses.replace reads
        object.__setattr__(self, "guard", guard)
        for name in ("x", "a", "b", "c", "q"):
            if getattr(self, name) == 0:
                raise ValueError(f"parameter {name!r} must be nonzero")
        if abs(self.p) >= 1:
            raise ValueError("nome p must satisfy |p| < 1")
        # mpmath scalars carry the context whose precision their values follow
        ctx = next((v.context for v in (self.x, self.a, self.b, self.c, self.q, self.p)
                    if hasattr(v, "context")), None)
        object.__setattr__(self, "_context", ctx)

    @property
    def thetas(self) -> ThetaLadders:
        """The point's theta store: ``thetas[z][j]`` is theta(z q^j; p),
        evaluated on first read and then kept for the point's lifetime,
        tested against the point's guard when it is formed.

        The store is not a field, so equality, hashing and records ignore
        it.  It belongs to the working precision it was filled at
        (``mpmath``'s precision for mpmath scalars, none for doubles),
        with every value of the nome and of q its thetas share; a read at
        another precision starts a fresh store, so no value computed at
        one precision is handed out at another.  This is the one place
        that follows the working precision.
        """
        prec = None if self._context is None else self._context.prec
        held = self.__dict__.get("_thetas")
        if held is None or held[0] != prec:
            held = (prec, ThetaLadders(self.q, self.p, self.guard))
            object.__setattr__(self, "_thetas", held)
        return held[1]

    @property
    def basic(self) -> "ParamPoint":
        """The point at p = 0, the basic specialisation whose store the
        basic families read: made on first use and kept with the point, so
        the checks of one point share its p = 0 entries; :meth:`swap_ab`
        hands it to the mirror.  A point at p = 0 is its own."""
        if self.p == 0:
            return self
        basic = self.__dict__.get("_basic")
        if basic is None:
            basic = self.replace(p=0j)
            object.__setattr__(self, "_basic", basic)
        return basic

    def role_ladders(self) -> tuple:
        """The ladders of the roles, in role order: the bases a/b, b/a, bc,
        ac, ab, cx, c/x, q, c/b, ax, a/x, bx, b/x and c/a of the point's
        theta store, kept with the store they were read from.  A row reads
        the roles of the point with a and b exchanged off this tuple too,
        role r as ``SWAPPED[r]`` (``weights.h_row``'s ``swap``)."""
        store = self.thetas
        held = self.__dict__.get("_roles")
        if held is None or held[0] is not store:
            x, a, b, c, q = self.x, self.a, self.b, self.c, self.q
            held = (store, tuple(store[z] for z in (
                a / b, b / a, b * c, a * c, a * b, c * x, c / x, q,
                c / b, a * x, a / x, b * x, b / x, c / a)))
            object.__setattr__(self, "_roles", held)
        return held[1]

    def swap_ab(self) -> "ParamPoint":
        """The point with the roles of a and b exchanged.  It shares this
        point's store (:meth:`replace`), the role ladders this point holds,
        permuted by ``SWAPPED`` into its own, and its p = 0 point
        (:attr:`basic`) swapped, which shares that point's store, whichever
        of the two points reads first."""
        out = self.replace(a=self.b, b=self.a)
        held = self.__dict__.get("_roles")
        if held is not None:
            # role_ladders checks the store before it reads them
            object.__setattr__(out, "_roles", (held[0], tuple(held[1][r] for r in SWAPPED)))
        if self.p != 0:
            object.__setattr__(out, "_basic", self.basic.swap_ab())
        return out

    def replace(self, **changes) -> "ParamPoint":
        """The point with some scalars (or its guard) changed.  It shares
        this point's theta store, by reference, when q, p and the guard are
        unchanged: every entry and its flag depend on q, p, the guard and
        its own argument only.  The store is made here if this point has
        none yet, so the two read one store whichever reads first."""
        out = dataclasses.replace(self, **changes)
        if changes.keys().isdisjoint(("q", "p", "guard")):
            self.thetas  # made now if this point has none yet
            object.__setattr__(out, "_thetas", self._thetas)
        return out


@dataclass(frozen=True)
class IdentitySize:
    """The pair of truncation depths (m, n) of a two-sum identity."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("truncation depths must be nonnegative")
