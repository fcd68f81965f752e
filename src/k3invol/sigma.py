"""Invariants of the auxiliary moduli space carrying the induced involution.

For n >= 4 the space has Picard rank two with Neron-Severi lattice
<2> + <-2t(n-3)/g^2>, g = gcd(3, n); the negative generator kappa is the
Mukai vector (t, -(2n-3), t(n-2))/g.  Finiteness of the birational
automorphism group reduces to rationality of the positive-cone rays
(n = 7) or to solvability of the negative Pell equation
X^2 - (t(n-3)/g^2) Y^2 = -1; the multiples-of-3 family is always
infinite.  Dimension formulas for the relevant linear systems live here
too, since they are pure numerology in n and k.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .mukai import MukaiContext, MukaiVector, mukai_pairing, standard_vectors
from .pell import (
    PellSolution,
    isqrt,
    negative_pell_minimal,
    smallest_prime_factor_3_mod_4,
)


class BirStatus(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class NsSigma:
    n: int
    g: int
    L_square: int
    kappa_square: int
    kappa_vec: MukaiVector

    @property
    def gram_det(self) -> int:
        return self.L_square * self.kappa_square


@dataclass(frozen=True)
class BirVerdict:
    status: BirStatus
    witness: Optional[PellSolution] = None
    obstruction: Optional[int] = None
    # diagnostics, mainly for the unknown branch
    pell_d: Optional[int] = None
    pell_solvable: Optional[bool] = None
    w_divisibility: Optional[int] = None


@dataclass(frozen=True)
class DimensionReport:
    n: int
    h0_full: int
    proj_dim: int
    pluecker_linear_dim: int
    pluecker_ambient_dim: int


def _delta(n: int) -> tuple[int, int]:
    """(g, t(n-3)/g^2) for n >= 4; the quotient is exact."""
    t = 4 * n - 3
    g = math.gcd(3, n)
    num = t * (n - 3)
    if num % (g * g):
        raise AssertionError("t(n-3) is not divisible by gcd(3, n)^2")
    return g, num // (g * g)


def ns_sigma(n: int) -> NsSigma:
    """Neron-Severi data for n >= 4; all lattice identities are checked."""
    if n < 4:
        raise ValueError("Picard rank two requires n >= 4")
    ctx = MukaiContext(n)
    t = ctx.t
    g, delta = _delta(n)
    raw = MukaiVector(t, -(2 * n - 3), t * (n - 2))
    if raw.r % g or raw.c % g or raw.s % g:
        raise AssertionError("kappa is not integral")
    kappa = MukaiVector(raw.r // g, raw.c // g, raw.s // g)
    kappa_sq = mukai_pairing(ctx, kappa, kappa)
    if kappa_sq != -2 * delta:
        raise AssertionError("kappa^2 != -2t(n-3)/g^2")
    _, _, w, u = standard_vectors(ctx)
    if mukai_pairing(ctx, kappa, u) != 0 or mukai_pairing(ctx, kappa, w) != 0:
        raise AssertionError("kappa is not orthogonal to u and w")
    return NsSigma(n=n, g=g, L_square=2, kappa_square=kappa_sq, kappa_vec=kappa)


def positive_cone_rational(n: int) -> bool:
    """Whether the positive-cone boundary rays sqrt(t(n-3))/g * L +- kappa
    are rational, i.e. t(n-3)/g^2 is a perfect square."""
    if n < 4:
        raise ValueError("requires n >= 4")
    _, delta = _delta(n)
    return isqrt(delta)[1]


def bir_finiteness(n: int) -> BirVerdict:
    """Finiteness verdict for the birational automorphism group.

    Finite when delta = t(n-3)/g^2 is a square (rational positive-cone
    rays; among n >= 4 only n = 7).  Otherwise finite when the negative
    Pell equation X^2 - delta Y^2 = -1 is solvable (the minimal solution
    is the witness: X*L + Y*kappa is then a spherical class cutting a
    wall).  For n = 3n' the equation is never solvable and the group is
    infinite; the obstruction is the smallest prime p == 3 (mod 4)
    dividing delta.  The remaining cases are honestly unknown.
    """
    if n < 4:
        raise ValueError("requires n >= 4")
    g, delta = _delta(n)
    w_div = math.gcd(3, math.gcd(2 * (4 * n - 3), n))
    if isqrt(delta)[1]:
        # Rational rays.  16t(n-3) = (8n-15)^2 - 81, so delta = k^2 means
        # (8n-15)^2 - (4gk)^2 = 81; the factor pairs 1*81 and 9*9 give
        # n = 7 and n = 3, and 3*27 no integer n, so this is n = 7.
        return BirVerdict(
            status=BirStatus.FINITE, pell_d=delta, w_divisibility=w_div
        )
    witness = negative_pell_minimal(delta)
    if witness is not None:
        return BirVerdict(
            status=BirStatus.FINITE,
            witness=witness,
            pell_d=delta,
            pell_solvable=True,
            w_divisibility=w_div,
        )
    if n % 3 == 0:
        return BirVerdict(
            status=BirStatus.INFINITE,
            obstruction=smallest_prime_factor_3_mod_4(delta),
            pell_d=delta,
            pell_solvable=False,
            w_divisibility=w_div,
        )
    return BirVerdict(
        status=BirStatus.UNKNOWN,
        pell_d=delta,
        pell_solvable=False,
        w_divisibility=w_div,
    )


def h0_sigma(n: int, k: int) -> int:
    """Sections of the k-th power of the degree-2 class on the (2n-4)-fold:
    binomial(k^2 + n - 1, n - 2)."""
    if n < 3:
        raise ValueError("requires n >= 3")
    if k < 1:
        raise ValueError("k must be positive")
    return math.comb(k * k + n - 1, n - 2)


def dimension_report(n: int) -> DimensionReport:
    """Dimension bookkeeping of the fixed linear system and its distinguished
    subsystem.

    h0_full = (n+1)(n+2)/2 sections, so the system is a P^{n(n+3)/2}; the
    subsystem spanned by the 2n+1 skew forms leaves a quotient of
    dimension n(n-1)/2, the span of the image of the indeterminacy locus,
    inside an ambient P^{(n-2)(n+1)/2}.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    h0_full = (n + 1) * (n + 2) // 2
    report = DimensionReport(
        n=n,
        h0_full=h0_full,
        proj_dim=n * (n + 3) // 2,
        pluecker_linear_dim=n * (n - 1) // 2,
        pluecker_ambient_dim=(n - 2) * (n + 1) // 2,
    )
    if n >= 3 and h0_sigma(n, 1) != report.pluecker_linear_dim:
        raise AssertionError("h0(1) does not match the subsystem quotient dimension")
    return report


def catalan_degree(n: int) -> int:
    """Degree of the pencil-to-section projection from the Grassmannian of
    pencils: the Catalan number binomial(4n-2, 2n-1)/(2n)."""
    if n < 2:
        raise ValueError("requires n >= 2")
    num = math.comb(4 * n - 2, 2 * n - 1)
    if num % (2 * n):
        raise AssertionError("binomial(4n-2, 2n-1) is not divisible by 2n")
    return num // (2 * n)


def zero_locus_length(n: int) -> int:
    """Length of the zero locus of a section of the rank-two bundle: 2n."""
    if n < 2:
        raise ValueError("requires n >= 2")
    return 2 * n


def cover_degree_bound(n: int) -> tuple[int, int, bool]:
    """(degree-two cover, binomial(2n, n), divisibility check).

    The generically-finite morphism defined by the fixed class has degree
    2, which must divide binomial(2n, n), the degree of the section map
    it factors.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    total = math.comb(2 * n, n)
    return 2, total, total % 2 == 0
