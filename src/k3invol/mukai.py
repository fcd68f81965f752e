"""Algebraic Mukai lattice of a Picard-rank-one K3 of degree 2t, t = 4n-3.

A Mukai vector (r, c, s) has first Chern class c*H with H^2 = 2t, so the
pairing of two vectors is

    ((r, c, s), (r', c', s')) = 2t*c*c' - r*s' - r'*s.

The module provides the distinguished vectors v, a, w, u and v^(i)
spanning the wall lattice of the Hilbert scheme, the stratification
bookkeeping of the indeterminacy locus, and two exhaustive integer
searches certifying that v^(i) admits no decomposition into positive
classes and no unexpected spherical class pairs against it.  Both
searches solve for y in exact Python integers, one x at a time, so they
never wrap.  The spherical search walks x over the box |x|, |y| <= bound
in O(bound) steps; the decomposition search walks only the x between 0
and the target's x0, the whole searched region by construction, so for
v^(i) (x0 = 1) it visits two values of x whatever the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MukaiVector:
    r: int
    c: int
    s: int

    def __add__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r + other.r, self.c + other.c, self.s + other.s)

    def __sub__(self, other: "MukaiVector") -> "MukaiVector":
        return MukaiVector(self.r - other.r, self.c - other.c, self.s - other.s)

    def __neg__(self) -> "MukaiVector":
        return MukaiVector(-self.r, -self.c, -self.s)

    def __rmul__(self, k: int) -> "MukaiVector":
        return MukaiVector(k * self.r, k * self.c, k * self.s)

    def is_zero(self) -> bool:
        return self.r == 0 and self.c == 0 and self.s == 0


@dataclass(frozen=True)
class MukaiContext:
    """Fixes n >= 2; the polarization degree is 2t with t = 4n-3."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be at least 2")

    @property
    def t(self) -> int:
        return 4 * self.n - 3


@dataclass(frozen=True)
class StrataRow:
    """One stratum of the indeterminacy locus, indexed by the filtration depth k."""

    k: int
    vector: MukaiVector
    moduli_dim: int
    codim_in_N: int
    fiber_dim: int
    dim_Jk: int
    hom_rank: int  # chi-forced rank hom = 2k+3 on the open stratum


def mukai_pairing(ctx: MukaiContext, v1: MukaiVector, v2: MukaiVector) -> int:
    return 2 * ctx.t * v1.c * v2.c - v1.r * v2.s - v2.r * v1.s


def standard_vectors(
    ctx: MukaiContext,
) -> tuple[MukaiVector, MukaiVector, MukaiVector, MukaiVector]:
    """The vectors v, a, w = v - a, u with the standard Gram identities.

    v = (1, 0, -(n-1)) is the ideal-sheaf vector (v^2 = 2n-2),
    a = (-2, 1, -(2n-1)) is the spherical wall vector (a^2 = -2, (v,a) = 1),
    w = (3, -1, n) satisfies w^2 = 2n-6 and (a, w) = 3,
    u = (2, -1, 2(n-1)) is orthogonal to w with u^2 = 2.
    """
    n = ctx.n
    v = MukaiVector(1, 0, -(n - 1))
    a = MukaiVector(-2, 1, -(2 * n - 1))
    w = MukaiVector(3, -1, n)
    u = MukaiVector(2, -1, 2 * (n - 1))
    return v, a, w, u


def v_i(ctx: MukaiContext, i: int) -> MukaiVector:
    """v^(i) = v - (i+1)a = (2i+3, -(i+1), (2i+1)n - i); v^(-1) = v, v^(0) = w."""
    if i < -1:
        raise ValueError("i must be at least -1")
    v, a, _, _ = standard_vectors(ctx)
    return v - (i + 1) * a


def r_max(ctx: MukaiContext) -> int:
    """Largest i >= 0 with n >= (i+1)(i+2)."""
    if ctx.n < 2:
        raise ValueError("n must be at least 2")
    i = 0
    while (i + 2) * (i + 3) <= ctx.n:
        i += 1
    return i


def spherical_search(ctx: MukaiContext, i: int, bound: int) -> list[tuple[int, int]]:
    """All (x, y), |x|, |y| <= bound, with s = x*v + y*a spherical and
    0 < (s, v^(i)) <= (v^(i))^2 / 2.

    Sphericity s^2 = -2 is the hyperbola (n-1)x^2 + xy - y^2 = -1; for
    each x the y's are solved from the integer discriminant
    z^2 = (4n-3)x^2 + 4, which enumerates exactly the same pairs as a
    double loop over (x, y) but in O(bound) steps.
    """
    if i < -1:
        raise ValueError("i must be at least -1")
    if bound < 0:
        raise ValueError("bound must be at least 0")
    vi = v_i(ctx, i)
    vi_sq = mukai_pairing(ctx, vi, vi)
    if vi_sq <= 0:
        raise ValueError("spherical window is empty or vacuous unless (v^(i))^2 > 0")
    n, t = ctx.n, ctx.t
    out = set()
    for x in range(-bound, bound + 1):
        disc = t * x * x + 4
        z = math.isqrt(disc)
        if z * z != disc:
            continue
        for zz in (z, -z) if z else (0,):
            # y^2 - xy - ((n-1)x^2 + 1) = 0  =>  2y = x +- z
            if (x + zz) % 2:
                continue
            y = (x + zz) // 2
            if abs(y) > bound:
                continue
            pair = (2 * n - i - 3) * x + (2 * i + 3) * y
            if 0 < 2 * pair <= vi_sq:
                out.add((x, y))
    return sorted(out)


def expected_spherical_window(
    ctx: MukaiContext, i: int, bound: int
) -> set[tuple[int, int]]:
    """The (x, y) that ``spherical_search(ctx, i, bound)`` is expected to return.

    For s = x*v + y*a the pairing is (s, v^(i)) = (2n-i-3)x + (2i+3)y.

    * a = (0, 1) is spherical with (a, v^(i)) = 2i+3 > 0, so it lies in the
      window 0 < (s, v^(i)) <= (v^(i))^2 / 2 exactly when
      2(2i+3) <= (v^(i))^2, i.e. n >= (i+2)(i+3).
    * v^(i+1) = v - (i+2)a = (1, -(i+2)) has square
      2n - 2 - 2(i+2)(i+3), so it is spherical exactly when n = m(m+1) and
      i = m-2. Then (v^(i+1), v^(i)) = 2i+3 as for a, and
      (v^(i))^2 = 2(2i+3), so it sits on the upper edge of the window.

    The paper's claim is that no other spherical class lies in the window;
    ``lemmas`` certifies it by comparing the search against this set.
    Only classes in the searched box |x|, |y| <= bound are expected.
    """
    if i < -1:
        raise ValueError("i must be at least -1")
    vi = v_i(ctx, i)
    vi_sq = mukai_pairing(ctx, vi, vi)
    if vi_sq <= 0:
        raise ValueError("spherical window is empty or vacuous unless (v^(i))^2 > 0")
    n = ctx.n
    expected = set()
    if 2 * (2 * i + 3) <= vi_sq:
        expected.add((0, 1))
    if n == (i + 2) * (i + 3):
        expected.add((1, -(i + 2)))
    return {(x, y) for x, y in expected if abs(x) <= bound and abs(y) <= bound}


def positive_decomposition_search(
    ctx: MukaiContext, i: int, bound: int
) -> list[tuple[MukaiVector, MukaiVector]]:
    """All splittings v^(i) = w1 + w2 with w1 = x*v + y*a, |x|, |y| <= bound,
    both parts nonzero, of nonnegative square and positive pairing with v^(i).

    Expected empty whenever n >= (i+1)(i+2); a nonempty result would mean
    the flopping wall degenerates, so callers treat it as a finding.
    Pairs are listed by x ascending, then y.  A decomposition of
    v^(i) = 1*v - (i+1)*a has x = 0 or x = 1 (see ``_decompositions``),
    and each x cuts y to one interval in exact integers, so a call costs
    O(1 + output) steps and O(output) memory, whatever the bound.
    """
    if not 0 <= i:
        raise ValueError("i must be nonnegative")
    if bound < 0:
        raise ValueError("bound must be at least 0")
    if ctx.n < (i + 1) * (i + 2):
        raise ValueError("requires n >= (i+1)(i+2)")
    vi = v_i(ctx, i)
    v, a, _, _ = standard_vectors(ctx)
    found = []
    for x, y in _decompositions(ctx.n, 1, -(i + 1), bound):
        w1 = x * v + y * a
        found.append((w1, vi - w1))
    return found


def _decompositions(n: int, x0: int, y0: int, bound: int) -> list[tuple[int, int]]:
    """(x, y), |x|, |y| <= bound, splitting T = x0*v + y0*a into w1 = x*v + y*a
    and w2 = T - w1, both of nonnegative square and positive pairing with T.

    v^(i) is T = (1, -(i+1)); any target with q = x0 - 2*y0 > 0 gives a
    generalized problem with the same definitions.  (x*v + y*a)^2 =
    2(n-1)x^2 + 2xy - 2y^2 >= 0 reads (2y - x)^2 <= t*x^2 with t = 4n-3,
    and (w1, T) = p*x + q*y with p = 2(n-1)x0 + y0.  The cut
    1 <= (w1, T) <= T^2 - 1 also excludes w1 = 0 and w2 = 0.

    Only x between 0 and x0 can occur.  A class of nonnegative square
    pairing positively with T lies in the closed positive cone C, so w1
    lies in C and in T - C.  C is bounded by the isotropic directions
    (2, 1 +- sqrt(t)), so C meet (T - C) is the parallelogram with
    vertices 0, T, P and Q, where P and Q are the meeting points of the
    isotropic lines through 0 with those through T; their x-coordinates
    are x0/2 -+ q/(2 sqrt(t)).  The cut needs T^2 >= 2, and
    T^2 = (t*x0^2 - q^2)/2, so q < sqrt(t)*|x0|: both P and Q lie strictly
    between 0 and x0, and so does every x of the parallelogram.  A call
    therefore costs O(min(bound, |x0|) + output) steps.
    """
    t = 4 * n - 3
    p = 2 * (n - 1) * x0 + y0
    q = x0 - 2 * y0
    top = p * x0 + q * y0 - 1  # (w2, T) = T^2 - (w1, T) > 0
    out = []
    for x in range(max(-bound, min(0, x0)), min(bound, max(0, x0)) + 1):
        r1 = math.isqrt(t * x * x)  # w1^2 >= 0:  |2y - x| <= r1
        r2 = math.isqrt(t * (x0 - x) ** 2)  # w2^2 >= 0:  |2y - (x - q)| <= r2
        lo = max(-bound, -((r1 - x) // 2), -((r2 - x + q) // 2), -((p * x - 1) // q))
        hi = min(bound, (x + r1) // 2, (x - q + r2) // 2, (top - p * x) // q)
        out.extend((x, y) for y in range(lo, hi + 1))
    return out


def strata_table(ctx: MukaiContext) -> list[StrataRow]:
    """Rows k = 0 .. r_max of the indeterminacy-locus stratification.

    Stratum k sits at codimension 2(k+1)(k+2) in the contracted model,
    fibers over a moduli space of dimension (v^(k))^2 + 2 = 2n - 2(k+1)(k+2)
    with unirational fibers of dimension (k+1)(k+2), and has total
    dimension 2n - (k+1)(k+2).
    """
    rows = []
    for k in range(r_max(ctx) + 1):
        vk = v_i(ctx, k)
        moduli_dim = mukai_pairing(ctx, vk, vk) + 2
        fiber = (k + 1) * (k + 2)
        rows.append(
            StrataRow(
                k=k,
                vector=vk,
                moduli_dim=moduli_dim,
                codim_in_N=2 * fiber,
                fiber_dim=fiber,
                dim_Jk=2 * ctx.n - fiber,
                hom_rank=2 * k + 3,
            )
        )
    return rows
