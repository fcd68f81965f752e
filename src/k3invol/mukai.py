"""Algebraic Mukai lattice of a Picard-rank-one K3 of degree 2t, t = 4n-3.

A Mukai vector (r, c, s) has first Chern class c*H with H^2 = 2t, so the
pairing of two vectors is

    ((r, c, s), (r', c', s')) = 2t*c*c' - r*s' - r'*s.

The module provides the distinguished vectors v, a, w, u and v^(i)
spanning the wall lattice of the Hilbert scheme, the stratification
bookkeeping of the indeterminacy locus, and two exhaustive integer
searches certifying that v^(i) admits no decomposition into positive
classes and no unexpected spherical class pairs against it.  On
span(v, a) both facts are theorems (proved in ``_decompositions`` and
``spherical_search``); the searches stay as their computational
cross-check, as the scan does for C_n = 1.  Each solves for y in exact
Python integers, one x at a time, over only the x where its region can
hold a class: x = 0 or 1 for a decomposition of v^(i), and |x| <= x_max
for the spherical window, where x_max = 1 if n = (i+2)(i+3), else 0.
So a search costs O(1) steps whatever the bound.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class MukaiVector(NamedTuple):
    r: int
    c: int
    s: int


class MukaiContext:
    """Fixes n >= 2; the polarization degree is 2t with t = 4n-3."""

    __slots__ = ("n", "t")

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("n must be at least 2")
        self.n = n
        self.t = 4 * n - 3


class StrataRow(NamedTuple):
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
    """v^(i) = v - (i+1)a = (2i+3, -(i+1), (2i+1)n - i); v^(-1) = v, v^(0) = w.

    The closed form is returned directly, without building v and a."""
    if i < -1:
        raise ValueError("i must be at least -1")
    return MukaiVector(2 * i + 3, -(i + 1), (2 * i + 1) * ctx.n - i)


def r_max(ctx: MukaiContext) -> int:
    """Largest i >= 0 with n >= (i+1)(i+2).

    (i+1)(i+2) <= n is (2i+3)^2 <= 4n+1, that is 2i+3 <= isqrt(4n+1); the
    context has n >= 2, so the answer is at least 0."""
    return (math.isqrt(4 * ctx.n + 1) - 3) // 2


def spherical_search(ctx: MukaiContext, i: int, bound: int) -> list[tuple[int, int]]:
    """All (x, y), |x|, |y| <= bound, with s = x*v + y*a spherical and
    0 < (s, v^(i)) <= (v^(i))^2 / 2.

    Sphericity s^2 = -2 is the hyperbola (n-1)x^2 + xy - y^2 = -1; for
    each x the y's are solved from the integer discriminant
    z^2 = (4n-3)x^2 + 4, which enumerates exactly the same pairs as a
    double loop over (x, y).

    Only |x| <= x_max can occur, so a call takes O(1) steps whatever the
    bound.  Write V = (v^(i))^2 (even and positive), l = (s, v^(i)) in
    [1, V/2] and m = (i+1)x + y, up to sign the determinant of the
    coordinates (x, y) of s and (1, -(i+1)) of v^(i).  The Gram matrix of
    v, a has determinant -t, so the Gram determinant of (s, v^(i)) is
    -2V - l^2 = -t*m^2, that is t*m^2 = l^2 + 2V <= (V^2 + 8V)/4, and
    |m| <= m_max = isqrt((V^2 + 8V) // 4t).  Substituting y = m - (i+1)x
    in l = (2n-i-3)x + (2i+3)y gives V*x = l - (2i+3)m, so
    |x| <= x_max = (V/2 + (2i+3)*m_max) // V.  Theorem: x_max = 1 if
    n = (i+2)(i+3), else 0.  As (2i+3)^2 = t - 2V, x_max >= 1 reads
    4(t - 2V)m_max^2 >= V^2; with 4t*m_max^2 <= V^2 + 8V that forces
    m_max = 1 and V^2 + 8V = 4t, i.e. 4n + 1 = ((V+4)/2)^2.  So n = k(k+1),
    V = 4k - 2 and k = i+2, hence 2i+3 = V/2 and x_max = 1.  At x = 0 and
    x = +-1 the roots y then give only ``expected_spherical_window``.
    """
    if i < -1:
        raise ValueError("i must be at least -1")
    if bound < 0:
        raise ValueError("bound must be at least 0")
    n, t = ctx.n, ctx.t
    vi_sq = 2 * n - 2 * (i + 1) * (i + 2) - 2  # the square of v_i(ctx, i)
    if vi_sq <= 0:
        raise ValueError("spherical window is empty or vacuous unless (v^(i))^2 > 0")
    m_max = math.isqrt((vi_sq * vi_sq + 8 * vi_sq) // (4 * t))
    x_max = min(bound, (vi_sq // 2 + (2 * i + 3) * m_max) // vi_sq)
    out = []
    for x in range(-x_max, x_max + 1):
        disc = t * x * x + 4
        z = math.isqrt(disc)
        if z * z != disc:
            continue
        # y^2 - xy - ((n-1)x^2 + 1) = 0  =>  2y = x +- z, two integer roots:
        # z >= 2 as disc >= 4, and z = x (mod 2) as t is odd
        for y in ((x + z) // 2, (x - z) // 2):
            if abs(y) > bound:
                continue
            pair = (2 * n - i - 3) * x + (2 * i + 3) * y
            if 0 < 2 * pair <= vi_sq:
                out.append((x, y))
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
) -> list[tuple[int, int]]:
    """(x, y), |x|, |y| <= bound, splitting v^(i) into w1 = x*v + y*a and
    w2 = v^(i) - w1, both of nonnegative square and positive pairing with v^(i).

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
    return _decompositions(ctx.n, 1, -(i + 1), bound)


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
        if lo <= hi:  # most x hold no pair
            out += [(x, y) for y in range(lo, hi + 1)]
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
        # k, vector, moduli_dim, codim_in_N, fiber_dim, dim_Jk, hom_rank
        rows.append(
            StrataRow(k, vk, moduli_dim, 2 * fiber, fiber, 2 * ctx.n - fiber, 2 * k + 3)
        )
    return rows
