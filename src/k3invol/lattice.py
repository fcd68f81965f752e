"""The isometry alpha of the period lattice, checked on the summand it moves.

The period lattice is the orthogonal sum Xi(n) = L5 + L18 with

    L5  = U + U + <-2(n-1)>,  basis u, v, u1, v1, l,
    L18 = U + E8(-1) + E8(-1), basis u2, v2 and the two E8 blocks,

where U is the hyperbolic plane.  With M = 4(n-1), alpha is

    alpha(u)  = u + M v - 2M v1 + 2l
    alpha(u1) = u1 + M v1 - 2l
    alpha(l)  = l + M v - M v1,

fixing every other basis vector.  All three images lie in L5, so
alpha = alpha5 + id, and both of its checks are alpha5's:

* alpha preserves the pairing exactly when alpha5 does, because the
  identity preserves L18 and L5 stays orthogonal to it;
* L18 is unimodular, so the discriminant group is
  Xi*/Xi = L5*/L5 = Z/2(n-1), generated by l/2(n-1) (Nikulin 1979), and
  alpha acts trivially on it exactly when alpha5 does.

So this module works on the five coordinates (u, v, u1, v1, l) of L5,
with plain Python ints, and pads to the 23 coordinates of Xi(n) only to
print.  The dense rank-23 Gram matrix, E8 included, and the product of
the three Eichler transvections that alpha is are the test oracles.
"""

from __future__ import annotations

from operator import mul

# the basis e_0..e_4 = u, v, u1, v1, l of L5
_BASIS = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


def _pair(n: int, x, y) -> int:
    """(x, y) on L5 block by block: the planes (u, v) and (u1, v1), then <-2(n-1)>."""
    return x[0] * y[1] + x[1] * y[0] + x[2] * y[3] + x[3] * y[2] - 2 * (n - 1) * x[4] * y[4]


class LatticeMap:
    """An integer endomorphism of L5(n), extended by the identity on L18:
    ``columns[j]`` is the image of e_j."""

    __slots__ = ("n", "columns")

    def __init__(self, n: int, columns):
        self.n, self.columns = n, columns

    def apply(self, x: tuple) -> tuple:
        """The image of the L5 vector x, as its five coordinates."""
        return tuple([sum(map(mul, x, row)) for row in zip(*self.columns)])

    def is_isometry(self) -> bool:
        """Whether (M e_i, M e_j) = (e_i, e_j) for every pair i <= j.

        Row by row, the upper triangle of L5's Gram matrix in the basis
        u, v, u1, v1, l is 1 at (u, v) and (u1, v1), -2(n-1) at (l, l),
        and 0 elsewhere."""
        n, cols = self.n, self.columns
        upper = [_pair(n, x, y) for i, x in enumerate(cols) for y in cols[i:]]
        return upper == [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, -2 * (n - 1)]


def xi_coords(x: tuple) -> tuple:
    """The 23 coordinates in Xi(n), basis u, v, u1, v1, u2, v2, E8, E8, l,
    of the L5 vector x: its L18 coordinates are 0."""
    return (*x[:4], *(0,) * 18, x[4])


def build_alpha(n: int) -> tuple[LatticeMap, tuple, tuple]:
    """The isometry alpha5 of L5(n) moving the degree-2 marked class onto
    u + v, returned as (alpha5, u + v, kappa) with the two images below.

    Its two defining images are verified on construction.  With
    m = 2(n-1) = M/2, so that t - M = 1 and m(2m - t) = -m, expanding
    along the three moved columns gives

        alpha(u + tv - 2l)    = u + (t - M) v = u + v
        alpha(m(u + tv) - tl) = m(u - v) + 2m v1 - l = kappa.

    The second input is the integral generator of the orthogonal
    complement of the marked class inside the rank-two algebraic part,
    transported through the same marking (H_n -> u + tv, delta -> l).
    ``acts_trivially_on_discriminant(alpha)`` checks that alpha is an
    isometry and fixes the discriminant group.  Alpha is the product
    t(u1, -v) t(v1, (t-1)v - 2l) t(u1, v) of Eichler transvections
    (rightmost first); that dense product, in the tests, is its oracle.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    t, m, M = 4 * n - 3, 2 * (n - 1), 4 * (n - 1)
    alpha = LatticeMap(
        n,
        (
            (1, M, 0, -2 * M, 2),  # u
            _BASIS[1],  # v
            (0, 0, 1, M, -2),  # u1
            _BASIS[3],  # v1
            (0, M, 0, -M, 1),  # l
        ),
    )
    fixed = alpha.apply((1, t, 0, 0, -2))
    if fixed != (1, 1, 0, 0, 0):
        raise AssertionError("alpha does not send u + tv - 2l to u + v")
    kappa = alpha.apply((m, m * t, 0, 0, -t))
    if kappa != (m, -m, 0, 2 * m, -1):
        raise AssertionError("alpha does not send 2(n-1)(u+tv) - tl to kappa")
    return alpha, fixed, kappa


def acts_trivially_on_discriminant(m: LatticeMap) -> bool:
    """Whether m fixes every dual vector modulo the integral lattice.

    The Gram matrix of L5 is block diagonal: two unimodular U blocks and
    <-2(n-1)>.  So L5* = L5 + Z l/2(n-1), and the discriminant group is
    cyclic of order 2(n-1), generated by l/2(n-1).  An isometry maps L5*
    onto itself, so it fixes L5*/L5 pointwise exactly when it fixes that
    generator: (M - I) l/2(n-1) lies in L5, i.e. the column of l in
    M - I is 0 modulo 2(n-1).
    """
    if not m.is_isometry():
        raise ValueError("the map must be an isometry")
    d = 2 * (m.n - 1)
    return all((x - e) % d == 0 for x, e in zip(m.columns[4], _BASIS[4]))
