"""The dense rank-23 period lattice, the Eichler transvections alpha is
checked against, and the Beauville-Bogomolov form of the Hilbert scheme,
kept for the tests.

:mod:`k3invol.lattice` works on the five coordinates (u, v, u1, v1, l) of
the summand L5 = U + U + <-2(n-1)> that alpha moves.  The oracles here
know nothing of that split: they assemble the dense Gram matrix of an
orthogonal sum of U, E8(-1) and rank-one summands, Xi(n) included, and
write the pairing and the transvection t(x, y) from their textbook
formulas over it.  ``padded_matrix`` is the one bridge, the dense 23 x 23
matrix of alpha5 + id.
"""

from __future__ import annotations

from k3invol import lattice

U, E8_MINUS = "U", "E8(-1)"

# Negated Cartan matrix of E8 (Bourbaki node ordering: chain
# 1-3-4-5-6-7-8 with node 2 attached to node 4); unimodular, even,
# negative definite.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def e8_minus_gram():
    g = [[-2 * (i == j) for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        g[i - 1][j - 1] = g[j - 1][i - 1] = 1
    return g


def dense_gram(summands):
    """The block-diagonal Gram matrix of the orthogonal sum of ``summands``:
    each is U, E8_MINUS or an even integer d, the rank-one lattice <d>."""
    blocks = [{U: ((0, 1), (1, 0)), E8_MINUS: e8_minus_gram()}.get(s, ((s,),)) for s in summands]
    rank = sum(len(b) for b in blocks)
    g, off = [[0] * rank for _ in range(rank)], 0
    for block in blocks:
        for i, row in enumerate(block):
            g[off + i][off : off + len(row)] = row
        off += len(block)
    return tuple(tuple(row) for row in g)


def xi_gram(n):
    """The dense Gram matrix of Xi(n) = U^3 + E8(-1)^2 + <-2(n-1)>."""
    return dense_gram((U, U, U, E8_MINUS, E8_MINUS, -2 * (n - 1)))


def l5_summands(n):
    """L5(n) = U + U + <-2(n-1)>, the summand of Xi(n) that alpha moves."""
    return (U, U, -2 * (n - 1))


def l5_gram(n):
    return dense_gram(l5_summands(n))


# basis names of Xi(n): the three hyperbolic pairs and l; the first four
# and l also name the basis of L5
XI_INDEX = dict(u=0, v=1, u1=2, v1=3, u2=4, v2=5, l=22)
L5_INDEX = dict(u=0, v=1, u1=2, v1=3, l=4)
L5_IN_XI = (0, 1, 2, 3, 22)


def l5_vector(**named):
    """The L5 vector with the given coefficient of each named basis vector:
    ``l5_vector(u=1, v=t, l=-2)`` is u + tv - 2l."""
    out = [0] * 5
    for k, c in named.items():
        out[L5_INDEX[k]] = c
    return tuple(out)


def xi_vector(**named):
    """The Xi(n) coordinate list with the given coefficient of each named basis vector."""
    out = [0] * 23
    for k, c in named.items():
        out[XI_INDEX[k]] = c
    return out


def identity(rank):
    return tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))


def pair(g, x, y):
    """The pairing x^T G y, G dense."""
    return sum(a * g[i][j] * b for i, a in enumerate(x) for j, b in enumerate(y))


def transvection(g, xs, ys):
    """The dense matrix, column j the image of e_j, of the Eichler transvection

        t(x, y): z -> z - (y, z) x + (x, z) y - (y, y)/2 (x, z) x

    for isotropic x and y orthogonal to x, which make it an isometry."""
    if pair(g, xs, xs) != 0:
        raise ValueError("t(x, y) requires (x, x) = 0")
    if pair(g, xs, ys) != 0:
        raise ValueError("t(x, y) requires (x, y) = 0")
    h = pair(g, ys, ys) // 2  # integral: the lattice is even
    cols = []
    for row in g:  # G is symmetric: row j gives (x, e_j) and (y, e_j)
        xz = sum(a * b for a, b in zip(row, xs))
        yz = sum(a * b for a, b in zip(row, ys))
        cols.append([-yz * a + xz * b - h * xz * a for a, b in zip(xs, ys)])
    for j, col in enumerate(cols):
        col[j] += 1
    return tuple(zip(*cols))


def padded_matrix(m):
    """The dense 23 x 23 matrix, column j the image of e_j, of m + id on
    Xi(n) = L5 + L18."""
    cols = [list(col) for col in identity(23)]
    for k, j in enumerate(L5_IN_XI):
        cols[j] = lattice.xi_coords(m.columns[k])
    return tuple(zip(*cols))


def l5_map(n, mat):
    """The LatticeMap of a dense L5 matrix, column j the image of e_j."""
    return lattice.LatticeMap(n, tuple(zip(*mat)))


def l5_matrix(m):
    """The dense 5 x 5 matrix of a LatticeMap: column j is the image of e_j."""
    return tuple(zip(*m.columns))


def bb_form(n, c, d):
    """The Beauville-Bogomolov form diag(2t, -2(n-1)) of NS(S^[n]) on the
    classes X*H_n - 2tY*delta, given as (X, Y) as in ``kernel.mirror``.
    A Fraction Y = -b/(2t) reaches every class a*H_n + b*delta."""
    t = 4 * n - 3
    return 2 * t * (c[0] * d[0] - 4 * t * (n - 1) * c[1] * d[1])
