"""Vectors, pairings and dense views of :mod:`k3invol.lattice` objects,
the Eichler transvections alpha is checked against, and the
Beauville-Bogomolov form of the Hilbert scheme, kept for the tests.

The package builds vectors only from {index: coordinate} dictionaries and
stores Gram matrices and maps by their nonzero entries.  The tests also
need vectors from coordinate lists or from the names of the Xi(n) basis
vectors, and the dense Gram matrix and map matrix their slow oracles
multiply.  The pairing and the transvection t(x, y) are written here from
their textbook formulas over the dense Gram matrix assembled from the
summands, independent of the sparse rows the package stores.
"""

from __future__ import annotations

from k3invol import lattice

# basis names of Xi(n) = build_xi(n): the three hyperbolic pairs and l
XI_INDEX = dict(
    u=lattice._IDX_U,
    v=lattice._IDX_V,
    u1=lattice._IDX_U1,
    v1=lattice._IDX_V1,
    u2=4,
    v2=5,
    l=lattice._IDX_ELL,
)


def element(lat, coords):
    """The element of ``lat`` with the coordinate list ``coords``."""
    return lattice.LatticeElement(lat, tuple(coords))


def basis(lat, j):
    """The basis vector e_j of ``lat``."""
    return lattice._element(lat, {j: 1})


def xi_vector(lat, **named):
    """The element of Xi(n) with the given coefficient of each named basis
    vector: ``xi_vector(lat, u=1, v=t, l=-2)`` is u + tv - 2l."""
    return lattice._element(lat, {XI_INDEX[k]: c for k, c in named.items()})


def dense_gram(lat):
    """Slow oracle: the block-diagonal Gram matrix assembled from the summands."""
    blocks = {lattice.U: ((0, 1), (1, 0)), lattice.E8_MINUS: lattice._e8_minus_gram()}
    g, off = [[0] * lat.rank for _ in range(lat.rank)], 0
    for s in lat.summands:
        block = blocks.get(s, ((s,),))
        for i, row in enumerate(block):
            g[off + i][off : off + len(row)] = row
        off += len(block)
    return tuple(tuple(row) for row in g)


def pair(x, y):
    """The pairing x^T G y of two elements of one lattice, G dense."""
    g = dense_gram(x.lattice)
    return sum(a * g[i][j] * b for i, a in enumerate(x.coords) for j, b in enumerate(y.coords))


def transvection(x, y):
    """The dense matrix, column j the image of e_j, of the Eichler transvection

        t(x, y): z -> z - (y, z) x + (x, z) y - (y, y)/2 (x, z) x

    for isotropic x and y orthogonal to x, which make it an isometry."""
    if pair(x, x) != 0:
        raise ValueError("t(x, y) requires (x, x) = 0")
    if pair(x, y) != 0:
        raise ValueError("t(x, y) requires (x, y) = 0")
    h = pair(y, y) // 2  # integral: the lattice is even
    g, xs, ys = dense_gram(x.lattice), x.coords, y.coords
    cols = []
    for row in g:  # G is symmetric: row j gives (x, e_j) and (y, e_j)
        xz = sum(a * b for a, b in zip(row, xs))
        yz = sum(a * b for a, b in zip(row, ys))
        cols.append([-yz * a + xz * b - h * xz * a for a, b in zip(xs, ys)])
    for j, col in enumerate(cols):
        col[j] += 1
    return tuple(zip(*cols))


def gram(lat):
    """The dense Gram matrix, read from the rows the lattice stores."""
    return tuple(tuple(row.get(j, 0) for j in range(lat.rank)) for row in lat.gram_rows)


def matrix(m):
    """The dense matrix of a LatticeMap: column j is the image of e_j."""
    r = m.lattice.rank
    cols = [m.moved.get(j, {j: 1}) for j in range(r)]
    return tuple(tuple(col.get(i, 0) for col in cols) for i in range(r))


def bb_form(n, c, d):
    """The Beauville-Bogomolov form diag(2t, -2(n-1)) of NS(S^[n]) on the
    classes X*H_n - 2tY*delta, given as (X, Y) as in ``kernel.mirror``.
    A Fraction Y = -b/(2t) reaches every class a*H_n + b*delta."""
    t = 4 * n - 3
    return 2 * t * (c[0] * d[0] - 4 * t * (n - 1) * c[1] * d[1])
