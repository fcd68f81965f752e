"""Vectors, pairings and dense views of :mod:`k3invol.lattice` objects,
kept for the tests, and the Beauville-Bogomolov form of the Hilbert scheme.

The package builds vectors only from {index: coordinate} dictionaries and
stores Gram matrices and maps by their nonzero entries.  The tests also
need vectors from coordinate lists or from the names of the Xi(n) basis
vectors, the pairing, the transvection t(x, y) of two vectors, and the
dense Gram matrix and map matrix their slow oracles multiply.  Each is a
thin layer on ``lattice._element``, ``lattice._transvection`` and the
nonzeros the package stores.
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


def pair(x, y):
    """The pairing (x, y) of two elements of one lattice."""
    nonzero = lattice._nonzero
    return lattice._dot(nonzero(x.coords), x.lattice.gram_product(nonzero(y.coords)))


def transvection(x, y):
    """The Eichler transvection t(x, y) of two elements of one lattice."""
    nonzero = lattice._nonzero
    return lattice._transvection(x.lattice, nonzero(x.coords), nonzero(y.coords))


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
