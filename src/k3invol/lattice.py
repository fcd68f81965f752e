"""Even integer lattices, Eichler transvections, and the period-lattice check.

A lattice is an orthogonal sum of summands U, E8(-1) and rank-one <d>, and
is built only from that list; its Gram matrix is block diagonal.  U and
E8(-1) are unimodular, so the discriminant group L*/L comes from the
rank-one summands alone, and the discriminant check reads one column of
the map per summand <d>, modulo d.  Matrices are plain tuples of tuples
of Python ints (the largest lattice used has rank 23).  Gram matrices,
transvections and the period map have only a few nonzero entries per
row, and most vectors have only a few nonzero coordinates, so products
skip the zeros and stay exact.  A map is stored column-wise: the j-th
column is the image of the j-th basis vector, so maps act on coordinate
vectors by ordinary matrix-vector multiplication and compose by matrix
multiplication.  Nothing is cached: a caller of ``build_alpha(n)`` that
also needs Xi(n) reads it from ``alpha.lattice``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

# Negated Cartan matrix of E8 (Bourbaki node ordering: chain
# 1-3-4-5-6-7-8 with node 2 attached to node 4); unimodular, even,
# negative definite.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def _e8_minus_gram() -> tuple[tuple[int, ...], ...]:
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for i, j in _E8_EDGES:
        g[i - 1][j - 1] = 1
        g[j - 1][i - 1] = 1
    return tuple(tuple(row) for row in g)


E8_MINUS = "E8(-1)"
U = "U"
_BLOCKS = {U: ((0, 1), (1, 0)), E8_MINUS: _e8_minus_gram()}


@dataclass(frozen=True)
class IntegerLattice:
    """Even nondegenerate lattice, the orthogonal sum of ``summands``: each
    is "U", "E8(-1)" or a nonzero even integer d, meaning the rank-one
    lattice <d>.

    ``gram`` is the block-diagonal Gram matrix and ``rank_one`` lists
    (j, d) for each summand <d>, with j its basis index; both are derived
    from the summands, which are also what equality compares."""

    summands: tuple
    gram: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    rank_one: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        summands = tuple(self.summands)
        if not summands:
            raise ValueError("at least one summand is required")
        blocks, rank_one, rank = [], [], 0
        for s in summands:
            if isinstance(s, str) and s in _BLOCKS:
                blocks.append(_BLOCKS[s])
            elif isinstance(s, int):
                if s == 0:
                    raise ValueError("rank-one summands must be nonzero (nondegenerate)")
                rank_one.append((rank, s))
                blocks.append(((s,),))
            else:
                raise ValueError(f"unknown summand {s!r}")
            rank += len(blocks[-1])
        gram = [[0] * rank for _ in range(rank)]
        off = 0
        for b in blocks:
            for i, row in enumerate(b):
                gram[off + i][off : off + len(row)] = row
            off += len(b)
        for i in range(rank):
            if gram[i][i] % 2:
                raise ValueError("diagonal entries must be even (even lattice)")
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram must be symmetric")
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "gram", tuple(tuple(row) for row in gram))
        object.__setattr__(self, "rank_one", tuple(rank_one))

    @property
    def rank(self) -> int:
        return len(self.gram)

    def element(self, coords: Sequence[int]) -> "LatticeElement":
        return LatticeElement(self, tuple(int(c) for c in coords))

    def basis_element(self, j: int) -> "LatticeElement":
        coords = [0] * self.rank
        coords[j] = 1
        return self.element(coords)


@dataclass(frozen=True)
class LatticeElement:
    lattice: IntegerLattice
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.lattice.rank:
            raise ValueError("coordinate length does not match the rank")

    def pair(self, other: "LatticeElement") -> int:
        gy = _mat_vec(self.lattice.gram, other.coords)
        return sum(c * d for c, d in zip(self.coords, gy))

    def square(self) -> int:
        return self.pair(self)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        return LatticeElement(
            self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        return LatticeElement(
            self.lattice, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "LatticeElement":
        return LatticeElement(self.lattice, tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> "LatticeElement":
        return LatticeElement(self.lattice, tuple(k * a for a in self.coords))


@dataclass(frozen=True)
class LatticeMap:
    """Integer endomorphism; column j is the image of basis vector j."""

    lattice: IntegerLattice
    matrix: tuple[tuple[int, ...], ...]

    def apply(self, e: LatticeElement) -> LatticeElement:
        return LatticeElement(self.lattice, tuple(_mat_vec(self.matrix, e.coords)))

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other (rightmost acts first)."""
        return LatticeMap(self.lattice, _mat_mul(self.matrix, other.matrix))

    def is_isometry(self) -> bool:
        """Whether (M e_i, M e_j) = G_ij for all i, j.

        A column equal to e_i leaves basis vector i fixed, and a pair of
        fixed vectors keeps its pairing, so only pairs with a moved column
        are checked: against a fixed e_j the pairing (M e_i, e_j) is
        entry j of G M e_i, against a moved one it is a full dot product.
        The transvections of ``build_alpha`` and alpha itself move at most
        three of the 23 columns of Xi(n).
        """
        g = self.lattice.gram
        cols = tuple(zip(*self.matrix))
        moved = [i for i, c in enumerate(cols) if c != _unit(len(cols), i)]
        fixed = [j for j in range(len(cols)) if j not in moved]
        for i in moved:
            g_i, gm_i = g[i], _mat_vec(g, cols[i])  # entry j: (M e_i, e_j)
            if any(gm_i[j] != g_i[j] for j in fixed):
                return False
            for j in moved:
                if sum(a * b for a, b in zip(gm_i, cols[j])) != g_i[j]:
                    return False
        return True


def transvection(x: LatticeElement, y: LatticeElement) -> LatticeMap:
    """Eichler transvection t(x, y): z -> z - (y,z)x + (x,z)y - (y,y)/2 (x,z)x.

    Defined for isotropic x and y orthogonal to x; under these hypotheses
    the map is always Gram-preserving (checked on construction)."""
    lat = x.lattice
    if lat is not y.lattice and lat != y.lattice:
        raise ValueError("x and y must live in the same lattice")
    if x.square() != 0:
        raise ValueError("t(x, y) requires (x, x) = 0")
    if x.pair(y) != 0:
        raise ValueError("t(x, y) requires (x, y) = 0")
    gx = _mat_vec(lat.gram, x.coords)
    gy = _mat_vec(lat.gram, y.coords)
    h = y.square() // 2  # integral: the lattice is even
    # entry (i, j) is coordinate i of t(e_j), with (x, e_j) = gx[j], (y, e_j) = gy[j];
    # row i is that of the identity unless x or y has a coordinate i
    m = []
    for i, (xi, yi) in enumerate(zip(x.coords, y.coords)):
        row = [0] * lat.rank
        row[i] = 1
        if xi or yi:
            row = [e - b * xi + a * (yi - h * xi) for e, a, b in zip(row, gx, gy)]
        m.append(tuple(row))
    out = LatticeMap(lat, tuple(m))
    if not out.is_isometry():
        raise AssertionError("transvection failed the Gram check")
    return out


# ---------------------------------------------------------------------------
# The period lattice Xi(n) = U^3 + E8(-1)^2 + <-2(n-1)> and its basis
# (u, v, u1, v1, u2, v2, e8 block, e8 block, l).

_IDX_U, _IDX_V, _IDX_U1, _IDX_V1 = 0, 1, 2, 3
_IDX_ELL = 22


def build_xi(n: int) -> IntegerLattice:
    if n < 2:
        raise ValueError("n must be at least 2")
    return IntegerLattice((U, U, U, E8_MINUS, E8_MINUS, -2 * (n - 1)))


def xi_basis(lat: IntegerLattice) -> dict[str, LatticeElement]:
    """Named generators of the lattice Xi(n) = build_xi(n): the three
    hyperbolic pairs and l."""
    names = {
        "u": _IDX_U,
        "v": _IDX_V,
        "u1": _IDX_U1,
        "v1": _IDX_V1,
        "u2": 4,
        "v2": 5,
        "l": _IDX_ELL,
    }
    return {k: lat.basis_element(i) for k, i in names.items()}


def build_alpha(n: int) -> LatticeMap:
    """The isometry of Xi(n) moving the degree-2 marked class onto u + v.

    With w' = (u + tv - 2l) - (u + v) = (t-1)v - 2l, the map is the
    composition t(u1, -v) o t(v1, w') o t(u1, v) (rightmost first).  Its
    two defining images are verified on construction:

        alpha(u + t*v - 2*l)           = u + v
        alpha(2(n-1)(u + t*v) - t*l)   = 2(n-1)(u - v) + 4(n-1)*v1 - l

    The second input is the integral generator of the orthogonal
    complement of the marked class inside the rank-two algebraic part,
    transported through the same marking (H_n -> u + tv, delta -> l).
    """
    t = 4 * n - 3
    b = xi_basis(build_xi(n))
    u, v, u1, v1, ell = b["u"], b["v"], b["u1"], b["v1"], b["l"]
    w_prime = (t - 1) * v - 2 * ell
    alpha = (
        transvection(u1, -v)
        .compose(transvection(v1, w_prime))
        .compose(transvection(u1, v))
    )
    got = alpha.apply(u + t * v - 2 * ell)
    if got != u + v:
        raise AssertionError("alpha does not send u + tv - 2l to u + v")
    kappa = 2 * (n - 1) * (u - v) + 4 * (n - 1) * v1 - ell
    got = alpha.apply(2 * (n - 1) * (u + t * v) - t * ell)
    if got != kappa:
        raise AssertionError("alpha does not send 2(n-1)(u+tv) - tl to kappa")
    return alpha


def divisibility(e: LatticeElement) -> int:
    """Positive generator of the ideal {(e, z) : z in the lattice}."""
    if e.is_zero():
        raise ValueError("divisibility of the zero vector is undefined")
    return math.gcd(*_mat_vec(e.lattice.gram, e.coords))


def acts_trivially_on_discriminant(m: LatticeMap) -> bool:
    """Whether m fixes every dual vector modulo the integral lattice.

    In coordinates, z lies in the dual L* exactly when G z is integral,
    so L* = G^-1 Z^r.  G is block diagonal, so G^-1 is too: the inverse
    of a unimodular block (U, E8(-1)) is an integer matrix, and the
    inverse of a block <d> at index j is 1/d.  Hence L* = L + sum_j Z e_j/d,
    and L*/L is the direct sum of the cyclic groups of order |d| generated
    by e_j/d, one per rank-one summand (d != 0 is what makes L
    nondegenerate).  An isometry maps L* onto itself, so it fixes L*/L
    pointwise exactly when it fixes each generator: (M - I) e_j/d lies in
    L, i.e. column j of M - I is == 0 (mod d).  For Xi(n) that is the
    column of l, modulo 2(n-1).
    """
    if not m.is_isometry():
        raise ValueError("the map must be an isometry")
    return all(
        (row[j] - (i == j)) % d == 0
        for j, d in m.lattice.rank_one
        for i, row in enumerate(m.matrix)
    )


# ---------------------------------------------------------------------------
# small exact-matrix helpers


def _mat_mul(a, b):
    """a * b, with row i the sum of a_ik * (row k of b) over the nonzero
    a_ik, and each row of b read at its nonzero entries only."""
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, b_row in zip(row, b_nonzero):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def _mat_vec(m, v) -> list[int]:
    """m * v, the sum of v_j * (column j of m) over the nonzero v_j alone."""
    acc = [0] * len(m)
    for j, c in enumerate(v):
        if c:
            acc = [s + c * row[j] for s, row in zip(acc, m)]
    return acc


@cache
def _unit(rank: int, i: int) -> tuple[int, ...]:
    """Basis vector e_i of Z^rank, the i-th column of the identity."""
    return tuple(int(k == i) for k in range(rank))
