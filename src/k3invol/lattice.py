"""Even integer lattices, Eichler transvections, and the period-lattice check.

Matrices are plain tuples of tuples of Python ints (the largest lattice
used has rank 23).  Gram matrices, transvections and the period map have
only a few nonzero entries per row, so a matrix product, still exact,
builds each row from the nonzero entries of the left factor alone.  A
map is stored column-wise: the j-th column is the image of the j-th
basis vector, so maps act on coordinate vectors by ordinary
matrix-vector multiplication and compose by matrix multiplication.
Dual-lattice arithmetic stays in integers: one fraction-free elimination
gives det G and the adjugate det(G) * G^-1, and the discriminant check
compares M * adj with adj modulo det G.  Nothing is cached: a caller of
``build_alpha(n)`` that also needs Xi(n) reads it from ``alpha.lattice``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class IntegerLattice:
    """Even nondegenerate lattice given by its Gram matrix.

    ``det`` and ``adjugate`` (det * gram^-1, an integer matrix) come from
    one elimination, run once when the lattice is built."""

    gram: tuple[tuple[int, ...], ...]
    det: int = field(init=False, compare=False)
    adjugate: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g = self.gram
        r = len(g)
        if r == 0 or any(len(row) != r for row in g):
            raise ValueError("gram must be square and nonempty")
        for i in range(r):
            if g[i][i] % 2:
                raise ValueError("diagonal entries must be even (even lattice)")
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram must be symmetric")
        det, adj = _adjugate(g)
        if det == 0:
            raise ValueError("gram must be nondegenerate")
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "adjugate", adj)

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
        g = self.lattice.gram
        m = self.matrix
        return _mat_mul(tuple(zip(*m)), _mat_mul(g, m)) == tuple(
            tuple(row) for row in g
        )


def build_lattice(summands: Iterable) -> IntegerLattice:
    """Block-diagonal lattice from summands "U", "E8(-1)" or an even integer d
    (meaning the rank-one lattice <d>)."""
    blocks = []
    for s in summands:
        if s == U:
            blocks.append(((0, 1), (1, 0)))
        elif s == E8_MINUS:
            blocks.append(_e8_minus_gram())
        elif isinstance(s, int):
            if s % 2:
                raise ValueError("rank-one summands must have even degree")
            blocks.append(((s,),))
        else:
            raise ValueError(f"unknown summand {s!r}")
    if not blocks:
        raise ValueError("at least one summand is required")
    rank = sum(len(b) for b in blocks)
    gram = [[0] * rank for _ in range(rank)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, entry in enumerate(row):
                gram[off + i][off + j] = entry
        off += len(b)
    return IntegerLattice(tuple(tuple(row) for row in gram))


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
    # entry (i, j) is coordinate i of t(e_j), with (x, e_j) = gx[j], (y, e_j) = gy[j]
    m = tuple(
        tuple(int(i == j) - gy[j] * xi + gx[j] * (yi - h * xi) for j in range(lat.rank))
        for i, (xi, yi) in enumerate(zip(x.coords, y.coords))
    )
    out = LatticeMap(lat, m)
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
    return build_lattice([U, U, U, E8_MINUS, E8_MINUS, -2 * (n - 1)])


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

    In coordinates, z lies in the dual L* exactly when G z is integral, so
    L* = G^-1 Z^r is generated by the columns of G^-1.  An isometry maps L*
    onto itself, and it fixes L*/L pointwise exactly when (M - I) G^-1 is an
    integer matrix.  With d = det G and adj = d G^-1 (an integer matrix)
    that reads (M - I) adj == 0 (mod d), i.e. M adj == adj entrywise mod d.
    """
    if not m.is_isometry():
        raise ValueError("the map must be an isometry")
    d, adj = m.lattice.det, m.lattice.adjugate
    return all(
        (x - y) % d == 0
        for moved, row in zip(_mat_mul(m.matrix, adj), adj)
        for x, y in zip(moved, row)
    )


# ---------------------------------------------------------------------------
# small exact-matrix helpers


def _mat_mul(a, b):
    """a * b, with row i the sum of a_ik * (row k of b) over the nonzero a_ik."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, b_row in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def _mat_vec(m, v) -> list[int]:
    return [sum(a * c for a, c in zip(row, v)) for row in m]


def _adjugate(g) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """(det g, adj g) of a square integer matrix, adj g = det(g) * g^-1.

    Bareiss (fraction-free) Gauss-Jordan elimination on [g | I]: at step
    k every row i != k becomes (p_k * row_i - a_ik * row_k) / p_(k-1),
    with p_k the k-th pivot.  The division is exact (each entry is a minor
    of the augmented matrix), so all entries stay integers.  Row swaps in
    the pivot search amount to starting from [P g | P]; the elimination
    ends at [d I | R] with d = det(P g) = sign(P) det g, and the row
    operations E with E P g = d I give R = E P = d g^-1.  Returns
    (0, None) for a singular g.
    """
    n = len(g)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)
