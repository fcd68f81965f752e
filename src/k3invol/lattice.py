"""Even integer lattices, Eichler transvections, and the period-lattice check.

A lattice is an orthogonal sum of summands U, E8(-1) and rank-one <d>, and
is built only from that list; its Gram matrix is block diagonal.  U and
E8(-1) are unimodular, so the discriminant group L*/L comes from the
rank-one summands alone, and the discriminant check reads one column of
the map per summand <d>, modulo d.  Entries are plain Python ints, so
all arithmetic is exact (the largest lattice used has rank 23).

Everything is stored by its nonzero entries: row i of a Gram matrix as
{j: G_ij}, taken from the blocks, and a map as the identity plus its
moved columns {j: image of e_j}, kept only where the image is not e_j.
Alpha and the transvections it is built from move at most five of the
23 basis vectors (u, v, u1, v1, l), so composing, applying and checking
a map costs O(moved columns x nonzeros), not O(rank^2).  The dense
``gram`` and ``matrix`` are read-only views for test oracles.  Nothing
is cached: ``build_alpha(n)`` returns alpha together with the images of
its two defining inputs, which it has just checked, and a caller that
also needs Xi(n) reads it from ``alpha.lattice``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import add, neg, sub
from typing import Sequence

# Negated Cartan matrix of E8 (Bourbaki node ordering: chain
# 1-3-4-5-6-7-8 with node 2 attached to node 4); unimodular, even,
# negative definite.
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))


def _e8_minus_gram() -> list[list[int]]:
    g = [[-2 * (i == j) for j in range(8)] for i in range(8)]
    for i, j in _E8_EDGES:
        g[i - 1][j - 1] = g[j - 1][i - 1] = 1
    return g


def _block_rows(block) -> list[dict[int, int]]:
    """A Gram block's rows as {j: entry} over the nonzeros.  A block-diagonal matrix
    is symmetric with even diagonal exactly when each block is, so each is checked."""
    for i, row in enumerate(block):
        if row[i] % 2:
            raise ValueError("diagonal entries must be even (even lattice)")
        if any(row[j] != block[j][i] for j in range(i)):
            raise ValueError("gram must be symmetric")
    return [{j: g for j, g in enumerate(row) if g} for row in block]


U, E8_MINUS = "U", "E8(-1)"
_BLOCK_ROWS = {U: _block_rows(((0, 1), (1, 0))), E8_MINUS: _block_rows(_e8_minus_gram())}


@dataclass(frozen=True)
class IntegerLattice:
    """Even nondegenerate lattice, the orthogonal sum of ``summands``: each is
    "U", "E8(-1)" or a nonzero even integer d, meaning the rank-one lattice <d>.

    ``gram_rows`` holds row i of the block-diagonal Gram matrix as {j: G_ij}
    over its nonzeros, and ``rank_one`` lists (j, d) for each summand <d>, with
    j its basis index; both derive from the summands, which equality compares."""

    summands: tuple
    gram_rows: tuple[dict[int, int], ...] = field(init=False, repr=False, compare=False)
    rank_one: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        summands = tuple(self.summands)
        if not summands:
            raise ValueError("at least one summand is required")
        rows, rank_one = [], []
        for s in summands:
            if isinstance(s, str) and s in _BLOCK_ROWS:
                block = _BLOCK_ROWS[s]
            elif isinstance(s, int):
                if s == 0:
                    raise ValueError("rank-one summands must be nonzero (nondegenerate)")
                rank_one.append((len(rows), s))
                block = _block_rows(((s,),))
            else:
                raise ValueError(f"unknown summand {s!r}")
            off = len(rows)
            rows += ({off + j: g for j, g in row.items()} for row in block)
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "gram_rows", tuple(rows))
        object.__setattr__(self, "rank_one", tuple(rank_one))

    @property
    def rank(self) -> int:
        return len(self.gram_rows)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The dense Gram matrix, a read-only view for test oracles."""
        return tuple(tuple(row.get(j, 0) for j in range(self.rank)) for row in self.gram_rows)

    def gram_product(self, vec: dict[int, int]) -> dict[int, int]:
        """G v from {j: v_j} over the nonzero v_j, as {i: (G v)_i} over the rows
        i that meet v (some may be 0); G is symmetric, so column j is row j."""
        out: dict[int, int] = {}
        for j, c in vec.items():
            for i, g in self.gram_rows[j].items():
                out[i] = out.get(i, 0) + c * g
        return out

    def element(self, coords: Sequence[int]) -> "LatticeElement":
        return LatticeElement(self, tuple(map(int, coords)))

    def basis_element(self, j: int) -> "LatticeElement":
        coords = [0] * self.rank
        coords[j] = 1
        return LatticeElement(self, tuple(coords))


@dataclass(frozen=True)
class LatticeElement:
    lattice: IntegerLattice
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.lattice.rank:
            raise ValueError("coordinate length does not match the rank")

    def pair(self, other: "LatticeElement") -> int:
        return _dot(_nonzero(self.coords), self.lattice.gram_product(_nonzero(other.coords)))

    def square(self) -> int:
        return self.pair(self)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "LatticeElement") -> "LatticeElement":
        return LatticeElement(self.lattice, tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "LatticeElement") -> "LatticeElement":
        return LatticeElement(self.lattice, tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "LatticeElement":
        return LatticeElement(self.lattice, tuple(map(neg, self.coords)))

    def __rmul__(self, k: int) -> "LatticeElement":
        return LatticeElement(self.lattice, tuple([k * a for a in self.coords]))


@dataclass(frozen=True)
class LatticeMap:
    """Integer endomorphism: the identity except on ``moved``, which maps each
    j with M e_j != e_j to M e_j, given as {i: coordinate} over its nonzeros."""

    lattice: IntegerLattice
    moved: dict[int, dict[int, int]]

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """Dense view for test oracles: column j is the image of e_j."""
        r = self.lattice.rank
        cols = [self.moved.get(j, {j: 1}) for j in range(r)]
        return tuple(tuple(col.get(i, 0) for col in cols) for i in range(r))

    def _push(self, vec: dict[int, int]) -> dict[int, int]:
        """M v by nonzero entries: v + v_j (M e_j - e_j) over moved j with v_j != 0."""
        out = dict(vec)
        for j, c in vec.items():
            col = self.moved.get(j)
            if col is not None:
                out[j] -= c
                for i, x in col.items():
                    out[i] = out.get(i, 0) + c * x
        return {i: x for i, x in out.items() if x}

    def apply(self, e: LatticeElement) -> LatticeElement:
        image, r = self._push(_nonzero(e.coords)), self.lattice.rank
        return LatticeElement(self.lattice, tuple(image.get(i, 0) for i in range(r)))

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        """self after other: the moved columns of other pushed through self, those of
        self where other fixes e_j, and none that comes back to e_j."""
        moved = {j: col for j, col in self.moved.items() if j not in other.moved}
        for j, col in other.moved.items():
            image = self._push(col)
            if image != {j: 1}:
                moved[j] = image
        return LatticeMap(self.lattice, moved)

    def is_isometry(self) -> bool:
        """Whether (M e_i, M e_j) = G_ij for all i, j.

        A pair of fixed basis vectors keeps its pairing, so only pairs
        with a moved e_i are checked: against a fixed e_j the pairing
        (M e_i, e_j) is entry j of G M e_i, which must equal G_ij (both
        vanish outside the rows met by M e_i and row i of G), and against
        a moved e_j it is a dot product over the nonzeros of M e_j.
        """
        moved = self.moved
        for i, col in moved.items():
            g_i, gm_i = self.lattice.gram_rows[i], self.lattice.gram_product(col)
            for j in gm_i.keys() | g_i.keys():
                if j not in moved and gm_i.get(j, 0) != g_i.get(j, 0):
                    return False
            for j, col_j in moved.items():
                if _dot(col_j, gm_i) != g_i.get(j, 0):
                    return False
        return True


def transvection(x: LatticeElement, y: LatticeElement) -> LatticeMap:
    """Eichler transvection t(x, y): z -> z - (y,z)x + (x,z)y - (y,y)/2 (x,z)x.

    Defined for isotropic x and y orthogonal to x; under these hypotheses
    the map is always Gram-preserving (checked on construction)."""
    lat = x.lattice
    if lat is not y.lattice and lat != y.lattice:
        raise ValueError("x and y must live in the same lattice")
    xs, ys = _nonzero(x.coords), _nonzero(y.coords)
    gx, gy = lat.gram_product(xs), lat.gram_product(ys)  # entry j: (x, e_j), (y, e_j)
    if _dot(xs, gx) != 0:
        raise ValueError("t(x, y) requires (x, x) = 0")
    if _dot(ys, gx) != 0:
        raise ValueError("t(x, y) requires (x, y) = 0")
    h = _dot(ys, gy) // 2  # integral: the lattice is even
    # t(e_j) = e_j + (x, e_j) y - ((y, e_j) + h (x, e_j)) x, so e_j is
    # fixed unless (x, e_j) or (y, e_j) is nonzero
    moved = {}
    for j in gx.keys() | gy.keys():
        a, b = gx.get(j, 0), gy.get(j, 0)
        col = {j: 1}
        for vec, k in ((ys, a), (xs, -b - h * a)):
            for i, c in vec.items():
                col[i] = col.get(i, 0) + k * c
        col = {i: c for i, c in col.items() if c}
        if col != {j: 1}:
            moved[j] = col
    out = LatticeMap(lat, moved)
    if not out.is_isometry():
        raise AssertionError("transvection failed the Gram check")
    return out


# ---------------------------------------------------------------------------
# The period lattice Xi(n) = U^3 + E8(-1)^2 + <-2(n-1)> and its basis
# (u, v, u1, v1, u2, v2, e8 block, e8 block, l).

_IDX_U, _IDX_V, _IDX_U1, _IDX_V1, _IDX_ELL = 0, 1, 2, 3, 22


def build_xi(n: int) -> IntegerLattice:
    if n < 2:
        raise ValueError("n must be at least 2")
    return IntegerLattice((U, U, U, E8_MINUS, E8_MINUS, -2 * (n - 1)))


def xi_basis(lat: IntegerLattice) -> dict[str, LatticeElement]:
    """Named generators of the lattice Xi(n) = build_xi(n): the three
    hyperbolic pairs and l."""
    names = dict(u=_IDX_U, v=_IDX_V, u1=_IDX_U1, v1=_IDX_V1, u2=4, v2=5, l=_IDX_ELL)
    return {k: lat.basis_element(i) for k, i in names.items()}


def build_alpha(n: int) -> tuple[LatticeMap, LatticeElement, LatticeElement]:
    """The isometry alpha of Xi(n) moving the degree-2 marked class onto
    u + v, returned as (alpha, u + v, kappa) with the two images below.

    With w' = (u + tv - 2l) - (u + v) = (t-1)v - 2l, the map is the
    composition t(u1, -v) o t(v1, w') o t(u1, v) (rightmost first).  Its
    two defining images are verified on construction:

        alpha(u + t*v - 2*l)           = u + v
        alpha(2(n-1)(u + t*v) - t*l)   = 2(n-1)(u - v) + 4(n-1)*v1 - l = kappa

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
    fixed = alpha.apply(u + t * v - 2 * ell)
    if fixed != u + v:
        raise AssertionError("alpha does not send u + tv - 2l to u + v")
    kappa = alpha.apply(2 * (n - 1) * (u + t * v) - t * ell)
    if kappa != 2 * (n - 1) * (u - v) + 4 * (n - 1) * v1 - ell:
        raise AssertionError("alpha does not send 2(n-1)(u+tv) - tl to kappa")
    return alpha, fixed, kappa


def divisibility(e: LatticeElement) -> int:
    """Positive generator of the ideal {(e, z) : z in the lattice}."""
    if e.is_zero():
        raise ValueError("divisibility of the zero vector is undefined")
    return math.gcd(*e.lattice.gram_product(_nonzero(e.coords)).values())


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
    for j, d in m.lattice.rank_one:
        col = m.moved.get(j, {j: 1})  # a fixed column e_j is 0 in M - I
        if any((col.get(i, 0) - (i == j)) % d for i in col.keys() | {j}):
            return False
    return True


def _nonzero(coords: Sequence[int]) -> dict[int, int]:
    """{i: c} over the nonzero coordinates c."""
    return {i: c for i, c in enumerate(coords) if c}


def _dot(a: dict[int, int], b: dict[int, int]) -> int:
    """Sum of a_i b_i, with a and b given by their nonzero entries."""
    return sum(c * b.get(i, 0) for i, c in a.items())
