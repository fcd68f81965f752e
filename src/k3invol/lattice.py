"""Even integer lattices, the isometry alpha, and the period-lattice check.

A lattice is an orthogonal sum of summands U, E8(-1) and rank-one <d>, and
is built only from that list; its Gram matrix is block diagonal.  U and
E8(-1) are unimodular, so the discriminant group L*/L comes from the
rank-one summands alone, and the discriminant check reads one column of
the map per summand <d>, modulo d.  Entries are plain Python ints, so
all arithmetic is exact (the largest lattice used has rank 23).

Everything is stored by its nonzero entries: row i of a Gram matrix as
{j: G_ij}, taken from the blocks, and a map as the identity plus its
moved columns {j: image of e_j}, kept only where the image is not e_j.
Alpha moves three of the 23 basis vectors, u, u1 and l; with
M = 4(n-1) it is, in closed form,

    alpha(u)  = u + M v - 2M v1 + 2l
    alpha(u1) = u1 + M v1 - 2l
    alpha(l)  = l + M v - M v1,

fixing every other basis vector, so applying and checking it costs
O(moved columns x nonzeros), not O(rank^2).  As t - M = 1 and
m(2m - t) = -m for m = 2(n-1), the two images ``build_alpha`` checks
come out by expanding along these columns:

    alpha(u + tv - 2l)    = u + (t - M) v = u + v
    alpha(m(u + tv) - tl) = m(u - v) + 2m v1 - l

Alpha is the product t(u1, -v) t(v1, (t-1)v - 2l) t(u1, v) of three
Eichler transvections t(x, y): z -> z - (y,z)x + (x,z)y - (y,y)/2 (x,z)x;
that dense product, in the tests, is its oracle.

The Gram rows of a U or E8(-1) block at a given offset are built once and
shared, never mutated, by every lattice that has the block there; they do
not depend on n, so the table stays small.  No lattice, map or result is
cached: ``build_alpha(n)`` returns alpha together with the images of its
two defining inputs, which it has just checked; a caller that also needs
Xi(n) reads it from ``alpha.lattice``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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


@functools.lru_cache(maxsize=128)
def _offset_rows(block: str, off: int) -> tuple[dict[int, int], ...]:
    """The rows of a unimodular block whose first basis index is ``off``."""
    return tuple({off + j: g for j, g in row.items()} for row in _BLOCK_ROWS[block])


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
                rows += _offset_rows(s, len(rows))
            elif isinstance(s, int):
                if s == 0:
                    raise ValueError("rank-one summands must be nonzero (nondegenerate)")
                if s % 2:
                    raise ValueError("diagonal entries must be even (even lattice)")
                rank_one.append((len(rows), s))
                rows.append({len(rows): s})
            else:
                raise ValueError(f"unknown summand {s!r}")
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "gram_rows", tuple(rows))
        object.__setattr__(self, "rank_one", tuple(rank_one))

    @property
    def rank(self) -> int:
        return len(self.gram_rows)

    def gram_product(self, vec: dict[int, int]) -> dict[int, int]:
        """G v from {j: v_j} over the nonzero v_j, as {i: (G v)_i} over the rows
        i that meet v (some may be 0); G is symmetric, so column j is row j."""
        out: dict[int, int] = {}
        for j, c in vec.items():
            for i, g in self.gram_rows[j].items():
                out[i] = out.get(i, 0) + c * g
        return out


@dataclass(frozen=True)
class LatticeElement:
    lattice: IntegerLattice
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.lattice.rank:
            raise ValueError("coordinate length does not match the rank")


@dataclass(frozen=True)
class LatticeMap:
    """Integer endomorphism: the identity except on ``moved``, which maps each
    j with M e_j != e_j to M e_j, given as {i: coordinate} over its nonzeros."""

    lattice: IntegerLattice
    moved: dict[int, dict[int, int]]

    def apply(self, e: LatticeElement) -> LatticeElement:
        """M e by nonzero entries: e + e_j (M e_j - e_j) over moved j with e_j != 0."""
        vec = {j: c for j, c in enumerate(e.coords) if c}
        out = dict(vec)
        for j, c in vec.items():
            col = self.moved.get(j)
            if col is not None:
                out[j] -= c
                for i, x in col.items():
                    out[i] = out.get(i, 0) + c * x
        return _element(self.lattice, out)

    def is_isometry(self) -> bool:
        """Whether (M e_i, M e_j) = G_ij for all i, j.

        A pair of fixed basis vectors keeps its pairing, so only pairs
        with a moved e_i are checked: against a fixed e_j the pairing
        (M e_i, e_j) is entry j of G M e_i, which must equal G_ij (both
        vanish outside the rows met by M e_i and row i of G), and against
        a moved e_j it is a dot product over the nonzeros of M e_j.
        """
        moved, lat = self.moved, self.lattice
        for i, col in moved.items():
            gm_i = lat.gram_product(col)  # G M e_i
            g_i = lat.gram_rows[i]
            for j, p in gm_i.items():
                if j not in moved and p != g_i.get(j, 0):
                    return False
            for j in g_i:  # G_ij != 0, so (M e_i, e_j) must be too
                if j not in gm_i and j not in moved:
                    return False
            for j, col_j in moved.items():
                pair = 0
                for k, c in col_j.items():
                    pair += c * gm_i.get(k, 0)
                if pair != g_i.get(j, 0):
                    return False
        return True


# ---------------------------------------------------------------------------
# The period lattice Xi(n) = U^3 + E8(-1)^2 + <-2(n-1)> and its basis
# (u, v, u1, v1, u2, v2, e8 block, e8 block, l).

_IDX_U, _IDX_V, _IDX_U1, _IDX_V1, _IDX_ELL = 0, 1, 2, 3, 22


def build_xi(n: int) -> IntegerLattice:
    if n < 2:
        raise ValueError("n must be at least 2")
    return IntegerLattice((U, U, U, E8_MINUS, E8_MINUS, -2 * (n - 1)))


def build_alpha(n: int) -> tuple[LatticeMap, LatticeElement, LatticeElement]:
    """The isometry alpha of Xi(n) moving the degree-2 marked class onto
    u + v, returned as (alpha, u + v, kappa) with the two images below.

    With M = 4(n-1), alpha is built from its three moved columns

        alpha(u)  = u + M v - 2M v1 + 2l
        alpha(u1) = u1 + M v1 - 2l
        alpha(l)  = l + M v - M v1,

    and its two defining images are verified on construction.  With
    m = 2(n-1) = M/2, so that t - M = 1 and m(2m - t) = -m, expanding
    along the columns gives

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
    lat = build_xi(n)
    t, m, M = 4 * n - 3, 2 * (n - 1), 4 * (n - 1)
    u, v, u1, v1, ell = _IDX_U, _IDX_V, _IDX_U1, _IDX_V1, _IDX_ELL
    alpha = LatticeMap(
        lat,
        {
            u: {u: 1, v: M, v1: -2 * M, ell: 2},
            u1: {u1: 1, v1: M, ell: -2},
            ell: {v: M, v1: -M, ell: 1},
        },
    )
    fixed = alpha.apply(_element(lat, {u: 1, v: t, ell: -2}))
    if fixed != _element(lat, {u: 1, v: 1}):
        raise AssertionError("alpha does not send u + tv - 2l to u + v")
    kappa = alpha.apply(_element(lat, {u: m, v: m * t, ell: -t}))
    if kappa != _element(lat, {u: m, v: -m, v1: 2 * m, ell: -1}):
        raise AssertionError("alpha does not send 2(n-1)(u+tv) - tl to kappa")
    return alpha, fixed, kappa


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


def _element(lat: IntegerLattice, vec: dict[int, int]) -> LatticeElement:
    """The element of ``lat`` with nonzero coordinates {i: c}."""
    coords = [0] * lat.rank
    for i, c in vec.items():
        coords[i] = c
    return LatticeElement(lat, tuple(coords))
