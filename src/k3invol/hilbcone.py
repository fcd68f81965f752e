"""Walls and chambers of the movable cone; its involution is kernel.mirror.

NS of the Hilbert scheme of n points is Z*H_n + Z*delta with the
Beauville-Bogomolov form diag(2t, -2(n-1)), t = 4n-3.  The unique
birational involution acts by minus the reflection in H_n - 2delta and
swaps the two boundary rays H_n and (2t-1)H_n - 4t*delta of the movable
cone; :func:`k3invol.kernel.mirror` is that action on rays
X*H_n - 2tY*delta, in (X, Y) coordinates.  Interior walls are cut by
such rays coming from congruence-restricted Pell solutions, one family
per case (rho, alpha); :mod:`k3invol.kernel` finds them as the Mukai
classes a = (k, -Y, s) with a^2 = 2 rho and |a.v| = alpha, enumerated
below the middle and mirrored above it by the involution.  The middle
wall is always (rho, alpha) = (-1, 1) with (X, Y) = (t, 1), of slope
Y/X = 1/t.  C_n - 1 counts the wall rays of slope strictly below 1/t, so
C_n = 1 means the nef cone reaches the middle.

The kernel's walls are the complete criterion, X == +-alpha (mod 2(n-1))
in every case: the ``full`` mode.  The ``appendix`` mode is a historical
search program.  It ran the C-family over ``range(1, int((n-1)/4))``,
so it kept only rho < max(1, floor((n-1)/4)), and it compared X with
alpha and 2(n-1) - alpha as plain integers.  No interior wall passes
that test.  An interior ray has Y(2t-1) < 2X with Y >= 1, so
X >= t > 2(n-1), and X = 2(n-1) - alpha would need alpha < 0.  X = alpha
makes a = (0, -Y, X), of square 2tY^2, so rho = tY^2 is above the cut.
The appendix mode therefore has only the middle wall, which exists for
every n, and its C_n is 1; nothing replays the program, and neither
``enumerate_walls`` nor ``scan_rows`` runs the kernel in that mode.
Every wall the full mode finds below the middle is one the appendix mode
misses: a reportable finding, not an error.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import NamedTuple

from . import kernel
from .mukai import MukaiContext, MukaiVector, mukai_pairing


class WallRecord(NamedTuple):
    """One interior wall: its case, Pell solution and derived vector."""

    n: int
    rho: int
    alpha: int
    X: int
    Y: int
    a_vec: MukaiVector

    @classmethod
    def build(cls, n: int, rho: int, alpha: int, X: int, Y: int) -> "WallRecord":
        t = 4 * n - 3
        m = 2 * (n - 1)
        if X <= 0 or Y <= 0:
            raise ValueError("X and Y must be positive")
        if X * X - 4 * t * (n - 1) * Y * Y != alpha * alpha - 4 * rho * (n - 1):
            raise ValueError("(X, Y) does not solve the case equation")
        xm = X % m
        if xm == alpha % m:
            a_vec = MukaiVector((X - alpha) // m, -Y, (X + alpha) // 2)
        elif xm == (-alpha) % m:
            a_vec = MukaiVector((X + alpha) // m, -Y, (X - alpha) // 2)
        else:
            raise ValueError("X is not congruent to +-alpha mod 2(n-1)")
        ctx = MukaiContext(n)
        v = MukaiVector(1, 0, -(n - 1))
        if mukai_pairing(ctx, a_vec, a_vec) != 2 * rho:
            raise ValueError("derived vector has wrong square")
        if abs(mukai_pairing(ctx, v, a_vec)) != alpha:
            raise ValueError("derived vector has wrong pairing against v")
        # X, Y > 0, so the slope test 0 < Y/X < 2/(2t-1) is Y(2t-1) < 2X
        if not Y * (2 * t - 1) < 2 * X:
            raise ValueError("ray is not strictly inside the movable cone")
        return cls(
            n=n,
            rho=rho,
            alpha=alpha,
            X=X,
            Y=Y,
            a_vec=a_vec,
        )

    @property
    def ray(self) -> tuple[int, int]:
        """The wall's ray X*H_n - 2tY*delta as (coefficient of H_n, of delta)."""
        return self.X, -2 * (4 * self.n - 3) * self.Y

    @property
    def is_middle(self) -> bool:  # Y/X == 1/t
        return self.X == (4 * self.n - 3) * self.Y

    @property
    def below_middle(self) -> bool:  # Y/X < 1/t
        return (4 * self.n - 3) * self.Y < self.X

    def primitive_ray(self) -> tuple[int, int]:
        g = math.gcd(self.X, self.Y)
        return self.X // g, self.Y // g


def middle_wall(n: int) -> WallRecord:
    """The always-present middle wall (rho, alpha) = (-1, 1), (X, Y) = (t, 1)."""
    return WallRecord.build(n, -1, 1, 4 * n - 3, 1)


def enumerate_walls(n: int, full_congruence: bool = True) -> list[WallRecord]:
    """All distinct interior wall records of a mode, sorted by slope.

    In the full mode these are the kernel's wall classes over all cases
    at once, deduplicated on the primitive (X, Y).  The kernel's list
    already holds the middle wall, which exists for every n (the theorem
    in the kernel docstring); nothing adds it here, so a kernel that lost
    it fails ``walls --verify``.  The appendix mode sees no interior wall
    but the middle one (see the module docstring), so the kernel is not
    called.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not full_congruence:
        return [middle_wall(n)]
    return _distinct_walls(n, kernel.interior_walls(n))


def _distinct_walls(n: int, solutions) -> list[WallRecord]:
    """The records of ``solutions``, one per primitive ray (the least
    (X, Y, rho, alpha)), sorted by slope.  Every solution is built, and so
    validated, exactly once."""
    by_ray: dict[tuple[int, int], WallRecord] = {}
    for rec in (WallRecord.build(n, *sol) for sol in solutions):
        key = rec.primitive_ray()
        cur = by_ray.get(key)
        if cur is None or (rec.X, rec.Y, rec.rho, rec.alpha) < (
            cur.X,
            cur.Y,
            cur.rho,
            cur.alpha,
        ):
            by_ray[key] = rec
    # distinct primitive rays have distinct slopes Y/X, so sorting by slope
    # alone is a total order and needs no (rho, alpha) tie-break; X > 0, so
    # Y1/X1 - Y2/X2 has the sign of Y1*X2 - Y2*X1
    return sorted(by_ray.values(), key=cmp_to_key(lambda r, s: r.Y * s.X - s.Y * r.X))


class ScanRow(NamedTuple):
    """C_n of one n in one mode, with the walls below the middle that make
    it exceed 1: in the full mode each is one the appendix mode misses (a
    mode disagreement); the appendix mode has none."""

    n: int
    c_n: int
    below_middle: tuple[WallRecord, ...]


def scan_rows(n_min: int, n_max: int, full_congruence: bool = True) -> list[ScanRow]:
    """The rows of every n in [n_min, n_max], in n order, each read from
    ``enumerate_walls(n, full_congruence)``."""
    if not 2 <= n_min <= n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        below = tuple(w for w in enumerate_walls(n, full_congruence) if w.below_middle)
        rows.append(ScanRow(n, 1 + len(below), below))
    return rows
