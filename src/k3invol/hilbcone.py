"""Movable cone of the Hilbert scheme: involution action, walls, chambers.

NS of the Hilbert scheme of n points is Z*H_n + Z*delta with the
Beauville-Bogomolov form diag(2t, -2(n-1)), t = 4n-3.  The unique
birational involution acts by minus the reflection in H_n - 2delta and
swaps the two boundary rays H_n and (2t-1)H_n - 4t*delta of the movable
cone.  Interior walls are cut by rays X*H_n - 2tY*delta coming from
congruence-restricted Pell solutions, one family per case (rho, alpha);
:mod:`k3invol.kernel` finds them as the Mukai classes a = (k, -Y, s) with
a^2 = 2 rho and |a.v| = alpha, enumerated below the middle and mirrored
above it by the involution.  The middle wall is always (rho, alpha) =
(-1, 1) with (X, Y) = (t, 1), of slope Y/X = 1/t.  C_n - 1 counts the
wall rays of slope strictly below 1/t, so C_n = 1 means the nef cone
reaches the middle.

The kernel's walls are the complete criterion, X == +-alpha (mod 2(n-1))
in every case: the ``full`` mode.  The ``appendix`` mode is a historical
search program.  It ran the C-family over ``range(1, int((n-1)/4))``,
so it kept only rho < max(1, floor((n-1)/4)), and it compared X with
alpha and 2(n-1) - alpha as plain integers.  No interior wall passes
that test.  An interior ray has Y(2t-1) < 2X with Y >= 1, so
X >= t > 2(n-1), and X = 2(n-1) - alpha would need alpha < 0.  X = alpha
makes a = (0, -Y, X), of square 2tY^2, so rho = tY^2 is above the cut.
The appendix mode therefore has only the middle wall, which exists for
every n, and its C_n is 1; nothing replays the program.  Every wall the
full mode finds below the middle is one the appendix mode misses: a
reportable finding, not an error.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from typing import NamedTuple

from . import kernel
from .mukai import MukaiContext, MukaiVector, mukai_pairing


class DivisorClass(NamedTuple):
    a: int  # coefficient of H_n
    b: int  # coefficient of delta


def bb_form(n: int, c1: DivisorClass, c2: DivisorClass) -> int:
    """Beauville-Bogomolov pairing, diag(2t, -2(n-1)) in the (H_n, delta) basis."""
    if n < 2:
        raise ValueError("n must be at least 2")
    t = 4 * n - 3
    return 2 * t * c1[0] * c2[0] - 2 * (n - 1) * c1[1] * c2[1]


def involution_action(n: int, c: DivisorClass) -> DivisorClass:
    """Minus the reflection in H_n - 2delta (a q-isometry of order two):

    a*H_n + b*delta  |->  ((2t-1)a + 4(n-1)b) H_n - (4ta + (8(n-1)+1)b) delta.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    t = 4 * n - 3
    a, b = c
    return DivisorClass(
        (2 * t - 1) * a + 4 * (n - 1) * b,
        -4 * t * a - (8 * (n - 1) + 1) * b,
    )


def movable_rays(n: int) -> tuple[DivisorClass, DivisorClass]:
    """The two boundary rays H_n and its involution image (2t-1)H_n - 4t*delta."""
    if n < 2:
        raise ValueError("n must be at least 2")
    t = 4 * n - 3
    return DivisorClass(1, 0), DivisorClass(2 * t - 1, -4 * t)


class WallRecord(NamedTuple):
    """One interior wall: its case, Pell solution, ray and derived vector."""

    n: int
    rho: int
    alpha: int
    X: int
    Y: int
    ray: DivisorClass
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
            ray=DivisorClass(X, -2 * t * Y),
            a_vec=a_vec,
        )

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
    at once, deduplicated on the primitive (X, Y), and the middle wall,
    which exists for every n.  The appendix mode sees no interior wall but
    the middle one (see the module docstring), so the kernel is not called.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not full_congruence:
        return [middle_wall(n)]
    return _distinct_walls(n, kernel.interior_walls(n))


def _distinct_walls(n: int, solutions) -> list[WallRecord]:
    """The records of ``solutions`` and the middle wall, one per primitive
    ray (the least (X, Y, rho, alpha)), sorted by slope.  Every solution is
    built, and so validated, exactly once."""
    middle = (-1, 1, 4 * n - 3, 1)
    if middle not in solutions:
        solutions = [middle, *solutions]
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
    """Per-n comparison of the two congruence modes."""

    n: int
    c_full: int
    c_appendix: int
    full_only_below: tuple[WallRecord, ...]

    @property
    def disagreement(self) -> bool:
        return self.c_full != self.c_appendix


def _scan_row(n: int) -> ScanRow:
    # the appendix mode's C_n is 1 (see the module docstring), so every
    # below-middle wall of the full mode is one it misses
    walls = _distinct_walls(n, kernel.interior_walls(n))
    below_full = tuple(w for w in walls if w.below_middle)
    return ScanRow(n=n, c_full=len(below_full) + 1, c_appendix=1, full_only_below=below_full)


def scan_rows(n_min: int, n_max: int) -> list[ScanRow]:
    """C_n in both modes for every n in [n_min, n_max], in n order, with the
    below-middle records only the full congruence can see (the witnesses of
    a mode disagreement)."""
    if not 2 <= n_min <= n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    return [_scan_row(n) for n in range(n_min, n_max + 1)]
