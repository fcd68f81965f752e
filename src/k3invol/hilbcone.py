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

Two congruence modes exist throughout:

* ``full``      - X == +-alpha (mod 2(n-1)), the complete criterion;
* ``appendix``  - X is compared with alpha and 2(n-1) - alpha as plain
  integers and the top rho of the C-family is dropped, replicating a
  historical search program byte for byte.

The appendix mode's solutions are a filter of the full mode's, so
:func:`scan_rows`, the one scan path, enumerates and validates each n
once and counts C_n in both modes from that.  Anything the full mode
finds below the middle wall that the literal mode misses is a reportable
finding, not an error.
"""

from __future__ import annotations

import logging
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from . import kernel
from .mukai import MukaiContext, MukaiVector, mukai_pairing

logger = logging.getLogger(__name__)


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


def cattaneo_cases(n: int, appendix_compat: bool = False) -> list[tuple[int, int]]:
    """The (rho, alpha) case list of the wall criterion.

    A: rho = -1, alpha in [1, n-1]; B: rho = 0, alpha in [3, n-1];
    C: rho in [1, floor((n-1)/4)], alpha in [4rho+1, n-1].  With
    ``appendix_compat`` the C-family drops its top rho (replicating
    ``range(1, int((n-1)/4))``); the omission is logged.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if appendix_compat and (n - 1) // 4 >= 1:
        logger.debug(
            "appendix-compat case list for n=%d drops rho=%d", n, (n - 1) // 4
        )
    return list(kernel.case_pairs(n, appendix_compat))


@dataclass(frozen=True)
class WallRecord:
    """One interior wall: its case, Pell solution, ray and derived vector."""

    n: int
    rho: int
    alpha: int
    X: int
    Y: int
    ray: DivisorClass
    a_vec: MukaiVector
    slope: Fraction

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
        slope = Fraction(Y, X)
        if not 0 < slope < Fraction(2, 2 * t - 1):
            raise ValueError("ray is not strictly inside the movable cone")
        return cls(
            n=n,
            rho=rho,
            alpha=alpha,
            X=X,
            Y=Y,
            ray=DivisorClass(X, -2 * t * Y),
            a_vec=a_vec,
            slope=slope,
        )

    @property
    def is_middle(self) -> bool:
        return self.slope == Fraction(1, 4 * self.n - 3)

    @property
    def below_middle(self) -> bool:
        return self.slope < Fraction(1, 4 * self.n - 3)

    def primitive_ray(self) -> tuple[int, int]:
        return _primitive_ray(self.X, self.Y)


def _primitive_ray(x: int, y: int) -> tuple[int, int]:
    g = math.gcd(x, y)
    return x // g, y // g


def middle_wall(n: int) -> WallRecord:
    """The always-present middle wall (rho, alpha) = (-1, 1), (X, Y) = (t, 1)."""
    return WallRecord.build(n, -1, 1, 4 * n - 3, 1)


def enumerate_walls(n: int, full_congruence: bool = True) -> list[WallRecord]:
    """All distinct interior wall records, sorted by slope.

    Solutions come from the kernel's enumeration of wall classes over
    all cases at once; records defining the same ray are deduplicated on
    the primitive (X, Y).  The middle wall exists for every n; it is
    inserted when the kernel does not return it, which happens exactly in
    the literal congruence mode.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return _distinct_walls(
        n,
        kernel.interior_solutions(n, full_congruence, appendix_cases=not full_congruence),
    )


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
    return sorted(by_ray.values(), key=lambda r: (r.slope, r.rho, r.alpha))


def _resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        jobs = int(os.environ.get("JOBS", "1") or "1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return jobs


@dataclass(frozen=True)
class ScanRow:
    """Per-n comparison of the two congruence modes."""

    n: int
    c_full: int
    c_appendix: int
    full_only_below: tuple[WallRecord, ...]

    @property
    def disagreement(self) -> bool:
        return self.c_full != self.c_appendix


def _scan_row_worker(n: int) -> ScanRow:
    # one enumeration and one record per solution: the appendix mode sees a
    # filter of the full mode's solutions, all of them built (and validated)
    # by _distinct_walls, and only its distinct rays below the middle count
    t = 4 * n - 3
    solutions = kernel.interior_solutions(n, True, False)
    below_full = [w for w in _distinct_walls(n, solutions) if w.below_middle]
    app_rays = {
        _primitive_ray(x, y)
        for _, _, x, y in kernel.select(n, solutions, False, True)
        if x > t * y
    }
    extra = tuple(w for w in below_full if w.primitive_ray() not in app_rays)
    return ScanRow(
        n=n,
        c_full=len(below_full) + 1,
        c_appendix=len(app_rays) + 1,
        full_only_below=extra,
    )


def scan_rows(n_min: int, n_max: int, jobs: Optional[int] = None) -> list[ScanRow]:
    """C_n in both modes for every n in [n_min, n_max], ordered by n whatever
    the number of worker processes, with the below-middle records only the
    full congruence can see (the witnesses of a mode disagreement)."""
    if not 2 <= n_min <= n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    jobs = _resolve_jobs(jobs)
    ns = list(range(n_min, n_max + 1))
    if jobs == 1 or len(ns) == 1:
        rows = [_scan_row_worker(n) for n in ns]
    else:
        # looked up on the module, so that __getattr__ below imports it on
        # first use and a replacement set on the module (perfbench counts
        # pool tasks that way) is the one used
        pool_type = sys.modules[__name__].ProcessPoolExecutor
        with pool_type(max_workers=jobs) as pool:
            rows = list(pool.map(_scan_row_worker, sorted(ns, reverse=True), chunksize=4))
    return sorted(rows, key=lambda r: r.n)


def __getattr__(name: str):
    """Import the process pool on first use, as ``concurrent.futures`` does
    itself, so a command that starts no pool never loads multiprocessing."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor
