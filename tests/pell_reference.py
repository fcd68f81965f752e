"""Bounded enumeration of congruence-restricted generalized Pell equations,

    X^2 - D*Y^2 = N,      X == +-residue  (mod modulus),

kept as a reference for the wall kernel (:mod:`k3invol.kernel`), together
with a deliberately dumb double-loop oracle mirroring a published search
program that cross-checks it, and the case list (rho, alpha) of the wall
criterion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from k3invol.pell import PellSolution, isqrt


@dataclass(frozen=True)
class GeneralizedPellProblem:
    """Bounded, congruence-restricted instance of X^2 - D*Y^2 = N.

    ``modulus`` is 2(n-1) and ``residue`` is alpha in the wall
    application, but any positive modulus is accepted.
    """

    D: int
    N: int
    modulus: int
    residue: int
    x_bound: int

    def __post_init__(self):
        if self.D <= 0:
            raise ValueError("D must be positive")
        if isqrt(self.D)[1]:
            raise ValueError("D must not be a perfect square")
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("residue must lie in [0, modulus)")
        if self.x_bound <= 0:
            raise ValueError("x_bound must be positive")


def solutions_bounded(prob: GeneralizedPellProblem) -> list[PellSolution]:
    """All (X, Y), 0 < X <= x_bound, Y >= 1, with X^2 - D*Y^2 = N and
    X == +-residue (mod modulus); sorted by X, no duplicates.

    X is enumerated over the two admissible arithmetic progressions only
    (a modulus-sized speedup over a full scan); each candidate is kept
    when (X^2 - N)/D is a perfect square.
    """
    D, N, m = prob.D, prob.N, prob.modulus
    out = []
    for x in _admissible_x(prob.residue, m, prob.x_bound):
        v = x * x - N
        if v <= 0:
            continue
        yy, rem = divmod(v, D)
        if rem:
            continue
        y, exact = isqrt(yy)
        if exact and y >= 1:
            out.append(PellSolution(x, y))
    return out


def _admissible_x(residue: int, modulus: int, x_bound: int):
    """Ascending merge of {x > 0 : x == residue or x == -residue (mod modulus)}."""

    def stream(r):
        start = r if r > 0 else modulus
        return range(start, x_bound + 1, modulus)

    r1 = residue % modulus
    r2 = (-residue) % modulus
    if r1 == r2:
        yield from stream(r1)
        return
    prev = None
    for x in heapq.merge(stream(r1), stream(r2)):
        if x != prev:
            yield x
        prev = x


def solutions_bounded_oracle(
    prob: GeneralizedPellProblem, appendix_semantics: bool
) -> list[PellSolution]:
    """Double-loop brute force over X and Y, for cross-checking.

    With ``appendix_semantics`` the congruence test mirrors a historical
    search program literally: X is accepted only when X == residue,
    X == -residue or X == modulus - residue *as plain integers*, so
    solutions in the same residue class but with X >= modulus are missed.
    With ``appendix_semantics=False`` the full congruence
    X == +-residue (mod modulus) is tested and the output coincides with
    :func:`solutions_bounded`.
    """
    D, N, m, r = prob.D, prob.N, prob.modulus, prob.residue
    out = []
    for x in range(1, prob.x_bound + 1):
        if appendix_semantics:
            if not (x == r or x == -r or x == m - r):
                continue
        else:
            xm = x % m
            if xm != r % m and xm != (-r) % m:
                continue
        y = 1
        while True:
            v = x * x - D * y * y
            if v < N:
                break
            if v == N:
                out.append(PellSolution(x, y))
                break
            y += 1
    return out


def case_pairs(n: int, appendix_cases: bool):
    """Yield the (rho, alpha) case list for n.

    With ``appendix_cases`` the C-family replicates the historical
    program's ``range(1, int((n-1)/4))``, which always omits the top
    value floor((n-1)/4); the default includes it.
    """
    for alpha in range(1, n):
        yield -1, alpha
    for alpha in range(3, n):
        yield 0, alpha
    rho_top = (n - 1) // 4
    if appendix_cases:
        rho_top -= 1
    for rho in range(1, rho_top + 1):
        for alpha in range(4 * rho + 1, n):
            yield rho, alpha
