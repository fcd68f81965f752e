"""Exact solvers for ordinary, negative and mixed Pell equations.

Everything here works with arbitrary-precision integers; no floats are
involved in any decision, and no solver searches up to a bound.  Every
solver walks the continued fraction of sqrt(D): the ordinary and negative
kinds stop at the convergent closing its first period, and
x^2 - D*y^2 = N with |N| < sqrt(D), to which the mixed kind reduces,
walks at most two periods.  The walls of the movable cone, which solve
generalized Pell equations X^2 - D*Y^2 = N with a congruence on X, are
enumerated as Mukai classes by :mod:`k3invol.kernel`.  The negative
solver and the search for a prime == 3 (mod 4) decide the finiteness
verdicts of :mod:`k3invol.sigma`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

# Longest continued-fraction period of sqrt(D) that fundamental_solution
# and minimal_solution walk, and negative_pell_minimal when its caller
# passes it.  The solution grows by about half a decimal digit per term
# (Levy's constant), so a longer period means a solution of thousands of
# digits, and periods near sqrt(D) would take longer than any caller can
# wait.
MAX_PERIOD = 10**4


class PellSolution(NamedTuple):
    x: int
    y: int


def isqrt(m: int) -> tuple[int, bool]:
    """Integer square root with exactness flag: (floor(sqrt(m)), m is a square)."""
    if m < 0:
        raise ValueError("isqrt of a negative integer")
    r = math.isqrt(m)
    return r, r * r == m


def _check_nonsquare(D: int) -> None:
    """Raise ValueError unless D is a positive nonsquare, as every walk needs."""
    if D <= 0:
        raise ValueError("D must be positive")
    if isqrt(D)[1]:
        raise ValueError("D must not be a perfect square")


def _sqrt_cf_convergents(d: int):
    """Yield the continued-fraction convergents (p, q, p^2 - d*q^2) of sqrt(d).

    Standard P-Q recurrence; d must be a positive nonsquare (ValueError
    otherwise, at the first step).  The k-th convergent has
    p^2 - d*q^2 = (-1)^(k+1) Q_(k+1), read from the walk instead of
    squared.  Q_j = 1 exactly when the period divides j, so the norm is
    +-1 exactly at the convergents that close a period.
    """
    _check_nonsquare(d)
    a0 = math.isqrt(d)
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    pp, qq, a = 0, 1, a0
    sign = -1
    while True:
        pp = a * qq - pp
        qq = (d - pp * pp) // qq
        yield p, q, sign * qq
        sign = -sign
        a = (a0 + pp) // qq
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev


def _close_first_period(D: int, max_period: int | None, unsolved: str):
    """The convergent (p, q, norm) that closes the first period of sqrt(D),
    where norm = p^2 - D*q^2 is +-1 for the first time: -1 exactly when the
    period is odd.  Raises ValueError, ending in ``unsolved``, once the walk
    passes ``max_period`` terms; None walks the whole period."""
    for k, (p, q, norm) in enumerate(_sqrt_cf_convergents(D), 1):
        if norm in (1, -1):
            return p, q, norm
        if max_period is not None and k >= max_period:
            raise _period_limit(D, max_period, unsolved)
    raise AssertionError("unreachable")


def _period_limit(D: int, max_period: int, unsolved: str) -> ValueError:
    return ValueError(
        f"the continued-fraction period of sqrt({D}) is longer than "
        f"{max_period} terms; {unsolved}"
    )


def fundamental_solution(D: int) -> PellSolution:
    """Minimal (x, y) with x, y > 0 and x^2 - D*y^2 = 1.

    Computed from the continued-fraction expansion of sqrt(D); the
    fundamental solution is the convergent closing the first period, or
    that convergent (p, q) squared, (p^2 + D*q^2, 2pq), when the period is
    odd and it solves x^2 - D*y^2 = -1 instead.  Raises ValueError when
    the period is longer than MAX_PERIOD = 10^4 terms.
    """
    p, q, norm = _close_first_period(
        D, MAX_PERIOD, "its fundamental solution is not computed"
    )
    if norm == -1:
        return PellSolution(p * p + D * q * q, 2 * p * q)
    return PellSolution(p, q)


def negative_pell_minimal(
    D: int, max_period: int | None = None
) -> Optional[PellSolution]:
    """Minimal (x, y) > 0 with x^2 - D*y^2 = -1, or None if unsolvable.

    Fast rejection: -1 is not a square modulo 4 or modulo any prime
    p == 3 (mod 4), so 4 or such a prime dividing D kills solvability; an
    odd part == 3 (mod 4) has one, and otherwise we look for one by trial
    division up to 10^4.  The complete decision is the parity of the
    continued-fraction period of sqrt(D): the minimal solution, when it
    exists, is the convergent closing the first (odd-length) period, and
    an even period closes with +1 instead.

    Raises ValueError when the period is longer than ``max_period`` terms;
    None walks the whole period.  ``pell --kind negative`` passes
    MAX_PERIOD, because a user's D may be large enough that its period
    takes longer than any caller can wait.  ``sigma`` passes nothing: its
    D is delta = t(n-3)/g^2 < 4n^2, whose period is the one the user asked
    about by choosing n (``sigma --n 11165`` walks 13340 terms, past
    MAX_PERIOD, in well under a second).
    """
    _check_nonsquare(D)
    if D % 4 == 0:
        return None  # x^2 == -1 (mod 4) is impossible
    odd = D if D % 2 else D // 2  # D % 4 != 0: at most one factor 2
    if odd % 4 == 3 or smallest_prime_factor_3_mod_4(odd, 10**4) is not None:
        return None
    p, q, norm = _close_first_period(
        D, max_period, "its negative Pell equation is not decided"
    )
    return PellSolution(p, q) if norm == -1 else None


def _convergent_solutions(D: int, N: int, d: int):
    """Yield (q, closed, solution) for each convergent p/q of sqrt(D): the
    solution is g*(p, q) when that solves x^2 - D*y^2 = N with d | x, and
    None otherwise; closed counts the periods closed so far, this one
    included.

    D must be a positive nonsquare, 0 < |N| < sqrt(D), and d a positive
    divisor of D.  g*(p, q) solves the equation exactly when the norm
    p^2 - D*q^2 is N/g^2, so each convergent gives at most one solution,
    read from the table of N/g^2 over the g with g^2 | N.
    """
    if not (0 < N * N < D and d > 0 and D % d == 0):
        raise ValueError("need 0 < |N| < sqrt(D) and a positive divisor d of D")
    scale = {N // (g * g): g for g in range(1, math.isqrt(abs(N)) + 1) if N % (g * g) == 0}
    closed = 0
    for p, q, norm in _sqrt_cf_convergents(D):
        g = scale.get(norm)
        closed += norm in (1, -1)
        yield q, closed, PellSolution(g * p, g * q) if g and g * p % d == 0 else None


def minimal_solution(D: int, N: int, d: int = 1) -> Optional[PellSolution]:
    """Least (x, y) > 0 with x^2 - D*y^2 = N and d | x, or None if none
    exists; D must be a positive nonsquare, 0 < |N| < sqrt(D), and d a
    positive divisor of D.

    The first two periods of the convergents p_k/q_k of sqrt(D) hold the
    answer:

    - Every solution with gcd(x, y) = 1 is a convergent (Legendre).  For
      N > 0, x > y sqrt(D) gives
      |sqrt(D) - x/y| = N/(y(x + y sqrt(D))) < 1/(2y^2).  For N < 0,
      y sqrt(D) > x gives |1/sqrt(D) - y/x| = |N|/(x sqrt(D)(x + y sqrt(D)))
      < 1/(2x^2), and the convergents of 1/sqrt(D) are 0/1 and the q_k/p_k.
      Either way x/y = p_k/q_k, both in lowest terms.
    - A solution with gcd g is g times a solution of x^2 - D*y^2 = N/g^2,
      and |N/g^2| < sqrt(D) as well.
    - Let u + v sqrt(D) be the convergent closing the first period, of l
      terms.  Then p_(k+l) + q_(k+l) sqrt(D) = (u + v sqrt(D))(p_k + q_k sqrt(D)).
      So one norm period, l terms when u^2 - D*v^2 = 1 and 2l when it is
      -1, multiplies every convergent by a norm-one unit U + V sqrt(D).
      That unit keeps d | x: x' = Ux + DVy == Ux (mod d), as d | D, and
      U^2 = 1 + DV^2 == 1 (mod d).  A solution past the first norm period
      thus has a smaller one a norm period before it, and the first two
      periods, whose last convergent (u + v sqrt(D))^2 has q = 2uv, hold
      the least solution of every class.

    The walk stops once q reaches the least y found, since every later
    solution g*q is larger, or once two periods have closed.  It raises
    ValueError, as fundamental_solution does, when it passes MAX_PERIOD
    terms before the first period closes.
    """
    best = None
    for k, (q, closed, sol) in enumerate(_convergent_solutions(D, N, d), 1):
        if sol is not None and (best is None or sol.y < best.y):
            best = sol
        if closed == 2 or best is not None and q >= best.y:
            break
        if not closed and k >= MAX_PERIOD:
            raise _period_limit(D, MAX_PERIOD, f"x^2 - {D}*y^2 = {N} is not decided")
    return best


def has_smaller_solution(D: int, rhs: int, y: int, d: int = 1) -> bool:
    """Whether x^2 - D*y'^2 = rhs has a solution in positive integers with
    y' < y and d | x; D must be a positive nonsquare, 0 < |rhs| < sqrt(D),
    and d a positive divisor of D.

    Legendre's criterion bounds the search, as minimal_solution proves:
    every solution is g*(p, q) for a convergent p/q of sqrt(D), so only the
    convergents with q < y need checking, each by the norm its walk
    already holds.  It uses no period argument, which makes it the
    minimality check that ``pell --verify`` runs on every kind.
    """
    for q, _, sol in _convergent_solutions(D, rhs, d):
        if q >= y or sol is not None and sol.y < y:
            return q < y


def smallest_prime_factor_3_mod_4(m: int, limit: int | None = None) -> Optional[int]:
    """Smallest prime p == 3 (mod 4) dividing m, by trial division; m != 0.

    With ``limit`` only the primes up to it are tried, so None then means
    "none found", not "none exists"; a prime above the limit is returned
    only when it is the cofactor left once p^2 exceeds what remains of m.
    """
    if m == 0:
        raise ValueError("m must be nonzero: every prime divides 0")
    m = abs(m)
    while m % 2 == 0:
        m //= 2
    p = 3
    while p * p <= m:
        if limit is not None and p > limit:
            return None
        if m % p == 0:
            if p % 4 == 3:
                return p
            while m % p == 0:
                m //= p
        p += 2
    # every prime up to sqrt(m) is divided out, so m is 1 or a prime
    if m % 4 == 3:
        return m
    return None


def minimal_solution_mixed(p: int, q: int) -> Optional[PellSolution]:
    """Minimal (x, y) > 0 with p*x^2 - q*y^2 = -1, or None if unsolvable.

    Exact, through minimal_solution on D = pq, where |N| = min(p, q) is
    below sqrt(pq) and divides X:
    - for p < q, (px)^2 - pq*y^2 = -p;
    - for p > q, (qy)^2 - pq*x^2 = q.
    The smaller x is the smaller y, so the least solution of either is the
    minimal one.  When pq is a square, p = g*a^2 and q = g*b^2 leave
    g(ax - by)(ax + by) = -1, which has no positive solution.  It serves
    ``pell --kind mixed`` and the identity that acceptance criterion 2
    checks: (p, q) = (n-1, 4n-3) has the minimal solution (2, 1).  The
    wall enumeration does not use it.
    """
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    if isqrt(p * q)[1]:
        return None
    sol = minimal_solution(p * q, -p if p < q else q, min(p, q))
    if sol is None:
        return None
    return PellSolution(sol.x // p, sol.y) if p < q else PellSolution(sol.y, sol.x // q)
