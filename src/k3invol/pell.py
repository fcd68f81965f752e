"""Exact solvers for ordinary, negative and mixed Pell equations.

Everything here works with arbitrary-precision integers; no floats are
involved in any decision.  The walls of the movable cone, which solve
generalized Pell equations X^2 - D*Y^2 = N with a congruence on X, are
enumerated as Mukai classes by :mod:`k3invol.kernel`.  The negative
solver and the search for a prime == 3 (mod 4) decide the finiteness
verdicts of :mod:`k3invol.sigma`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

# Longest continued-fraction period of sqrt(D) that fundamental_solution
# walks.  The solution grows by about half a decimal digit per term (Levy's
# constant), so a longer period means a solution of thousands of digits,
# and periods near sqrt(D) would take longer than any caller can wait.
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


def _sqrt_cf_convergents(d: int):
    """Yield the continued-fraction convergents (p, q, a) of sqrt(d).

    Standard P-Q recurrence; d must be a positive nonsquare.  The third
    item is the partial quotient, handy for period detection (the period
    of sqrt(d) ends exactly when a == 2*a0).
    """
    a0 = math.isqrt(d)
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    pp, qq, a = 0, 1, a0
    yield p, q, a
    while True:
        pp = a * qq - pp
        qq = (d - pp * pp) // qq
        a = (a0 + pp) // qq
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        yield p, q, a


def fundamental_solution(D: int) -> PellSolution:
    """Minimal (x, y) with x, y > 0 and x^2 - D*y^2 = 1.

    Computed from the continued-fraction expansion of sqrt(D); the
    fundamental solution is the first convergent satisfying the equation,
    reached at the end of the first period (or the second when the period
    is odd).  Only the convergents closing a period (those followed by the
    partial quotient 2*a0) can satisfy it, so only those are tested.
    Raises ValueError when the period is longer than MAX_PERIOD = 10^4
    terms.
    """
    if D <= 0:
        raise ValueError("D must be positive")
    if isqrt(D)[1]:
        raise ValueError("D must not be a perfect square")
    a0 = math.isqrt(D)
    period = None
    for k, (p, q, a) in enumerate(_sqrt_cf_convergents(D)):
        if k and a == 2 * a0:
            period = period or k
            x, y = prev
            if x * x - D * y * y == 1:
                return PellSolution(x, y)
        elif period is None and k >= MAX_PERIOD:
            raise ValueError(
                f"the continued-fraction period of sqrt({D}) is longer than "
                f"{MAX_PERIOD} terms; its fundamental solution is not computed"
            )
        prev = p, q
    raise AssertionError("unreachable: Pell equation always has a solution")


def negative_pell_minimal(D: int) -> Optional[PellSolution]:
    """Minimal (x, y) > 0 with x^2 - D*y^2 = -1, or None if unsolvable.

    Fast rejection: -1 is not a square modulo 4 or modulo any prime
    p == 3 (mod 4), so 4 or such a prime dividing D kills solvability; an
    odd part == 3 (mod 4) has one, and otherwise we look for one by trial
    division up to 10^4.  The complete decision is the parity of the
    continued-fraction period of sqrt(D): the minimal solution, when it
    exists, is the convergent closing the first (odd-length) period, and
    that convergent (followed by the partial quotient 2*a0) is the only
    one tested.
    """
    if D <= 0:
        raise ValueError("D must be positive")
    if isqrt(D)[1]:
        raise ValueError("D must not be a perfect square")
    if D % 4 == 0:
        return None  # x^2 == -1 (mod 4) is impossible
    odd = D if D % 2 else D // 2  # D % 4 != 0: at most one factor 2
    if odd % 4 == 3 or smallest_prime_factor_3_mod_4(odd, 10**4) is not None:
        return None
    a0 = math.isqrt(D)
    for p, q, a in _sqrt_cf_convergents(D):
        if a == 2 * a0:  # not the first item, whose a is a0 >= 1
            # an even period closes with +1: no solution
            x, y = prev
            return PellSolution(x, y) if x * x - D * y * y == -1 else None
        prev = p, q
    raise AssertionError("unreachable")


def has_smaller_solution(D: int, rhs: int, y: int) -> bool:
    """Whether x^2 - D*y'^2 = rhs, with rhs = 1 or -1, has a solution in
    positive integers with y' < y; D must be a positive nonsquare.

    Legendre's criterion bounds the search.  For D >= 2 every positive
    solution has |sqrt(D) - x/y'| = 1/(y'(x + y' sqrt(D))) < 1/(2y'^2),
    because x + y' sqrt(D) > 2y' (x >= y' when rhs = -1, x > y' sqrt(D)
    when rhs = 1), and gcd(x, y') = 1.  So x/y' is a continued-fraction
    convergent of sqrt(D), and only the convergents with q < y need
    checking.
    """
    if rhs not in (1, -1):
        raise ValueError("rhs must be 1 or -1")
    for p, q, _ in _sqrt_cf_convergents(D):
        if q >= y or p * p - D * q * q == rhs:
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


def minimal_solution_mixed(
    p: int, q: int, x_bound: int = 10**5
) -> Optional[PellSolution]:
    """Minimal (x, y) > 0 with p*x^2 - q*y^2 = -1, searching x <= x_bound.

    Plain bounded brute force; this shape is only ever needed for small
    witnesses (the wall application has (p, q) = (n-1, 4n-3) with minimal
    solution (2, 1)).
    """
    if p <= 0 or q <= 0:
        raise ValueError("p and q must be positive")
    for x in range(1, x_bound + 1):
        m = p * x * x + 1
        if m % q == 0:
            y, exact = isqrt(m // q)
            if exact and y > 0:
                return PellSolution(x, y)
    return None
