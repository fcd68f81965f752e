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
# walks, and negative_pell_minimal when its caller passes it.  The
# solution grows by about half a decimal digit per term (Levy's constant),
# so a longer period means a solution of thousands of digits, and periods
# near sqrt(D) would take longer than any caller can wait.
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
    """Yield the continued-fraction convergents (p, q, p^2 - d*q^2) of sqrt(d).

    Standard P-Q recurrence; d must be a positive nonsquare.  The k-th
    convergent has p^2 - d*q^2 = (-1)^(k+1) Q_(k+1), read from the walk
    instead of squared.  Q_j = 1 exactly when the period divides j, so
    the norm is +-1 exactly at the convergents that close a period.
    """
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
            raise ValueError(
                f"the continued-fraction period of sqrt({D}) is longer than "
                f"{max_period} terms; {unsolved}"
            )
    raise AssertionError("unreachable")


def fundamental_solution(D: int) -> PellSolution:
    """Minimal (x, y) with x, y > 0 and x^2 - D*y^2 = 1.

    Computed from the continued-fraction expansion of sqrt(D); the
    fundamental solution is the convergent closing the first period, or
    that convergent (p, q) squared, (p^2 + D*q^2, 2pq), when the period is
    odd and it solves x^2 - D*y^2 = -1 instead.  Raises ValueError when
    the period is longer than MAX_PERIOD = 10^4 terms.
    """
    if D <= 0:
        raise ValueError("D must be positive")
    if isqrt(D)[1]:
        raise ValueError("D must not be a perfect square")
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
    if D <= 0:
        raise ValueError("D must be positive")
    if isqrt(D)[1]:
        raise ValueError("D must not be a perfect square")
    if D % 4 == 0:
        return None  # x^2 == -1 (mod 4) is impossible
    odd = D if D % 2 else D // 2  # D % 4 != 0: at most one factor 2
    if odd % 4 == 3 or smallest_prime_factor_3_mod_4(odd, 10**4) is not None:
        return None
    p, q, norm = _close_first_period(
        D, max_period, "its negative Pell equation is not decided"
    )
    return PellSolution(p, q) if norm == -1 else None


def has_smaller_solution(D: int, rhs: int, y: int) -> bool:
    """Whether x^2 - D*y'^2 = rhs, with rhs = 1 or -1, has a solution in
    positive integers with y' < y; D must be a positive nonsquare.

    Legendre's criterion bounds the search.  For D >= 2 every positive
    solution has |sqrt(D) - x/y'| = 1/(y'(x + y' sqrt(D))) < 1/(2y'^2),
    because x + y' sqrt(D) > 2y' (x >= y' when rhs = -1, x > y' sqrt(D)
    when rhs = 1), and gcd(x, y') = 1.  So x/y' is a continued-fraction
    convergent of sqrt(D), and only the convergents with q < y need
    checking, each by the norm its walk already holds.
    """
    if rhs not in (1, -1):
        raise ValueError("rhs must be 1 or -1")
    for _, q, norm in _sqrt_cf_convergents(D):
        if q >= y or norm == rhs:
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

    Plain bounded brute force.  It serves ``pell --kind mixed`` and the
    identity that acceptance criterion 2 checks: (p, q) = (n-1, 4n-3) has
    the minimal solution (2, 1).  The wall enumeration does not use it.
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
