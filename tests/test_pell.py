import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3invol import pell
from k3invol.pell import (
    PellSolution,
    fundamental_solution,
    has_smaller_solution,
    isqrt,
    minimal_solution,
    minimal_solution_mixed,
    negative_pell_minimal,
    smallest_prime_factor_3_mod_4,
)
from child import child_env


# ---------------------------------------------------------------- oracles
#
# Brute-force searches over y: x^2 = rhs + D*y^2 must be a perfect square.
# These enumerate the same solution region as an x-scan (the map y -> x is
# a bijection on solutions) but touch far fewer candidates, and share no
# code with the continued-fraction path they check.


def brute_pell_min(d, rhs, y_limit):
    for y in range(1, y_limit + 1):
        s = rhs + d * y * y
        if s < 0:
            continue
        x = math.isqrt(s)
        if x * x == s and x > 0:
            return PellSolution(x, y)
    return None


def test_isqrt_examples():
    assert isqrt(0) == (0, True)
    assert isqrt(17) == (4, False)
    assert isqrt(324) == (18, True)
    with pytest.raises(ValueError):
        isqrt(-1)


def test_isqrt_random():
    rng = random.Random(1)
    for _ in range(500):
        m = rng.randrange(0, 10**18)
        r, exact = isqrt(m)
        assert r * r <= m < (r + 1) * (r + 1)
        assert exact == (r * r == m)


def test_fundamental_agrees_with_brute_force():
    # solutions with x <= 1e5 correspond to y <= sqrt((1e10 - 1)/D)
    for d in range(2, 501):
        if isqrt(d)[1]:
            continue
        y_limit = math.isqrt((10**10 - 1) // d)
        brute = brute_pell_min(d, 1, y_limit)
        fund = fundamental_solution(d)
        if brute is None:
            assert fund.x > 10**5
        else:
            assert fund == brute


def test_fundamental_rejects_bad_input():
    with pytest.raises(ValueError):
        fundamental_solution(0)
    with pytest.raises(ValueError):
        fundamental_solution(-5)
    with pytest.raises(ValueError):
        fundamental_solution(49)


def test_negative_pell_examples():
    assert negative_pell_minimal(13) == (18, 5)
    assert negative_pell_minimal(2) == (1, 1)
    # 3 == 3 (mod 4) obstruction; brute force confirms up to 10^4
    assert negative_pell_minimal(3) is None
    assert brute_pell_min(3, -1, 10**4) is None


def test_negative_pell_properties():
    for d in range(2, 301):
        if isqrt(d)[1]:
            continue
        sol = negative_pell_minimal(d)
        brute = brute_pell_min(d, -1, 3000)
        if sol is not None:
            assert sol.x * sol.x - d * sol.y * sol.y == -1
            if sol.y <= 3000:
                assert brute == sol
            else:
                assert brute is None  # no solution below the window either
            # no prime factor == 3 (mod 4) may divide d
            m = d
            p = 2
            while p * p <= m:
                if m % p == 0:
                    assert p % 4 != 3
                    while m % p == 0:
                        m //= p
                p += 1
            if m > 1:
                assert m % 4 != 3
        else:
            assert brute is None


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**5).filter(lambda d: not isqrt(d)[1]))
def test_pell_solvers_are_minimal(d):
    fund = fundamental_solution(d)
    assert fund.x * fund.x - d * fund.y * fund.y == 1
    assert not has_smaller_solution(d, 1, fund.y)
    neg = negative_pell_minimal(d)
    if neg is None:
        # the square of a solution of x^2 - dy^2 = -1 solves the +1
        # equation with a larger y, so some would lie below the fundamental one
        assert not has_smaller_solution(d, -1, fund.y)
    else:
        assert neg.x * neg.x - d * neg.y * neg.y == -1
        assert not has_smaller_solution(d, -1, neg.y)


def brute_smallest_prime_3_mod_4(m):
    return next(
        (
            p
            for p in range(3, m + 1, 4)
            if m % p == 0 and all(p % q for q in range(2, isqrt(p)[0] + 1))
        ),
        None,
    )


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 10**4), st.one_of(st.none(), st.integers(1, 120)))
def test_smallest_prime_factor_3_mod_4_matches_factoring(m, limit):
    expected = brute_smallest_prime_3_mod_4(m)
    got = smallest_prime_factor_3_mod_4(m, limit)
    if limit is None or expected is None or expected <= limit:
        assert got == expected
    else:
        # past the limit, only a prime cofactor left by the division is found
        assert got in (None, expected)


def test_smallest_prime_factor_3_mod_4_rejects_zero():
    # in a child process with a timeout: a search that spins on m = 0
    # must fail the test, not hang it
    code = (
        "from k3invol.pell import smallest_prime_factor_3_mod_4\n"
        "try:\n"
        "    smallest_prime_factor_3_mod_4(0)\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    # in process too, now that the child showed it returns
    with pytest.raises(ValueError, match="m must be nonzero"):
        smallest_prime_factor_3_mod_4(0)


def test_fundamental_stops_past_the_period_limit(monkeypatch):
    # sqrt(61) = [7; 1, 4, 3, 1, 2, 2, 1, 3, 4, 1, 14]: period 11
    monkeypatch.setattr(pell, "MAX_PERIOD", 11)
    assert fundamental_solution(61) == (1766319049, 226153980)
    monkeypatch.setattr(pell, "MAX_PERIOD", 10)
    with pytest.raises(ValueError, match="longer than 10 terms"):
        fundamental_solution(61)


def test_negative_stops_past_the_period_limit():
    # sqrt(61) has the odd period 11, so x^2 - 61y^2 = -1 is solvable
    assert negative_pell_minimal(61, max_period=11) == (29718, 3805)
    with pytest.raises(ValueError, match="longer than 10 terms"):
        negative_pell_minimal(61, max_period=10)


def test_negative_pell_past_the_trial_limit():
    # both factors are primes == 3 (mod 4) above the trial limit 10^4, and
    # d == 1 (mod 4), so the continued-fraction period decides
    d = 10007 * 10039
    assert smallest_prime_factor_3_mod_4(d) == 10007
    assert smallest_prime_factor_3_mod_4(d, 10**4) is None
    assert negative_pell_minimal(d) is None


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10**5).filter(lambda d: not isqrt(d)[1]))
def test_walk_norm_is_the_square_it_replaces(d):
    # the walk's norm is +-1 exactly where a period closes, so two periods
    # end at its second +-1
    closed = 0
    for p, q, norm in pell._sqrt_cf_convergents(d):
        assert norm == p * p - d * q * q, (d, p, q)
        closed += norm in (1, -1)
        if closed == 2:
            break


def test_has_smaller_solution_matches_brute_force():
    for d in range(2, 120):
        if isqrt(d)[1]:
            continue
        for rhs in (1, -1):
            solved = [y for y in range(1, 400) if isqrt(d * y * y + rhs)[1]]
            for y in range(1, 401):
                expected = any(s < y for s in solved)
                assert has_smaller_solution(d, rhs, y) is expected, (d, rhs, y)
    with pytest.raises(ValueError):
        has_smaller_solution(13, 4, 10)


@pytest.mark.parametrize("args", [(16, 1, 5), (1, 1, 2), (0, 1, 3), (-3, 1, 2)])
def test_has_smaller_solution_rejects_a_square_or_nonpositive_d(args):
    # the walk divides by Q = D - a0^2, which is 0 for a square D
    with pytest.raises(ValueError):
        has_smaller_solution(*args)


def sweep_solutions(D, y_limit):
    """{N: [(x, y), ...] in increasing y} for every solution of
    x^2 - D*y^2 = N with 0 < |N| < sqrt(D) and 0 < y <= y_limit.

    |x - y sqrt(D)| = |N|/(x + y sqrt(D)) < 1, so only x = floor(y sqrt(D))
    and x + 1 can solve it, and one pass over y serves every N."""
    found = {}
    for y in range(1, y_limit + 1):
        dy2 = D * y * y
        x = math.isqrt(dy2)
        below = x * x - dy2
        above = below + 2 * x + 1
        if below and below * below < D:
            found.setdefault(below, []).append(PellSolution(x, y))
        if above * above < D:
            found.setdefault(above, []).append(PellSolution(x + 1, y))
    return found


def test_minimal_solution_matches_a_y_sweep():
    # every nonsquare D < 2000 and 0 < |N| < sqrt(D); below D = 300 also
    # every divisor d of D, the condition d | x the mixed kind needs
    y_limit = 2000
    beyond = 0
    for D in range(2, 2000):
        r, square = isqrt(D)
        if square:
            continue
        found = sweep_solutions(D, y_limit)
        divisors = [d for d in range(1, D + 1) if D % d == 0] if D < 300 else [1]
        for N in (n for n in range(-r, r + 1) if n):
            for d in divisors:
                sol = minimal_solution(D, N, d)
                swept = [s for s in found.get(N, ()) if s.x % d == 0]
                if sol is None or sol.y > y_limit:
                    assert swept == [], (D, N, d, sol)
                    if sol is not None:
                        beyond += 1
                        assert sol.x**2 - D * sol.y**2 == N and sol.x % d == 0
                else:
                    assert sol == swept[0], (D, N, d, sol, swept[0])
                    assert not has_smaller_solution(D, N, sol.y, d)
                    assert has_smaller_solution(D, N, sol.y + 1, d)
    # the walk finds solutions the sweep cannot reach
    assert beyond > 1000


def test_minimal_solution_rejects_what_it_does_not_decide():
    for D, N, d in [(13, 4, 1), (13, -4, 1), (13, 0, 1), (13, 1, 2), (13, 1, 0), (16, 1, 1)]:
        with pytest.raises(ValueError):
            minimal_solution(D, N, d)


def test_minimal_solution_stops_past_the_period_limit(monkeypatch):
    # sqrt(61) has period 11; 61x^2 - y^2 = -1 is (y)^2 - 61x^2 = 1
    monkeypatch.setattr(pell, "MAX_PERIOD", 11)
    assert minimal_solution_mixed(61, 1) == (226153980, 1766319049)
    monkeypatch.setattr(pell, "MAX_PERIOD", 10)
    with pytest.raises(ValueError, match="longer than 10 terms"):
        minimal_solution_mixed(61, 1)


def test_mixed_minimality_brute():
    rng = random.Random(2)
    for _ in range(200):
        p, q = rng.randint(1, 40), rng.randint(1, 40)
        sol = minimal_solution_mixed(p, q)
        if sol is None:
            for x in range(1, 501):
                m = p * x * x + 1
                assert m % q != 0 or not isqrt(m // q)[1] or m // q == 0
        else:
            assert p * sol.x**2 - q * sol.y**2 == -1
            for x in range(1, sol.x):
                m = p * x * x + 1
                assert m % q != 0 or not isqrt(m // q)[1]


@pytest.mark.parametrize(
    "p, q, expected",
    [
        # odd periods: the least solution closes the second period, which a
        # walk that stops after one period never reaches
        (2, 1, (2, 3)),
        (13, 1, (180, 649)),
        (61, 1, (226153980, 1766319049)),
        # minimal x above 10^5
        (2, 107, (416941, 57003)),
        # pq = 16 is a square: 2(x - 2y)(x + 2y) = -1
        (2, 8, None),
        # p = 1: x^2 - 2y^2 = -1, solved at x = y = 1
        (1, 2, (1, 1)),
    ],
)
def test_mixed_pinned_pairs(p, q, expected):
    assert minimal_solution_mixed(p, q) == expected
