import math
import os
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
    minimal_solution_mixed,
    negative_pell_minimal,
    smallest_prime_factor_3_mod_4,
)
from pell_reference import (
    GeneralizedPellProblem,
    solutions_bounded,
    solutions_bounded_oracle,
)


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


def test_fundamental_paper_values():
    # t(n-1) for n = 3 and n = 4; the family minimum is (8n-7, 4)
    assert fundamental_solution(18) == (17, 4)
    assert fundamental_solution(39) == (25, 4)


def test_fundamental_derived_value():
    # frozen from the brute-force oracle below (x <= 1000 scan region)
    expected = brute_pell_min(13, 1, 200)
    assert expected == (649, 180)
    assert fundamental_solution(13) == expected


def test_fundamental_family_formula():
    for n in range(2, 201):
        t = 4 * n - 3
        assert fundamental_solution(t * (n - 1)) == (8 * n - 7, 4)


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


def negative_pell_every_convergent(d):
    """Minimal solution of x^2 - d*y^2 = -1, or None: every convergent of
    the first period of sqrt(d) is tested, with no divisibility shortcut.
    Every positive solution is a convergent (Legendre), and the later
    periods repeat the first one's values of p^2 - d*q^2."""
    a0 = math.isqrt(d)
    p_prev, p, q_prev, q = 1, a0, 0, 1
    m, den, a = 0, 1, a0
    while True:
        if p * p - d * q * q == -1:
            return PellSolution(p, q)
        m = a * den - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        if a == 2 * a0:
            return None
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev


def test_negative_pell_matches_every_convergent_oracle():
    # the solver tests only the convergent that closes the first period
    for d in range(2, 30000):
        if not isqrt(d)[1]:
            assert negative_pell_minimal(d) == negative_pell_every_convergent(d), d


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
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pell.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "from k3invol.pell import smallest_prime_factor_3_mod_4\n"
        "try:\n"
        "    smallest_prime_factor_3_mod_4(0)\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == 0, proc.stderr


def test_fundamental_stops_past_the_period_limit(monkeypatch):
    # sqrt(61) = [7; 1, 4, 3, 1, 2, 2, 1, 3, 4, 1, 14]: period 11
    monkeypatch.setattr(pell, "MAX_PERIOD", 11)
    assert fundamental_solution(61) == (1766319049, 226153980)
    monkeypatch.setattr(pell, "MAX_PERIOD", 10)
    with pytest.raises(ValueError, match="longer than 10 terms"):
        fundamental_solution(61)


def test_negative_pell_past_the_trial_limit():
    # both factors are primes == 3 (mod 4) above the trial limit 10^4, and
    # d == 1 (mod 4), so the continued-fraction period decides
    d = 10007 * 10039
    assert smallest_prime_factor_3_mod_4(d) == 10007
    assert smallest_prime_factor_3_mod_4(d, 10**4) is None
    assert negative_pell_minimal(d) is None


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


def test_mixed_examples():
    # (n-1)x^2 - t y^2 = -1 for n = 3, 4 has minimum (2, 1)
    assert minimal_solution_mixed(2, 9) == (2, 1)
    assert minimal_solution_mixed(3, 13) == (2, 1)
    assert minimal_solution_mixed(1, 2) == (1, 1)


def test_mixed_minimality_brute():
    rng = random.Random(2)
    for _ in range(200):
        p, q = rng.randint(1, 40), rng.randint(1, 40)
        sol = minimal_solution_mixed(p, q, x_bound=500)
        if sol is None:
            for x in range(1, 501):
                m = p * x * x + 1
                assert m % q != 0 or not isqrt(m // q)[1] or m // q == 0
        else:
            assert p * sol.x**2 - q * sol.y**2 == -1
            for x in range(1, sol.x):
                m = p * x * x + 1
                assert m % q != 0 or not isqrt(m // q)[1]


def test_problem_validation():
    with pytest.raises(ValueError):
        GeneralizedPellProblem(D=49, N=1, modulus=4, residue=1, x_bound=10)
    with pytest.raises(ValueError):
        GeneralizedPellProblem(D=-3, N=1, modulus=4, residue=1, x_bound=10)
    with pytest.raises(ValueError):
        GeneralizedPellProblem(D=72, N=1, modulus=4, residue=7, x_bound=10)
    with pytest.raises(ValueError):
        GeneralizedPellProblem(D=72, N=1, modulus=4, residue=1, x_bound=0)


def test_solutions_bounded_middle_wall_case():
    # n = 3, (rho, alpha) = (-1, 1): the only solution up to X = 9 is (9, 1)
    prob = GeneralizedPellProblem(D=72, N=9, modulus=4, residue=1, x_bound=9)
    assert solutions_bounded(prob) == [(9, 1)]


def test_solutions_bounded_locally_impossible_case():
    # n = 3, (rho, alpha) = (-1, 2): X even gives x'^2 - 18Y^2 = 3, which is
    # impossible mod 9; exhaustive scan confirms emptiness
    prob = GeneralizedPellProblem(D=72, N=12, modulus=4, residue=2, x_bound=200)
    assert solutions_bounded(prob) == []


def test_solutions_bounded_below_smallest_solution():
    # X^2 = t^2 + D Y^2 > t^2 for Y >= 1, so a bound under t sees nothing
    for n in (3, 5, 11):
        t = 4 * n - 3
        prob = GeneralizedPellProblem(
            D=4 * t * (n - 1),
            N=t * t,
            modulus=2 * (n - 1),
            residue=t % (2 * (n - 1)),
            x_bound=t - 1,
        )
        assert solutions_bounded(prob) == []


def test_oracle_literal_mode_misses_reduced_congruence():
    # The literal congruence only admits X in {alpha, 2(n-1)-alpha}; the
    # middle-wall solution X = t = alpha + 2(n-1)*2 is therefore invisible
    # to it while full mode finds it.
    prob = GeneralizedPellProblem(D=72, N=9, modulus=4, residue=1, x_bound=9)
    assert solutions_bounded_oracle(prob, appendix_semantics=True) == []
    assert solutions_bounded_oracle(prob, appendix_semantics=False) == [(9, 1)]


def test_oracle_equivalence_randomized():
    rng = random.Random(3)
    for _ in range(150):
        d = rng.randint(2, 5000)
        if isqrt(d)[1]:
            d += 1
            if isqrt(d)[1]:
                continue
        modulus = rng.randint(1, 30)
        prob = GeneralizedPellProblem(
            D=d,
            N=rng.randint(-400, 400),
            modulus=modulus,
            residue=rng.randrange(modulus),
            x_bound=rng.randint(1, 800),
        )
        assert solutions_bounded(prob) == solutions_bounded_oracle(prob, False)


def test_solutions_are_exact_and_sorted():
    rng = random.Random(4)
    for _ in range(100):
        d = rng.randint(2, 10**5)
        if isqrt(d)[1]:
            continue
        modulus = rng.randint(1, 50)
        prob = GeneralizedPellProblem(
            D=d,
            N=rng.randint(-10**4, 10**4),
            modulus=modulus,
            residue=rng.randrange(modulus),
            x_bound=rng.randint(1, 5000),
        )
        sols = solutions_bounded(prob)
        assert sols == sorted(set(sols))
        for x, y in sols:
            assert x * x - d * y * y == prob.N
            assert y >= 1 and 0 < x <= prob.x_bound
            assert x % modulus in ((prob.residue) % modulus, (-prob.residue) % modulus)
