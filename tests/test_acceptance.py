"""Acceptance suite: one test per criterion, stated tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Criteria 1 and 13 are timed against their wall-clock
targets (60 s for the scan to 200 and 600 s for the full scan to 1000,
both in one process); everything else is exact, zero tolerance.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from k3invol import hilbcone, lattice, mukai, sigma
from k3invol.cli import main as cli_main
from k3invol.mukai import MukaiContext, MukaiVector, mukai_pairing
from k3invol.pell import fundamental_solution, isqrt, minimal_solution_mixed
from pell_reference import (
    GeneralizedPellProblem,
    solutions_bounded,
    solutions_bounded_oracle,
)


def _report(num, text):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def test_01_chamber_scan_modes(capsys):
    t0 = time.perf_counter()
    rows = hilbcone.scan_rows(2, 200)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"appendix scan took {elapsed:.1f}s (limit 60s)"
    assert [r.n for r in rows] == list(range(2, 201))
    assert all(r.c_appendix == 1 for r in rows)

    disagreements = [r for r in rows if r.disagreement]
    # Record the full-congruence output; a disagreement is a finding that
    # the CLI must surface with exit code 2, not a failure of the tool.
    code = cli_main(["scan", "--min-n", "2", "--max-n", "200", "--mode", "full"])
    out = capsys.readouterr().out
    if disagreements:
        assert code == 2
        for r in disagreements:
            for w in r.full_only_below:
                assert f"n={r.n} rho={w.rho} alpha={w.alpha} X={w.X} Y={w.Y}" in out
    else:
        assert code == 0
        assert "FINDING" not in out
    with capsys.disabled():
        _report(
            1,
            f"appendix scan 2..200 all C_n=1 in {elapsed:.2f}s; "
            f"full mode recorded, {len(disagreements)} disagreements",
        )


def test_02_pell_identities(capsys):
    for n in range(2, 101):
        t = 4 * n - 3
        assert fundamental_solution(t * (n - 1)) == (8 * n - 7, 4)
    for n in range(3, 51):
        t = 4 * n - 3
        sol = minimal_solution_mixed(n - 1, t)
        assert sol == (2, 1)
        # brute-force minimality: no x below the returned one works
        for x in range(1, sol.x):
            m = (n - 1) * x * x + 1
            assert m % t != 0 or not isqrt(m // t)[1]
    with capsys.disabled():
        _report(2, "fundamental (8n-7,4) for n in [2,100]; mixed minimum (2,1) for n in [3,50]")


def test_03_middle_wall_everywhere(capsys):
    for n in range(2, 201):
        t = 4 * n - 3
        walls = hilbcone.enumerate_walls(n, full_congruence=True)
        assert len(walls) == 1  # the single interior ray, of slope exactly 1/t
        (w,) = walls
        assert (w.rho, w.alpha, w.X, w.Y) == (-1, 1, t, 1)
        assert Fraction(w.Y, w.X) == Fraction(1, t)
        assert w.a_vec in (MukaiVector(2, -1, 2 * n - 1), MukaiVector(-2, 1, -(2 * n - 1)))
        ctx = MukaiContext(n)
        assert mukai_pairing(ctx, w.a_vec, w.a_vec) == -2
        v = MukaiVector(1, 0, -(n - 1))
        assert abs(mukai_pairing(ctx, v, w.a_vec)) == 1
    with capsys.disabled():
        _report(3, "middle wall (-1,1,t,1) with a = +-(2,-1,2n-1) present for n in [2,200]")


def test_04_wall_vector_invariants(capsys):
    checked = 0
    for n in range(2, 101):
        t = 4 * n - 3
        m = 2 * (n - 1)
        ctx = MukaiContext(n)
        v = MukaiVector(1, 0, -(n - 1))
        for w in hilbcone.enumerate_walls(n, full_congruence=True):
            assert w.a_vec.r == int(w.a_vec.r)  # integrality is by construction
            assert mukai_pairing(ctx, w.a_vec, w.a_vec) == 2 * w.rho
            assert abs(mukai_pairing(ctx, v, w.a_vec)) == w.alpha
            assert w.X % m in (w.alpha % m, (-w.alpha) % m)
            assert w.X * w.X - 4 * t * (n - 1) * w.Y * w.Y == w.alpha**2 - 4 * w.rho * (n - 1)
            checked += 1
    with capsys.disabled():
        _report(4, f"wall-vector invariants hold for all {checked} walls, n <= 100")


def test_05_no_spherical_brute_force(capsys):
    # The window 0 < (s, v^(i)) <= (v^(i))^2/2 contains a = (0,1) exactly
    # when 2(2i+3) <= (v^(i))^2, i.e. n >= (i+2)(i+3); at i = r_max it is
    # empty of spherical classes apart from the n = m(m+1), i = m-2 family.
    pairs = 0
    for n in range(3, 201):
        ctx = MukaiContext(n)
        z, square = isqrt(4 * n + 1)
        m = (z - 1) // 2 if square else None
        for i in range(-1, mukai.r_max(ctx) + 1):
            vi = mukai.v_i(ctx, i)
            vi_sq = mukai_pairing(ctx, vi, vi)
            if vi_sq <= 0:
                continue
            expected = set()
            if 2 * (2 * i + 3) <= vi_sq:
                expected.add((0, 1))
            if square and n == m * (m + 1) and i == m - 2:
                expected.add((1, -(i + 2)))
            assert mukai.expected_spherical_window(ctx, i, 50) == expected, (n, i)
            got = set(mukai.spherical_search(ctx, i, 50))
            assert got == expected, (n, i, got, expected)
            assert got <= {(0, 1), (1, -(i + 2))}
            pairs += 1
    with capsys.disabled():
        _report(5, f"spherical window = {{a when admissible}} (+ v^(i+1) iff n=m(m+1), i=m-2) on {pairs} (n,i) pairs")


def test_06_no_positive_decomposition(capsys):
    pairs = 0
    for n in range(3, 101):
        ctx = MukaiContext(n)
        for i in range(0, mukai.r_max(ctx) + 1):
            assert mukai.positive_decomposition_search(ctx, i, 4 * n) == []
            pairs += 1
    with capsys.disabled():
        _report(6, f"no positive two-term decomposition of v^(i) on {pairs} (n,i) pairs, bound 4n")


def test_07_gram_identities(capsys):
    for n in range(2, 501):
        ctx = MukaiContext(n)
        v, a, w, u = mukai.standard_vectors(ctx)
        assert mukai_pairing(ctx, v, v) == 2 * n - 2
        assert mukai_pairing(ctx, a, a) == -2
        assert mukai_pairing(ctx, v, a) == 1
        assert mukai_pairing(ctx, w, w) == 2 * n - 6
        assert mukai_pairing(ctx, a, w) == 3
        assert mukai_pairing(ctx, u, u) == 2
        assert mukai_pairing(ctx, u, w) == 0
        for i in range(-1, mukai.r_max(ctx) + 3):
            vi = mukai.v_i(ctx, i)
            assert mukai_pairing(ctx, vi, vi) + 2 == 2 * n - 2 * (i + 1) * (i + 2)
    with capsys.disabled():
        _report(7, "Gram identities and (v^(i))^2 + 2 = 2n - 2(i+1)(i+2) for n <= 500")


def test_08_involution_action(capsys):
    rng = random.Random(12)
    for n in range(2, 101):
        t = 4 * n - 3
        assert hilbcone.involution_action(n, hilbcone.DivisorClass(1, 0)) == (
            2 * t - 1,
            -4 * t,
        )
        assert hilbcone.involution_action(n, hilbcone.DivisorClass(1, -2)) == (1, -2)
    for _ in range(500):
        n = rng.randint(2, 100)
        c = hilbcone.DivisorClass(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        d = hilbcone.DivisorClass(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        fc = hilbcone.involution_action(n, c)
        assert hilbcone.involution_action(n, fc) == c
        assert hilbcone.bb_form(n, fc, hilbcone.involution_action(n, d)) == hilbcone.bb_form(n, c, d)
    with capsys.disabled():
        _report(8, "involution: correct boundary image, fixes H_n-2delta, order two, q-isometry")


def test_09_eichler_verification(capsys):
    t0 = time.perf_counter()
    for n in range(2, 101):
        t = 4 * n - 3
        alpha, fixed, kappa = lattice.build_alpha(n)  # image identities verified inside
        b = lattice.xi_basis(alpha.lattice)
        u, v, v1, ell = b["u"], b["v"], b["v1"], b["l"]
        assert alpha.apply(u + t * v - 2 * ell) == fixed == u + v
        expect = 2 * (n - 1) * (u - v) + 4 * (n - 1) * v1 - ell
        assert alpha.apply(2 * (n - 1) * (u + t * v) - t * ell) == kappa == expect
        assert alpha.is_isometry()
        assert lattice.acts_trivially_on_discriminant(alpha)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"eichler suite took {elapsed:.1f}s (limit 30s)"
    with capsys.disabled():
        _report(9, f"rank-23 isometry, both images and discriminant triviality for n in [2,100] in {elapsed:.1f}s")


def test_10_sigma_invariants(capsys):
    rational = []
    for n in range(4, 601):
        ns = sigma.ns_sigma(n)  # integrality and orthogonality checked inside
        ctx = MukaiContext(n)
        _, _, w, u = mukai.standard_vectors(ctx)
        assert mukai_pairing(ctx, ns.kappa_vec, u) == 0
        assert mukai_pairing(ctx, ns.kappa_vec, w) == 0
        if sigma.positive_cone_rational(n):
            rational.append(n)
    assert rational == [7]
    v4 = sigma.bir_finiteness(4)
    assert v4.status is sigma.BirStatus.FINITE and v4.witness == (18, 5)
    assert sigma.bir_finiteness(7).status is sigma.BirStatus.FINITE
    for np_ in range(2, 67):
        assert sigma.bir_finiteness(3 * np_).status is sigma.BirStatus.INFINITE
    with capsys.disabled():
        _report(10, "kappa lattice data for n in [4,600]; rational rays only at n=7; Bir verdicts")


def test_11_dimension_cross_checks(capsys):
    for n in range(3, 301):
        r = sigma.dimension_report(n)
        assert r.h0_full == (n + 1) * (n + 2) // 2
        assert r.proj_dim == n * (n + 3) // 2
        assert r.pluecker_linear_dim == n * (n - 1) // 2 == sigma.h0_sigma(n, 1)
        assert r.pluecker_ambient_dim == (n - 2) * (n + 1) // 2
    with capsys.disabled():
        _report(11, "dimension formulas agree for n in [3,300]")


def test_12_oracle_equivalence(capsys):
    rng = random.Random(13)
    count = 0
    while count < 500:
        d = rng.randint(2, 10**6)
        if isqrt(d)[1]:
            continue
        modulus = rng.randint(1, 500)
        x_bound = rng.randint(100, 2000) if count % 10 else rng.randint(5000, 10**4)
        prob = GeneralizedPellProblem(
            D=d,
            N=rng.randint(-10**4, 10**4),
            modulus=modulus,
            residue=rng.randrange(modulus),
            x_bound=x_bound,
        )
        assert solutions_bounded(prob) == solutions_bounded_oracle(prob, False)
        count += 1
    with capsys.disabled():
        _report(12, "solutions_bounded == double-loop oracle on 500 randomized problems")


def test_13_full_scan_to_1000(capsys):
    # scans run in one process; a leftover JOBS in the environment is ignored
    env = dict(os.environ, JOBS="8")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "k3invol.cli",
            "scan",
            "--min-n",
            "2",
            "--max-n",
            "1000",
            "--mode",
            "full",
            "--format",
            "csv",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"full scan took {elapsed:.1f}s (limit 600s)"
    assert proc.returncode in (0, 2)
    lines = proc.stdout.splitlines()
    assert lines[0] == "n,C_n,beyond_verified"
    rows = [line.split(",") for line in lines[1:] if line]
    assert len(rows) == 999
    assert rows[-1][0] == "1000" and rows[-1][2] == "true"  # extension clearly labeled
    assert rows[0] == ["2", "1", "false"]
    counts = {int(r[0]): int(r[1]) for r in rows}
    beyond = {n: c for n, c in counts.items() if n > 200}
    with capsys.disabled():
        _report(
            13,
            f"full-congruence scan 2..1000 in {elapsed:.1f}s; "
            f"C_n=1 for {sum(1 for c in counts.values() if c == 1)}/999 values "
            f"({sum(1 for c in beyond.values() if c == 1)}/800 beyond the verified range)",
        )
