import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3invol import kernel
from k3invol.cli import main as cli_main
from k3invol.hilbcone import (
    DivisorClass,
    WallRecord,
    bb_form,
    enumerate_walls,
    involution_action,
    middle_wall,
    movable_rays,
    scan_rows,
)
from k3invol.mukai import MukaiVector
from pell_reference import GeneralizedPellProblem, case_pairs, solutions_bounded


def test_bb_form_examples():
    for n in (2, 3, 10, 47):
        t = 4 * n - 3
        fixed = DivisorClass(1, -2)
        assert bb_form(n, fixed, fixed) == 2
        assert bb_form(n, DivisorClass(1, 0), DivisorClass(1, 0)) == 2 * t
        assert bb_form(n, DivisorClass(0, 1), DivisorClass(0, 1)) == -2 * (n - 1)


def test_involution_examples():
    for n in (2, 3, 4, 17):
        t = 4 * n - 3
        assert involution_action(n, DivisorClass(1, 0)) == (2 * t - 1, -4 * t)
        assert involution_action(n, DivisorClass(1, -2)) == (1, -2)
        delta_img = involution_action(n, DivisorClass(0, 1))
        assert delta_img == (4 * (n - 1), -(8 * n - 7))
        # applying twice must give back delta
        assert involution_action(n, delta_img) == (0, 1)


_coefficients = st.integers(-(10**12), 10**12)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 10**9),
    st.builds(DivisorClass, _coefficients, _coefficients),
    st.builds(DivisorClass, _coefficients, _coefficients),
)
def test_involution_is_q_isometry_and_involution(n, c, d):
    fc, fd = involution_action(n, c), involution_action(n, d)
    assert bb_form(n, fc, fd) == bb_form(n, c, d)
    assert involution_action(n, fc) == c


def test_movable_rays():
    assert movable_rays(3) == ((1, 0), (17, -36))
    assert movable_rays(4) == ((1, 0), (25, -52))
    for n in (2, 5, 30):
        first, second = movable_rays(n)
        assert involution_action(n, first) == second


def test_cattaneo_cases_examples():
    assert list(case_pairs(3, False)) == [(-1, 1), (-1, 2)]
    cases5 = list(case_pairs(5, False))
    assert [c for c in cases5 if c[0] == -1] == [(-1, a) for a in range(1, 5)]
    assert [c for c in cases5 if c[0] == 0] == [(0, 3), (0, 4)]
    assert [c for c in cases5 if c[0] >= 1] == []  # alpha range 4rho+1 > n-1
    cases9 = list(case_pairs(9, False))
    assert [c for c in cases9 if c[0] == 1] == [(1, a) for a in range(5, 9)]
    assert [c for c in cases9 if c[0] == 2] == []  # alpha in [9, 8] empty


def test_cattaneo_cases_appendix_compat_drops_top_rho():
    # n = 10: floor((n-1)/4) = 2, and (2, 9) is a real case the literal
    # range(1, int((n-1)/4)) never visits
    assert (2, 9) in case_pairs(10, False)
    assert (2, 9) not in case_pairs(10, True)
    assert (1, 5) in case_pairs(10, True)


def test_middle_wall_record():
    for n in (2, 3, 7, 50, 200):
        t = 4 * n - 3
        rec = middle_wall(n)
        assert (rec.rho, rec.alpha, rec.X, rec.Y) == (-1, 1, t, 1)
        assert rec.a_vec == MukaiVector(2, -1, 2 * n - 1)
        assert rec.ray == (t, -2 * t)
        assert Fraction(rec.Y, rec.X) == Fraction(1, t)
        assert rec.is_middle and not rec.below_middle


def test_wall_record_validation():
    with pytest.raises(ValueError):
        WallRecord.build(3, -1, 1, 10, 1)  # not a solution
    with pytest.raises(ValueError):
        WallRecord.build(3, -1, 1, 9, 0)  # Y must be positive
    with pytest.raises(ValueError):
        # (51, 6) solves the case but sits on the cone boundary
        WallRecord.build(3, -1, 1, 51, 6)


def _case_of(n, X, Y):
    """The (rho, alpha, X, Y) with alpha = X mod 2(n-1) and rho solving the
    case equation: it passes every check of WallRecord.build except,
    possibly, the cone test, so any positive (X, Y) gives a candidate."""
    m = 2 * (n - 1)
    alpha = X % m
    rho = (alpha * alpha - X * X + 4 * (4 * n - 3) * (n - 1) * Y * Y) // (2 * m)
    return rho, alpha, X, Y


@st.composite
def _rays_near_the_tests(draw):
    """(n, X, Y) positive, often within a few units of the middle wall
    X = tY or of the cone boundary Y(2t-1) = 2X, where the exact tests flip."""
    n = draw(st.integers(2, 10**4))
    t = 4 * n - 3
    k = draw(st.integers(1, 10**6))
    d = draw(st.integers(-3, 3))
    X, Y = draw(
        st.sampled_from(
            [
                (t * k + d, k),
                ((2 * t - 1) * k + d, 2 * k),
                (draw(st.integers(1, 10**9)), draw(st.integers(1, 10**9))),
            ]
        )
    )
    return n, X, Y


@settings(max_examples=500, deadline=None)
@given(_rays_near_the_tests())
def test_integer_slope_tests_match_fraction_oracle(ray):
    n, X, Y = ray
    t = 4 * n - 3
    slope = Fraction(Y, X)
    inside = slope < Fraction(2, 2 * t - 1)
    try:
        rec = WallRecord.build(n, *_case_of(n, X, Y))
    except ValueError as exc:
        assert not inside and "movable cone" in str(exc), exc
        return
    assert inside
    assert rec.is_middle == (slope == Fraction(1, t))
    assert rec.below_middle == (slope < Fraction(1, t))


def test_enumerate_walls_sorted_by_fraction_slope():
    for full in (True, False):
        for n in range(2, 301):
            slopes = [Fraction(w.Y, w.X) for w in enumerate_walls(n, full)]
            assert slopes == sorted(slopes), (n, full)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 200),
    st.lists(st.tuples(st.integers(1, 50), st.integers(1, 100)), max_size=30),
)
def test_many_walls_sorted_and_deduplicated_like_fraction_oracle(n, pairs):
    # real n have one wall each; inject many valid cases, on both sides of
    # the middle wall and each also doubled, so that the sort and the
    # per-ray deduplication see many rays and repeated ones
    t = 4 * n - 3
    inside = [((2 * t - 1) * Y // 2 + q, Y) for Y, q in pairs]  # Y(2t-1) < 2X
    sols = [_case_of(n, k * X, k * Y) for k in (1, 2) for X, Y in inside]
    best = {}
    for sol in [(-1, 1, t, 1), *sols]:
        rho, alpha, X, Y = sol
        key = Fraction(Y, X)
        if key not in best or (X, Y, rho, alpha) < best[key][2:] + best[key][:2]:
            best[key] = sol
    expected = [best[k] for k in sorted(best)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "interior_walls", lambda n: sols)
        walls = enumerate_walls(n)
    assert [(w.rho, w.alpha, w.X, w.Y) for w in walls] == expected


def test_enumerate_walls_small_n():
    # exhaustive search: (-1, 2) is locally impossible, so n = 3 has only
    # the middle wall
    walls = enumerate_walls(3)
    assert [(w.rho, w.alpha, w.X, w.Y) for w in walls] == [(-1, 1, 9, 1)]
    walls = enumerate_walls(2)
    assert [(w.X, w.Y) for w in walls] == [(5, 1)]


def test_walls_unique_up_to_200():
    for n in range(2, 201, 7):
        walls = enumerate_walls(n)
        assert len(walls) == 1
        assert walls[0].is_middle
        assert Fraction(walls[0].Y, walls[0].X) == Fraction(1, 4 * n - 3)


def test_wall_invariants_and_involution_stability():
    for n in range(2, 101, 3):
        t = 4 * n - 3
        walls = enumerate_walls(n)
        rays = {w.primitive_ray() for w in walls}
        for w in walls:
            assert w.X * w.X - 4 * t * (n - 1) * w.Y * w.Y == w.alpha**2 - 4 * w.rho * (
                n - 1
            )
            assert w.X % (2 * (n - 1)) in (
                w.alpha % (2 * (n - 1)),
                (-w.alpha) % (2 * (n - 1)),
            )
            assert 0 < Fraction(w.Y, w.X) < Fraction(2, 2 * t - 1)
            # mirror ray under the involution stays in the set
            mx = (2 * t - 1) * w.X - 8 * t * (n - 1) * w.Y
            my = 2 * w.X - (8 * n - 7) * w.Y
            g = math.gcd(mx, my)
            assert (mx // g, my // g) in rays


def test_chamber_count_examples():
    for n in (3, 47, 200):
        (row,) = scan_rows(n, n)
        assert row.c_full == row.c_appendix == 1


def test_scan_chambers_range_and_validation():
    assert [(r.n, r.c_appendix) for r in scan_rows(2, 3)] == [(2, 1), (3, 1)]
    with pytest.raises(ValueError):
        scan_rows(5, 4)
    with pytest.raises(ValueError):
        scan_rows(1, 4)


def test_each_wall_built_once(monkeypatch):
    calls = [0]
    build = WallRecord.build.__func__

    def counting(cls, *args):
        calls[0] += 1
        return build(cls, *args)

    monkeypatch.setattr(WallRecord, "build", classmethod(counting))
    scan_rows(2, 60)
    assert calls[0] == 59  # one wall, the middle one, per n
    for full in (True, False):
        for n in (2, 3, 47):
            calls[0] = 0
            enumerate_walls(n, full)
            assert calls[0] == 1, (n, full)

    # the appendix mode has the middle wall alone, by the proof in the
    # hilbcone module docstring, and never runs the kernel
    def no_kernel(n):
        raise AssertionError("the appendix mode called the kernel")

    monkeypatch.setattr(kernel, "interior_walls", no_kernel)
    for n in (2, 3, 47, 10**6):
        assert enumerate_walls(n, False) == [middle_wall(n)], n


def test_scan_rows_agreement():
    rows = scan_rows(2, 60)
    assert [r.n for r in rows] == list(range(2, 61))
    for r in rows:
        assert r.c_full == r.c_appendix == 1
        assert not r.disagreement
        assert r.full_only_below == ()


def inject_full_only_witness(monkeypatch):
    """At n = 7, add (rho, alpha, X, Y) = (n-2, 2n, 4n-2, 1) to the kernel's
    solutions: it builds, lies below the middle wall, and the literal
    congruence mode cannot see it."""
    real = kernel.interior_walls

    def with_witness(n):
        sols = real(n)
        return [*sols, (n - 2, 2 * n, 4 * n - 2, 1)] if n == 7 else sols

    monkeypatch.setattr(kernel, "interior_walls", with_witness)


def test_scan_reports_full_only_witness(monkeypatch, capsys):
    inject_full_only_witness(monkeypatch)
    rows = {r.n: r for r in scan_rows(5, 9)}
    assert sorted(rows) == [5, 6, 7, 8, 9]
    assert (rows[7].c_full, rows[7].c_appendix) == (2, 1)
    assert rows[7].disagreement
    assert [(w.rho, w.alpha, w.X, w.Y) for w in rows[7].full_only_below] == [(5, 14, 26, 1)]
    for n in (5, 6, 8, 9):
        assert (rows[n].c_full, rows[n].c_appendix, rows[n].full_only_below) == (1, 1, ())
    assert cli_main(["scan", "--min-n", "7", "--max-n", "7"]) == 2
    out = capsys.readouterr().out
    assert "FINDING: mode disagreement: n=7 rho=5 alpha=14 X=26 Y=1" in out


def test_appendix_modes_agree_on_injected_walls(monkeypatch, capsys):
    # valid walls at n = 13 (t = 49, 2(n-1) = 24, top rho 3) on both sides
    # of the middle wall: X >= 2(n-1) in the right class below the cut, the
    # top rho, and literal X = alpha, whose class (0, -Y, X) has rho = tY^2
    n, t = 13, 49
    below = [(1, 20, 52, 1), (3, 34, 58, 1), (t, 50, 50, 1)]
    above = [(1, 21, 195, 4), (3, 61, 875, 18), (9 * t, 3 * t - 1, 3 * t - 1, 3)]
    sols = sorted([(-1, 1, t, 1), *below, *above])
    monkeypatch.setattr(kernel, "interior_walls", lambda n: sols)
    assert all(X > t * Y for _, _, X, Y in below)
    assert all(X < t * Y for _, _, X, Y in above)

    (row,) = scan_rows(n, n)
    assert (row.c_full, row.c_appendix) == (1 + len(below), 1)
    assert [(w.rho, w.alpha, w.X, w.Y) for w in row.full_only_below] == sorted(
        below, key=lambda sol: Fraction(sol[3], sol[2])
    )

    walls = ["walls", "--n", str(n), "--format", "json"]
    scan = ["scan", "--min-n", str(n), "--max-n", str(n), "--format", "json"]
    for mode, c_n in (("appendix", row.c_appendix), ("full", row.c_full)):
        assert cli_main([*walls, "--mode", mode]) == 0
        assert json.loads(capsys.readouterr().out)["C_n"] == c_n, mode
        code = cli_main([*scan, "--mode", mode])
        assert json.loads(capsys.readouterr().out)["rows"][0]["C_n"] == c_n, mode
        assert code == (0 if mode == "appendix" else 2), mode


def test_kernel_matches_pell_reference():
    """The scan kernel must agree, case by case, with the pure reference
    solver plus the exact interior-slope predicate."""
    for n in range(2, 41):
        t = 4 * n - 3
        m = 2 * (n - 1)
        sols = kernel.interior_walls(n)
        for rho, alpha in case_pairs(n, False):
            a_val = alpha * alpha - 4 * rho * (n - 1)
            got = [(x, y) for r, a, x, y in sols if (r, a) == (rho, alpha)]
            if a_val <= 0:
                assert got == []
                continue
            x_bound = math.isqrt((2 * t - 1) ** 2 * a_val)
            prob = GeneralizedPellProblem(
                D=4 * t * (n - 1),
                N=a_val,
                modulus=m,
                residue=alpha % m,
                x_bound=x_bound,
            )
            ref = [
                (x, y)
                for x, y in solutions_bounded(prob)
                if (2 * t - 1) * y < 2 * x  # strictly inside the cone
            ]
            assert sorted(got) == sorted(ref), (n, rho, alpha)
