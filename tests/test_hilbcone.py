import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3invol import kernel
from k3invol.cli import main as cli_main
from k3invol.hilbcone import WallRecord, enumerate_walls, middle_wall, scan_rows
from kernel_reference import case_pairs
from lattice_reference import bb_form


def test_bb_form_examples():
    # the oracle in ray coordinates (X, Y) of X*H_n - 2tY*delta: H_n is
    # (1, 0), delta is (0, -1/(2t)) and the fixed class H_n - 2delta is (1, 1/t)
    for n in (2, 3, 10, 47):
        t = 4 * n - 3
        h, delta, fixed = (1, 0), (0, Fraction(-1, 2 * t)), (1, Fraction(1, t))
        assert bb_form(n, fixed, fixed) == 2
        assert bb_form(n, h, h) == 2 * t
        assert bb_form(n, delta, delta) == -2 * (n - 1)
        assert bb_form(n, h, delta) == 0


def test_movable_rays():
    # the boundary rays H_n and (2t-1)H_n - 4t*delta are (1, 0) and (2t-1, 2)
    assert kernel.mirror(3, 1, 0) == (17, 2)
    assert kernel.mirror(4, 1, 0) == (25, 2)
    for n in (2, 5, 30):
        t = 4 * n - 3
        assert kernel.mirror(n, 1, 0) == (2 * t - 1, 2)
        assert kernel.mirror(n, 2 * t - 1, 2) == (1, 0)


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


def test_wall_record_validation():
    with pytest.raises(ValueError):
        WallRecord.build(3, -1, 1, 10, 1)  # not a solution
    with pytest.raises(ValueError):
        WallRecord.build(3, -1, 1, 9, 0)  # Y must be positive
    with pytest.raises(ValueError):
        # (51, 6) solves the case but sits on the cone boundary
        WallRecord.build(3, -1, 1, 51, 6)
    with pytest.raises(ValueError, match="not congruent"):
        WallRecord.build(7, 0, 5, 25, 1)  # solves the case; 25 = 1 (mod 12)
    with pytest.raises(ValueError, match="wrong pairing against v"):
        WallRecord.build(3, -1, -1, 9, 1)  # |(v, a)| = 1, not alpha = -1


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
    # per-ray deduplication see many rays and repeated ones.  The injected
    # list holds the middle wall, as the real kernel's does
    t = 4 * n - 3
    inside = [((2 * t - 1) * Y // 2 + q, Y) for Y, q in pairs]  # Y(2t-1) < 2X
    sols = [_case_of(n, k * X, k * Y) for k in (1, 2) for X, Y in inside]
    sols.insert(0, (-1, 1, t, 1))
    best = {}
    for sol in sols:
        rho, alpha, X, Y = sol
        key = Fraction(Y, X)
        if key not in best or (X, Y, rho, alpha) < best[key][2:] + best[key][:2]:
            best[key] = sol
    expected = [best[k] for k in sorted(best)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "interior_walls", lambda n: sols)
        walls = enumerate_walls(n)
    assert [(w.rho, w.alpha, w.X, w.Y) for w in walls] == expected


def test_walls_verify_reports_a_kernel_without_the_middle_wall(monkeypatch, capsys):
    # nothing outside the kernel adds the middle wall, so a kernel that
    # lost it leaves the wall count asymmetric, and --verify says so
    monkeypatch.setattr(kernel, "interior_walls", lambda n: [])
    assert enumerate_walls(5) == []
    assert cli_main(["walls", "--n", "5", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "verify: FAIL wall count symmetry\n"


def test_walls_verify_reports_a_mirror_that_breaks_stability(monkeypatch, capsys):
    # a mirror that sends the middle ray (t, 1) to (t, 2) leaves the ray set
    monkeypatch.setattr(kernel, "mirror", lambda n, x, y: (x, 2 * y))
    assert cli_main(["walls", "--n", "5", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "verify: FAIL involution stability\n"


def test_enumerate_walls_small_n():
    # exhaustive search: (-1, 2) is locally impossible, so n = 3 has only
    # the middle wall
    walls = enumerate_walls(3)
    assert [(w.rho, w.alpha, w.X, w.Y) for w in walls] == [(-1, 1, 9, 1)]
    walls = enumerate_walls(2)
    assert [(w.X, w.Y) for w in walls] == [(5, 1)]


def test_chamber_count_examples():
    for n in (3, 47, 200):
        for full in (True, False):
            (row,) = scan_rows(n, n, full)
            assert row.c_n == 1, (n, full)


def test_scan_chambers_range_and_validation():
    assert [(r.n, r.c_n) for r in scan_rows(2, 3, full_congruence=False)] == [
        (2, 1),
        (3, 1),
    ]
    for full in (True, False):
        with pytest.raises(ValueError, match="need 2 <= n_min <= n_max"):
            scan_rows(5, 4, full)
        with pytest.raises(ValueError, match="need 2 <= n_min <= n_max"):
            scan_rows(1, 4, full)


def test_each_wall_built_once(monkeypatch):
    calls = [0]
    build = WallRecord.build.__func__

    def counting(cls, *args):
        calls[0] += 1
        return build(cls, *args)

    monkeypatch.setattr(WallRecord, "build", classmethod(counting))
    for full in (True, False):
        calls[0] = 0
        scan_rows(2, 60, full)
        assert calls[0] == 59, full  # one wall, the middle one, per n
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
    top = 10**6
    assert scan_rows(top - 2, top, False) == [(n, 1, ()) for n in range(top - 2, top + 1)]


def test_scan_rows_agreement():
    for full in (True, False):
        rows = scan_rows(2, 60, full)
        assert [r.n for r in rows] == list(range(2, 61))
        for r in rows:
            assert r.c_n == 1, (r.n, full)
            assert r.below_middle == (), (r.n, full)


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
    assert rows[7].c_n == 2
    assert [(w.rho, w.alpha, w.X, w.Y) for w in rows[7].below_middle] == [(5, 14, 26, 1)]
    for n in (5, 6, 8, 9):
        assert (rows[n].c_n, rows[n].below_middle) == (1, ()), n
    assert scan_rows(5, 9, False) == [(n, 1, ()) for n in range(5, 10)]
    assert cli_main(["scan", "--min-n", "7", "--max-n", "7"]) == 2
    out = capsys.readouterr().out
    assert "FINDING: mode disagreement: n=7 rho=5 alpha=14 X=26 Y=1" in out
    # CSV keeps stdout a table and reports the findings on stderr
    assert cli_main(["scan", "--min-n", "7", "--max-n", "7", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "n,C_n,beyond_verified\n7,2,false\n"
    assert captured.err == (
        "FINDING: mode disagreement: n=7 rho=5 alpha=14 X=26 Y=1\n"
        "FINDING: C_n > 1: n=7 C_n=2\n"
    )
    assert cli_main(["walls", "--n", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n=7 t=25 C_n=2 interior_walls=2"
    assert lines[1].startswith("rho=5 alpha=14  X=26 Y=1")
    assert lines[1].endswith("  [below middle]")
    assert lines[2].endswith("  [middle]")


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
    (app,) = scan_rows(n, n, False)
    assert (row.c_n, app.c_n) == (1 + len(below), 1)
    assert [(w.rho, w.alpha, w.X, w.Y) for w in row.below_middle] == sorted(
        below, key=lambda sol: Fraction(sol[3], sol[2])
    )
    assert app.below_middle == ()

    walls = ["walls", "--n", str(n), "--format", "json"]
    scan = ["scan", "--min-n", str(n), "--max-n", str(n), "--format", "json"]
    for mode, c_n in (("appendix", app.c_n), ("full", row.c_n)):
        assert cli_main([*walls, "--mode", mode]) == 0
        assert json.loads(capsys.readouterr().out)["C_n"] == c_n, mode
        code = cli_main([*scan, "--mode", mode])
        assert json.loads(capsys.readouterr().out)["rows"][0]["C_n"] == c_n, mode
        assert code == (0 if mode == "appendix" else 2), mode
