import dataclasses
import json
import os
import subprocess
import sys
import time

import k3invol
from k3invol import hilbcone, pell, sigma
from k3invol.pell import PellSolution, fundamental_solution, negative_pell_minimal
from k3invol.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_text(capsys):
    code, out, _ = run(capsys, ["scan", "--min-n", "2", "--max-n", "6"])
    assert code == 0
    assert out.splitlines() == [f"n={n} C_n=1" for n in range(2, 7)]


def test_scan_appendix_mode(capsys):
    code, out, _ = run(
        capsys, ["scan", "--min-n", "4", "--max-n", "20", "--mode", "appendix"]
    )
    assert code == 0
    assert all(line.endswith("C_n=1") for line in out.splitlines())


def test_scan_json_roundtrip_and_schema(capsys):
    code, out, _ = run(
        capsys, ["scan", "--min-n", "199", "--max-n", "202", "--format", "json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert json.dumps(obj, sort_keys=True, indent=2) == out.rstrip("\n")
    assert [r["n"] for r in obj["rows"]] == [199, 200, 201, 202]
    assert [r["beyond_verified"] for r in obj["rows"]] == [False, False, True, True]
    assert all(r["C_n"] == 1 for r in obj["rows"])
    assert obj["findings"] == []


def test_scan_extension_label_text(capsys):
    code, out, _ = run(capsys, ["scan", "--min-n", "200", "--max-n", "201"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=200 C_n=1"
    assert lines[1] == "n=201 C_n=1  [extension]"


def test_scan_csv(capsys):
    code, out, _ = run(
        capsys, ["scan", "--min-n", "2", "--max-n", "4", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines() == [
        "n,C_n,beyond_verified",
        "2,1,false",
        "3,1,false",
        "4,1,false",
    ]


def test_scan_byte_identical_across_jobs(capsys):
    _, out1, _ = run(capsys, ["scan", "--min-n", "2", "--max-n", "40", "--jobs", "1"])
    _, out2, _ = run(capsys, ["scan", "--min-n", "2", "--max-n", "40", "--jobs", "3"])
    assert out1 == out2


def test_scan_usage_error(capsys):
    code, _, err = run(capsys, ["scan", "--min-n", "5", "--max-n", "4"])
    assert code == 1
    assert "error" in err


def test_scan_reports_disagreement_with_witness(capsys, monkeypatch):
    wall = hilbcone.WallRecord.build(3, -1, 1, 9, 1)
    fake = [
        hilbcone.ScanRow(n=3, c_full=2, c_appendix=1, full_only_below=(wall,))
    ]
    monkeypatch.setattr(hilbcone, "scan_rows", lambda *a, **k: fake)
    code, out, _ = run(capsys, ["scan", "--min-n", "3", "--max-n", "3"])
    assert code == 2
    assert "FINDING" in out
    assert "n=3 rho=-1 alpha=1 X=9 Y=1" in out
    assert "C_n > 1" in out


def test_scan_appendix_reports_chamber_count(capsys, monkeypatch):
    fake = [hilbcone.ScanRow(n=3, c_full=1, c_appendix=2, full_only_below=())]
    monkeypatch.setattr(hilbcone, "scan_rows", lambda *a, **k: fake)
    code, out, _ = run(
        capsys, ["scan", "--min-n", "3", "--max-n", "3", "--mode", "appendix"]
    )
    assert code == 2
    assert "FINDING: C_n > 1: n=3 C_n=2" in out
    assert "mode disagreement" not in out


def test_walls_text_and_json(capsys):
    code, out, _ = run(capsys, ["walls", "--n", "3"])
    assert code == 0
    assert "rho=-1 alpha=1  X=9 Y=1" in out
    assert "[middle]" in out

    code, out, _ = run(capsys, ["walls", "--n", "200", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 200 and obj["C_n"] == 1
    (rec,) = obj["walls"]
    assert rec == {
        "rho": -1,
        "alpha": 1,
        "X": "797",
        "Y": "1",
        "slope": "1/797",
        "a_vec": ["2", "-1", "399"],
    }


def test_walls_verify(capsys):
    code, out, _ = run(capsys, ["walls", "--n", "17", "--verify"])
    assert code == 0
    assert "checks passed" in out


def test_walls_csv(capsys):
    code, out, _ = run(capsys, ["walls", "--n", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == [
        "n,rho,alpha,X,Y,slope,a_r,a_c,a_s",
        "2,-1,1,5,1,1/5,2,-1,3",
    ]


def test_sigma_command(capsys):
    code, out, _ = run(capsys, ["sigma", "--n", "4"])
    assert code == 0
    assert "finite" in out and "witness=(18,5)" in out

    code, out, _ = run(capsys, ["sigma", "--n", "6", "--format", "json"])
    obj = json.loads(out)
    assert obj["bir"]["status"] == "infinite"
    assert obj["ns_lattice"]["kappa_square"] == -14

    code, out, _ = run(capsys, ["sigma", "--n", "7", "--verify"])
    assert code == 0 and "checks passed" in out


def test_strata_command(capsys):
    code, out, _ = run(capsys, ["strata", "--n", "6"])
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("k=")]
    assert len(lines) == 2
    assert "fiber=2" in lines[0] and "fiber=6" in lines[1]
    code, out, _ = run(capsys, ["strata", "--n", "6", "--verify"])
    assert code == 0 and "verify: 4 checks passed" in out


def test_strata_verify_reports_wrong_row(capsys, monkeypatch):
    from k3invol import mukai

    good = mukai.strata_table(mukai.MukaiContext(6))
    bad = [good[0], dataclasses.replace(good[1], dim_Jk=good[1].dim_Jk + 1)]
    monkeypatch.setattr(mukai, "strata_table", lambda ctx: bad)
    code, out, err = run(capsys, ["strata", "--n", "6", "--verify"])
    assert code == 1
    assert "checks passed" not in out
    assert "verify: FAIL" in err and "k=1" in err


def test_lemmas_command(capsys):
    code, out, _ = run(capsys, ["lemmas", "--n", "6"])
    assert code == 0
    assert "FINDING" not in out
    code, out, _ = run(capsys, ["lemmas", "--n", "12", "--format", "json"])
    obj = json.loads(out)
    assert obj["surprises"] == []
    spherical = {row["i"]: row["pairs"] for row in obj["spherical"]}
    assert [1, -3] in spherical[1]  # n = 12 = 3*4, the extra class at i = m-2


def test_lemmas_surprise_exits_two(capsys, monkeypatch):
    from k3invol import cli, mukai

    monkeypatch.setattr(
        cli.mukai, "spherical_search", lambda ctx, i, bound: [(0, 1), (5, 5)]
    )
    code, out, _ = run(capsys, ["lemmas", "--n", "7"])
    assert code == 2
    assert "FINDING" in out


def test_lemmas_clean_for_every_small_n(capsys):
    for n in range(3, 201):
        code, out, _ = run(capsys, ["lemmas", "--n", str(n)])
        assert code == 0 and "FINDING" not in out, (n, out)


def test_lemmas_expected_window_uses_search_box(capsys):
    # n = 12, i = 1 expects v^(2) = (1, -3), which lies outside |y| <= 2;
    # at bound 0 not even a = (0, 1) is in the box.
    for argv in (["--n", "12", "--bound", "2"], ["--n", "6", "--bound", "0"]):
        code, out, _ = run(capsys, ["lemmas", *argv])
        assert code == 0 and "FINDING" not in out, (argv, out)


def test_lemmas_rejects_negative_bound(capsys):
    # a negative bound searches an empty box: a vacuous certificate
    code, out, err = run(capsys, ["lemmas", "--n", "6", "--bound", "-1"])
    assert code == 1
    assert out == ""
    assert "--bound" in err


def test_lemmas_runs_without_numpy():
    # the package needs only the standard library: make "import numpy" fail
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(k3invol.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys; sys.modules['numpy'] = None; "
        "from k3invol.cli import main; "
        "sys.exit(main(['lemmas', '--n', '12', '--format', 'json']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["surprises"] == []


def test_scan_without_pool_does_not_import_it():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(k3invol.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys; from k3invol.cli import main; "
        "code = main(['scan', '--min-n', '2', '--max-n', '5', '--jobs', '1']); "
        "sys.exit(code or 'concurrent.futures.process' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("C_n=1") == 4


def test_pell_command(capsys):
    code, out, _ = run(capsys, ["pell", "--kind", "fundamental", "--d", "13", "--verify"])
    assert code == 0 and "(649,180)" in out
    code, out, _ = run(capsys, ["pell", "--kind", "negative", "--d", "3"])
    assert code == 0 and "unsolvable" in out
    code, out, _ = run(
        capsys, ["pell", "--kind", "mixed", "--p", "2", "--q", "9", "--verify"]
    )
    assert code == 0 and "(2,1)" in out
    code, _, err = run(capsys, ["pell", "--kind", "mixed"])
    assert code == 1


def test_pell_verify_is_fast_for_long_periods(capsys):
    # the fundamental solution of D = 61 has y = 226153980; checking every
    # smaller y would take minutes
    t0 = time.perf_counter()
    code, out, _ = run(capsys, ["pell", "--kind", "fundamental", "--d", "61", "--verify"])
    assert code == 0
    assert "minimal (x,y)=(1766319049,226153980)" in out
    assert "verify: equation and minimality confirmed" in out
    code, out, _ = run(capsys, ["pell", "--kind", "negative", "--d", "61", "--verify"])
    assert code == 0
    assert "minimal (x,y)=(29718,3805)" in out
    assert "verify: equation and minimality confirmed" in out
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"pell --verify took {elapsed:.1f}s"


def test_pell_verify_rejects_non_minimal_solution(capsys, monkeypatch):
    # the square of the fundamental solution and the cube of the minimal
    # negative one solve the same equations but are not minimal
    def square(d):
        x, y = fundamental_solution(d)
        return PellSolution(x * x + d * y * y, 2 * x * y)

    def cube(d):
        x, y = negative_pell_minimal(d)
        return PellSolution(x**3 + 3 * d * x * y * y, 3 * x * x * y + d * y**3)

    monkeypatch.setattr(pell, "fundamental_solution", square)
    monkeypatch.setattr(pell, "negative_pell_minimal", cube)
    for kind in ("fundamental", "negative"):
        code, _, err = run(capsys, ["pell", "--kind", kind, "--d", "13", "--verify"])
        assert code == 1
        assert "verify: FAIL minimality/equation" in err


def test_eichler_command(capsys):
    code, out, _ = run(capsys, ["eichler", "--n", "5", "--verify"])
    assert code == 0
    assert "True" in out and "False" not in out
    code, out, _ = run(capsys, ["eichler", "--n", "4", "--format", "json"])
    obj = json.loads(out)
    assert obj["isometry"] is True and obj["discriminant_trivial"] is True


def test_formulas_command(capsys):
    code, out, _ = run(capsys, ["formulas", "--n", "3"])
    assert code == 0
    assert "Catalan) = 42" in out
    code, out, _ = run(capsys, ["formulas", "--n", "6", "--format", "json"])
    obj = json.loads(out)
    assert obj["pluecker_linear_dim"] == "15"
    assert obj["catalan_degree"] == str(sigma.catalan_degree(6))


def test_module_errors_exit_one(capsys):
    code, _, err = run(capsys, ["walls", "--n", "1"])
    assert code == 1 and "error" in err
    code, _, err = run(capsys, ["sigma", "--n", "3"])
    assert code == 1
