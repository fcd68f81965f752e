"""The CLI beyond its output bytes, which ``test_corpus.py`` pins: faults
injected into the library, child interpreters, the option table against
argparse, argparse's own -h and usage-error bytes, the int-digit limit, a
timed call, and argvs that no family of ``corpus.py`` holds, among them
one scan run at two --jobs values.  The family docstrings of
``corpus.py`` say what its bytes mean."""

import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3invol import cli, hilbcone, lattice, pell, sigma
from k3invol.pell import PellSolution, fundamental_solution, negative_pell_minimal
from k3invol.cli import main
from child import child_env
from lattice_reference import identity, l5_vector


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_byte_identical_across_jobs(capsys):
    _, out1, _ = run(capsys, ["scan", "--min-n", "2", "--max-n", "40", "--jobs", "1"])
    _, out2, _ = run(capsys, ["scan", "--min-n", "2", "--max-n", "40", "--jobs", "3"])
    assert out1 == out2


def test_scan_appendix_never_runs_the_kernel(capsys, monkeypatch):
    # the appendix mode has the middle wall alone (hilbcone docstring), so
    # its scan reads C_n = 1 for every n without the kernel
    from k3invol import kernel

    def no_kernel(n):
        raise AssertionError("the appendix scan called the kernel")

    monkeypatch.setattr(kernel, "interior_walls", no_kernel)
    argv = ["scan", "--min-n", "2", "--max-n", "300", "--mode", "appendix"]
    ns = range(2, 301)
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"n={n} C_n=1" + ("  [extension]" if n > 200 else "") for n in ns
    ]
    argv.append("--format")
    code, out, err = run(capsys, [*argv, "json"])
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert [(r["n"], r["C_n"]) for r in obj["rows"]] == [(n, 1) for n in ns]
    assert obj["findings"] == []
    code, out, err = run(capsys, [*argv, "csv"])
    assert (code, err) == (0, "")
    rows = list(csv.reader(out.splitlines()))[1:]
    assert [(r[0], r[1]) for r in rows] == [(str(n), "1") for n in ns]


def test_scan_reports_disagreement_with_witness(capsys, monkeypatch):
    # the below-middle wall that test_hilbcone's inject_full_only_witness adds
    wall = hilbcone.WallRecord.build(7, 5, 14, 26, 1)
    assert wall.below_middle
    fake = [hilbcone.ScanRow(n=7, c_n=2, below_middle=(wall,))]
    monkeypatch.setattr(hilbcone, "scan_rows", lambda *a, **k: fake)
    code, out, _ = run(capsys, ["scan", "--min-n", "7", "--max-n", "7"])
    assert code == 2
    lines = out.splitlines()
    assert "FINDING: mode disagreement: n=7 rho=5 alpha=14 X=26 Y=1" in lines
    assert "FINDING: C_n > 1: n=7 C_n=2" in lines


def test_sigma_verify_h0_check_runs_before_output(capsys, monkeypatch):
    # dimension_report cross-checks h0(1) against the subsystem quotient
    # dimension, so a wrong h0 stops the command before it prints
    real = sigma.h0_sigma
    monkeypatch.setattr(sigma, "h0_sigma", lambda n, k: real(n, k) + 1)
    with pytest.raises(AssertionError, match="h0"):
        main(["sigma", "--n", "7", "--verify"])
    assert capsys.readouterr().out == ""


def test_strata_verify_reports_wrong_row(capsys, monkeypatch):
    from k3invol import mukai

    good = mukai.strata_table(mukai.MukaiContext(6))
    for field, check in (("dim_Jk", "dim J_k"), ("moduli_dim", "moduli dimension")):
        bad = [good[0], good[1]._replace(**{field: getattr(good[1], field) + 1})]
        monkeypatch.setattr(mukai, "strata_table", lambda ctx: bad)
        code, out, err = run(capsys, ["strata", "--n", "6", "--verify"])
        assert code == 1
        assert "checks passed" not in out
        assert err.startswith(f"verify: FAIL {check} at k=1: "), field


def test_lemmas_surprise_exits_two(capsys, monkeypatch):
    from k3invol import mukai

    monkeypatch.setattr(mukai, "spherical_search", lambda ctx, i, bound: [(0, 1), (5, 5)])
    code, out, _ = run(capsys, ["lemmas", "--n", "7"])
    assert code == 2
    assert "FINDING" in out


def test_lemmas_expected_window_uses_search_box(capsys):
    # n = 12, i = 1 expects v^(2) = (1, -3), which lies outside |y| <= 2;
    # at bound 0 not even a = (0, 1) is in the box.
    for argv in (["--n", "12", "--bound", "2"], ["--n", "6", "--bound", "0"]):
        code, out, _ = run(capsys, ["lemmas", *argv])
        assert code == 0 and "FINDING" not in out, (argv, out)


def test_lemmas_runs_without_numpy():
    # the package needs only the standard library: make "import numpy" fail
    code = (
        "import sys; sys.modules['numpy'] = None; "
        "from k3invol.cli import main; "
        "sys.exit(main(['lemmas', '--n', '12', '--format', 'json']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["surprises"] == []


def test_scan_without_pool_does_not_import_it():
    for jobs in ("1", "4"):
        code = (
            "import sys; from k3invol.cli import main; "
            f"code = main(['scan', '--min-n', '2', '--max-n', '5', '--jobs', '{jobs}']); "
            "sys.exit(code or 'concurrent.futures.process' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, (jobs, proc.stderr)
        assert proc.stdout.count("C_n=1") == 4


def test_cli_loads_only_the_subcommands_modules():
    # -S: no site hooks, so every module listed was loaded by k3invol
    code = (
        "import sys; import k3invol.cli as cli; after_import = sorted(sys.modules); "
        "rc = cli.main(['scan', '--min-n', '2', '--max-n', '30', '--format', 'json']); "
        "after_scan = sorted(sys.modules); "
        "rcs = [cli.main([cmd, '--n', '5', '--format', 'json']) for cmd in ('eichler', 'sigma', 'formulas')]; "
        "sys.stderr.write(repr((rc, rcs, after_import, after_scan, sorted(sys.modules))))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    rc, rcs, after_import, after_scan, after_all = ast.literal_eval(proc.stderr)
    assert rc == 0 and rcs == [0, 0, 0]
    assert len(json.JSONDecoder().raw_decode(proc.stdout)[0]["rows"]) == 29
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "csv"}
    assert [m for m in after_import if m.startswith("k3invol.")] == ["k3invol.cli"]
    assert heavy.isdisjoint(after_import)
    assert {"k3invol.hilbcone", "k3invol.kernel", "k3invol.mukai"} <= set(after_scan)
    unused = {"k3invol.lattice", "k3invol.pell", "k3invol.sigma", "dataclasses", "fractions"}
    assert unused.isdisjoint(after_scan)
    # eichler, sigma and formulas load their modules but no dataclasses
    assert {"k3invol.lattice", "k3invol.pell", "k3invol.sigma"} <= set(after_all)
    assert {"dataclasses", "inspect"}.isdisjoint(after_all)
    # plain argvs are parsed from the option table; only -h and errors need argparse
    assert {"argparse", "gettext"}.isdisjoint(after_all)
    code = (
        "import sys; import k3invol.cli as cli\n"
        "try:\n    cli.main(['sigma', '-h'])\nexcept SystemExit as exc:\n    rc = exc.code\n"
        "sys.stderr.write(repr((rc, 'argparse' in sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert ast.literal_eval(proc.stderr) == (0, True)
    assert proc.stdout.startswith("usage: k3invol sigma [-h]")


def test_pell_mixed_rejects_a_bound_below_one(capsys):
    # the bad-bound family pins the error of a bound below 1; --bound
    # bounds nothing now that the mixed kind is exact, so 1 is accepted
    # and ignored like any other
    code, out, _ = run(capsys, ["pell", "--kind", "mixed", "--p", "2", "--q", "3", "--bound", "1"])
    assert (code, out) == (0, "2*x^2 - 3*y^2 = -1: minimal (x,y)=(1,1)\n")


def test_pell_mixed_is_exact(capsys):
    argv = ["pell", "--kind", "mixed", "--p", "2", "--q", "107", "--verify"]
    solved = "2*x^2 - 107*y^2 = -1: minimal (x,y)=(416941,57003)\n"
    assert run(capsys, argv) == (0, solved + "verify: equation and minimality confirmed\n", "")
    # x = 416941 lies past the bound of the brute force this replaced
    assert run(capsys, [*argv[:-1], "--bound", "10"]) == (0, solved, "")
    # p > q walks (qy)^2 - pq*x^2 = q, and verifies through it
    argv = ["pell", "--kind", "mixed", "--p", "13", "--q", "1", "--verify"]
    assert run(capsys, argv) == (
        0,
        "13*x^2 - 1*y^2 = -1: minimal (x,y)=(180,649)\n"
        "verify: equation and minimality confirmed\n",
        "",
    )
    argv = ["pell", "--kind", "mixed", "--p", "2", "--q", "5"]
    assert run(capsys, argv) == (0, "2*x^2 - 5*y^2 = -1: unsolvable\n", "")
    assert run(capsys, [*argv, "--verify", "--format", "csv"]) == (
        0,
        "kind,solution_x,solution_y\nmixed,,\n",
        "",
    )


_ONLY_MIXED = "pell: --p, --q and --bound apply only to --kind mixed\n"
_NOT_MIXED = "pell: --d does not apply to --kind mixed\n"
MISPLACED_PELL_OPTIONS = [
    (["--kind", "negative", "--d", "13", "--bound", "-5", "--p", "3"], _ONLY_MIXED),
    (["--kind", "fundamental", "--d", "61", "--q", "3", "--verify"], _ONLY_MIXED),
    # the default bound, given explicitly, is still an option of mixed alone
    (["--kind", "fundamental", "--d", "2", "--bound", "100000"], _ONLY_MIXED),
    (["--kind", "mixed", "--p", "2", "--q", "9", "--d", "5", "--verify"], _NOT_MIXED),
]


@pytest.mark.parametrize(
    "argv, err",
    MISPLACED_PELL_OPTIONS,
    ids=["_".join(w.removeprefix("--") for w in a) for a, _ in MISPLACED_PELL_OPTIONS],
)
def test_pell_rejects_an_option_of_another_kind(capsys, argv, err):
    for fmt in ("text", "json", "csv"):
        assert run(capsys, ["pell", *argv, "--format", fmt]) == (1, "", err)


def test_pell_misplaced_option_keeps_the_older_errors_first(capsys):
    # a missing --d, --p or --q, a bound below 1 and an input the solver
    # rejects print the error they print without the misplaced option
    cases = [
        (["--kind", "negative", "--p", "3"], "pell requires --d for this kind\n"),
        (["--kind", "mixed", "--p", "2", "--d", "5"], "pell --kind mixed requires --p and --q\n"),
        (
            ["--kind", "mixed", "--p", "2", "--q", "3", "--bound", "0", "--d", "5"],
            "pell: --bound must be at least 1, got 0\n",
        ),
        (
            ["--kind", "fundamental", "--d", "4", "--p", "3"],
            "k3invol: error: D must not be a perfect square\n",
        ),
    ]
    for argv, err in cases:
        assert run(capsys, ["pell", *argv]) == (1, "", err)


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


def _pell_in_child(kind, d):
    """(exit code, stdout, stderr) of ``pell --kind KIND --d D`` in a child
    process, killed after 20 s so that an endless walk fails the test."""
    code = (
        "import sys; from k3invol.cli import main; "
        f"sys.exit(main(['pell', '--kind', '{kind}', '--d', '{d}']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=20
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_pell_fundamental_fails_fast_on_a_long_period():
    # sqrt(10^25 + 3) has a period of about 10^12 terms; the command must
    # stop at pell.MAX_PERIOD with an error, not walk it
    d = 10**25 + 3
    assert _pell_in_child("fundamental", d) == (
        1,
        "",
        f"k3invol: error: the continued-fraction period of sqrt({d}) is longer than "
        "10000 terms; its fundamental solution is not computed\n",
    )


def test_pell_negative_fails_fast_on_a_long_period():
    # 10^25 + 13 == 1 (mod 4) passes every p == 3 (mod 4) shortcut, so only
    # the period walk can decide it, and that period is far past the limit
    d = 10**25 + 13
    assert _pell_in_child("negative", d) == (
        1,
        "",
        f"k3invol: error: the continued-fraction period of sqrt({d}) is longer than "
        "10000 terms; its negative Pell equation is not decided\n",
    )


def test_pell_verify_rejects_non_minimal_solution(capsys, monkeypatch):
    # the square of the fundamental solution and the cube of the minimal
    # negative one solve the same equations but are not minimal
    def square(d):
        x, y = fundamental_solution(d)
        return PellSolution(x * x + d * y * y, 2 * x * y)

    def cube(d, max_period=None):
        x, y = negative_pell_minimal(d, max_period)
        return PellSolution(x**3 + 3 * d * x * y * y, 3 * x * x * y + d * y**3)

    monkeypatch.setattr(pell, "fundamental_solution", square)
    monkeypatch.setattr(pell, "negative_pell_minimal", cube)
    for kind in ("fundamental", "negative"):
        code, _, err = run(capsys, ["pell", "--kind", kind, "--d", "13", "--verify"])
        assert code == 1
        assert "verify: FAIL minimality/equation" in err


EICHLER_5_VERIFY = """\
n=5  period lattice rank 23, l^2 = -8
alpha(u + 17v - 2l) = u + v: True
alpha(2(n-1)(u + 17v) - 17l) = 2(n-1)(u-v) + 4(n-1)v1 - l: True
gram preserved: True
acts trivially on discriminant group: True
"""


def test_eichler_runs_each_check_once(capsys, monkeypatch):
    # build_alpha writes alpha's columns in closed form, checks no
    # transvection, and applies alpha to its two defining inputs; the
    # discriminant check is alpha's one isometry check
    calls = {}

    def count(owner, name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    count(lattice.LatticeMap, "is_isometry")
    count(lattice.LatticeMap, "apply")
    assert run(capsys, ["eichler", "--n", "5", "--verify"]) == (0, EICHLER_5_VERIFY, "")
    assert calls == {"is_isometry": 1, "apply": 2}


def test_eichler_verify_fails_on_discriminant(capsys, monkeypatch):
    # -id on L5 is an isometry, but acts as -1 on the discriminant group Z/8 of Xi(5)
    minus_id = lattice.LatticeMap(5, tuple(tuple(-x for x in e) for e in identity(5)))
    # -(u + 17v - 2l) and -(8(u + 17v) - 17l)
    images = (l5_vector(u=-1, v=-17, l=2), l5_vector(u=-8, v=-136, l=17))
    monkeypatch.setattr(lattice, "build_alpha", lambda n: (minus_id, *images))
    code, out, err = run(capsys, ["eichler", "--n", "5", "--verify"])
    assert code == 1
    assert out.splitlines()[3:] == [
        "gram preserved: True",
        "acts trivially on discriminant group: False",
    ]
    assert err == "verify: FAIL isometry/discriminant\n"


def test_eichler_rejects_non_isometry(capsys, monkeypatch):
    alpha, *images = lattice.build_alpha(5)
    # v1 -> v1 + l, of square -8: no longer isotropic; the two defining
    # inputs have no v1 coordinate, so their images stay those of alpha
    u, v, u1, _, ell = alpha.columns
    bad = lattice.LatticeMap(5, (u, v, u1, l5_vector(v1=1, l=1), ell))
    monkeypatch.setattr(lattice, "build_alpha", lambda n: (bad, *images))
    code, out, err = run(capsys, ["eichler", "--n", "5", "--verify"])
    assert (code, out) == (1, "")
    assert err == "k3invol: error: the map must be an isometry\n"


def test_lemmas_and_eichler_reject_csv(capsys):
    # both print only text or JSON, so csv is a usage error
    for command in ("lemmas", "eichler"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "6", "--format", "csv"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid choice: 'csv'" in err, command


def test_parser_built_once(capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))  # subcommand parsers count too
        init(self, *args, **kwargs)

    # build_parser's parsers subclass ArgumentParser inside it
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # = forms, which the option table declines, so each call reaches build_parser
    for argv in (["formulas", "--n=5"], ["sigma", "--n=7"], ["formulas", "--n=6"]):
        assert cli._table_parse(argv) is None
        assert main(argv) == 0
    capsys.readouterr()
    assert built.count("k3invol") <= 1


def test_reused_parser_leaks_nothing(capsys):
    # = forms, which the option table declines: argparse's one cached
    # parser parses every call, and no value of one call reaches the next
    def in_full(*argv):
        assert cli._table_parse(list(argv)) is None
        return run(capsys, list(argv))

    _, out, _ = in_full("scan", "--min-n=2", "--max-n=4", "--mode=appendix", "--format=json")
    assert json.loads(out)["mode"] == "appendix"
    _, out, _ = in_full("scan", "--min-n=2", "--max-n=4", "--format=json")
    assert json.loads(out)["mode"] == "full"
    _, out, _ = in_full("scan", "--min-n=2", "--max-n=4")
    assert out.splitlines() == [f"n={n} C_n=1" for n in range(2, 5)]
    code, out, _ = in_full("walls", "--n=5", "--verify")
    assert code == 0 and "verify: 3 checks passed" in out
    code, out, _ = in_full("walls", "--n=5")
    assert code == 0 and "verify" not in out


# ---------------------------------------------------------------- JSON and dispatch

_JSON_TEXT = st.text() | st.text(alphabet='"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600 ')
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | _JSON_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_json_matches_the_stdlib_indent_encoder(obj):
    assert cli._json(obj, "\n") == json.dumps(obj, sort_keys=True, indent=2)


@pytest.mark.parametrize("obj", [1.5, (1, 2), {1: "a"}, [{"a": [0.0]}], {"a": {None: 1}}, [b"x"]])
def test_json_rejects_what_it_does_not_encode(obj):
    with pytest.raises(TypeError):
        cli._json(obj, "\n")


# an int past CPython's 4300-digit limit on str-to-int: a usage error, and
# a quick exit 1 should the limit be off
_HUGE_ARGV = ["pell", "--kind", "mixed", "--p", "7" * 5000]

# every subcommand, and every way an argv can reach or miss its subparser
DISPATCH_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["--bogus"],
    ["--"],
    ["sca", "--min-n", "2", "--max-n", "3"],
    ["bogus"],
    ["-h", "scan"],
    ["--", "walls", "--n", "5"],
    ["scan", "--min-n", "2", "--max-n", "5"],
    ["scan", "--min-n=2", "--max-n=4", "--mode=appendix", "--format=json"],
    ["scan", "--mi", "2", "--ma", "3", "--format", "csv"],
    ["scan", "--m", "2"],
    ["scan", "--min-n", "2", "--max-n", "3", "--bogus"],
    ["scan", "--min-n", "2", "--max-n", "3", "extra", "--bogus", "x"],
    ["scan", "--min-n", "2", "--max-n", "3", "--", "x"],
    ["scan", "--", "--min-n", "2"],
    ["scan", "--min-n", "2", "--max-n", "3", "--jobs", "0"],
    ["scan"],
    ["scan", "-h"],
    ["walls", "--n", "5", "--verify", "--format", "json"],
    ["walls", "--n", "x"],
    ["walls", "--n", "5.0"],
    ["walls", "--n", "5", "--n", "6", "--format", "csv"],
    ["walls", "--n", "5", "--format", "xml"],
    _HUGE_ARGV,
    ["walls", "--n", "1"],
    ["walls", "--n", "5", "-h", "--bogus"],
    ["sigma", "--n", "7", "--verify", "--format", "json"],
    ["sigma", "--n=4", "--format", "csv"],
    ["strata", "--n", "6", "--verify"],
    ["strata", "--n", "6", "--format", "json", "--", "7"],
    ["lemmas", "--n", "12", "--format", "json"],
    ["lemmas", "--n", "6", "--format", "csv"],
    ["lemmas", "--n", "6", "--bound", "-1"],
    ["pell", "--kind", "fundamental", "--d", "13", "--verify", "--format", "json"],
    ["pell", "--kind", "mixed", "--p", "2", "--q", "9", "--format", "csv"],
    ["pell", "--kind", "mixed"],
    ["pell", "--d", "3"],
    ["eichler", "--n", "4", "--format", "json"],
    ["eichler", "--n", "5", "--verify", "extra"],
    ["eichler", "--n", "6", "--format", "csv"],
    ["formulas", "--n", "5"],
    ["formulas", "-n", "5"],
    ["formulas", "--n", "5", "formulas"],
    ["walls", "--n", "5", "--format", "json", "--format", "csv"],
    ["sigma", "--n", "7", "--verify", "--verify"],
    ["walls", "--n", "-5"],
    ["scan", "--min-n", "-3", "--max-n", "3"],
    ["walls", "--n", "5", "--verify=1"],
    ["walls", "--n", "5", "--format"],
    ["walls", "--n", ""],
    ["walls", "--n", "5", "--mode", "--format", "json"],
    ["lemmas", "--n", "6", "--bound", "1_000"],
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


def test_dispatch_matches_the_full_parser(capsys, monkeypatch):
    got = [_outcome(capsys, argv) for argv in DISPATCH_CORPUS]
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "_table_parse", lambda argv: None)  # every argv parsed in full
    expected = [_outcome(capsys, argv) for argv in DISPATCH_CORPUS]
    for argv, g, e in zip(DISPATCH_CORPUS, got, expected):
        assert g == e, argv
    assert got[DISPATCH_CORPUS.index(_HUGE_ARGV)][0] == ("SystemExit", 1)
    monkeypatch.undo()
    for argv, (code, _, _) in zip(DISPATCH_CORPUS, got):
        if code == 0:
            assert vars(cli._parse(argv)) == vars(parser.parse_args(argv)), argv


def _parsed(parse, argv):
    """(vars of the Namespace, or the SystemExit code; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("SystemExit", exc.code)
    return result, out.getvalue(), err.getvalue()


_JUNK = ["-h", "--help", "--", "-n", "--bogus", "x", "5", "-5", ""]
_ODD_VALUES = ["-3", "-1_0", "", "x", "1_000", " 7", "5.0", "--n", "json", "full", "mixed"]


@st.composite
def _table_argvs(draw):
    """A subcommand, then option items in any order: mostly exact options
    with a value the table accepts, also repeats, odd values, = forms,
    abbreviations, missing values and junk tokens."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[name][2]

    def item(flag, shape):
        kw = options[flag]
        if "action" in kw:
            value = []
        elif "choices" in kw:
            value = [draw(st.sampled_from(kw["choices"]))]
        else:
            value = [str(draw(st.integers(-(10**6), 10**6) | st.integers(0, 40)))]
        if shape == "odd" and value:
            value = [draw(st.sampled_from(_ODD_VALUES))]
        if shape == "eq":
            return [f"{flag}={draw(st.sampled_from(_ODD_VALUES + value))}"]
        if shape == "abbrev":
            flag = flag[: draw(st.integers(3, len(flag) - 1))] if len(flag) > 3 else "-"
        if shape == "bare":
            return [flag]
        if shape == "junk":
            return [draw(st.sampled_from(_JUNK))]
        return [flag, *value]

    flags = sorted(options)
    required = [item(f, "plain") for f in flags if options[f].get("required")]
    shapes = st.sampled_from(["plain"] * 6 + ["odd", "eq", "abbrev", "bare", "junk"])
    extra = draw(st.lists(st.tuples(st.sampled_from(flags), shapes), max_size=6))
    items = (required if draw(st.integers(0, 4)) else []) + [item(f, k) for f, k in extra]
    return [name, *[t for tokens in draw(st.permutations(items)) for t in tokens]]


@settings(max_examples=400, deadline=None)
@given(_table_argvs())
def test_table_parse_matches_argparse(argv):
    parser = cli.build_parser()
    fast, full = _parsed(cli._parse, argv), _parsed(parser.parse_args, argv)
    assert fast == full
    assert type(fast[0]) is dict or fast[0] in (("SystemExit", 0), ("SystemExit", 1))


# SHA-256 of repr((exit, stdout, stderr)) at 80 columns, written from the
# argparse-only parser that preceded the option table; argparse words its
# help differently in other Python minors
_HELP_DIGESTS = {
    "3.11": {
        "-h": "80eb754b56313410a7061cb148acc4b3d4b24a3570888d44fb5e88df1a8e5f40",
        "scan -h": "3eb473e0601f42825d560f2e57430cad9cecf1dcabc28512759f4b8c7b7d0761",
        "walls -h": "c9b97c2c9aadd7df792843527d6367a435aadf040ffc5102f7e0eb0864a910a1",
        "sigma -h": "f940065f376edd3786bb97edaaa2ce745c26c81462033c409748d1a48d50a56b",
        "strata -h": "82938579e1d0ddf3c7008d756004b16314ede123f6c2bfbc727ebc0cc1cfced2",
        "lemmas -h": "e0f09986528259dd9e79cf23f3b1a2e999e3e53005a30a537126dfc1ac5c85f2",
        "pell -h": "b39cabe2fc06a4e8fbb3963ccd76c24abb3396316bd30049e382d5a6c441d9b9",
        "eichler -h": "34322de0b29015ce4455dc197202242011d3a9e649d30deeef62834b356c02f8",
        "formulas -h": "4313b283417976c0010a18159b6c4c8e06e0fcc01bee35138813e02545dffb2d",
        "walls --n x": "576fe6dceb96cd11b54f9bb24a1fa8f8fde8dcd7a0ae343ad2fbad2acb4129f6",
        "scan --min-n 2": "d4ae9d937a8373ff95ed9af4e627724e518065e145584b4d5e1f696fbda84bbd",
        "formulas --n 5 --bogus": "f1b6b6618f58e3494cdcef3693d806211c450a75b226d629362f272c196ffeb0",
    }
}
_HELP_DIGESTS["3.10"] = _HELP_DIGESTS["3.11"]  # 3.10 words all twelve alike
_MINOR = "%d.%d" % sys.version_info[:2]


@pytest.mark.skipif(
    _MINOR not in _HELP_DIGESTS,
    reason=f"-h and usage-error bytes are pinned for Python 3.10 and 3.11, not {_MINOR}",
)
@pytest.mark.parametrize("argv", sorted(_HELP_DIGESTS["3.11"]))
def test_help_and_usage_errors_keep_their_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal's width
    code, out, err = _outcome(capsys, argv.split())
    digest = hashlib.sha256(repr((code, out, err)).encode()).hexdigest()
    assert digest == _HELP_DIGESTS[_MINOR][argv], (code, out, err)


def test_dispatch_of_the_process_arguments(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["k3invol", "formulas", "--n", "5", "--bogus"])
    code, out, err = _outcome(capsys, None)
    assert (code, out) == (("SystemExit", 1), "")
    assert err.startswith("usage: k3invol [-h]")
    assert err.endswith("k3invol: error: unrecognized arguments: --bogus\n")


@contextlib.contextmanager
def _int_digits_unlimited():
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _answer(capsys, argv, fmt):
    """The integers that ``argv --format fmt`` prints as its answer."""
    code, out, err = run(capsys, [*argv, "--format", fmt])
    assert (code, err) == (0, "")
    with _int_digits_unlimited():
        if fmt == "json":
            return json.loads(out)
        if fmt == "csv":
            header, row = csv.reader(out.splitlines())
            return dict(zip(header, row))
        return out


def _ints(text):
    return [int(s) for s in text.split(",")]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_answers_past_4300_digits_print(capsys, fmt):
    d = 60000011  # the period of sqrt(d) has 8998 terms
    got = _answer(capsys, ["pell", "--kind", "fundamental", "--d", str(d)], fmt)
    n = 11720  # the witness of sigma has 5824 digits
    sig = _answer(capsys, ["sigma", "--n", str(n)], fmt)
    m = 3577  # the first n whose Catalan degree passes 4300 digits
    formulas = _answer(capsys, ["formulas", "--n", str(m)], fmt)
    delta = (4 * n - 3) * (n - 3) // math.gcd(3, n) ** 2
    with _int_digits_unlimited():
        if fmt == "json":
            x, y = map(int, got["solution"])
            (wx, wy), pell_d = sig["bir"]["witness"], sig["bir"]["pell_d"]
            catalan = int(formulas["catalan_degree"])
        elif fmt == "csv":
            x, y = int(got["solution_x"]), int(got["solution_y"])
            (wx, wy), pell_d = _ints(sig["witness"]), delta
            catalan = int(formulas["catalan_degree"])
        else:
            x, y = _ints(got.split("=(")[1].split(")")[0])
            (wx, wy), pell_d = _ints(sig.split("witness=(")[1].split(")")[0]), delta
            catalan = int(formulas.split("(Catalan) = ")[1].split()[0])
        assert x * x - d * y * y == 1 and len(str(x)) > 4300
        assert pell_d == delta and wx * wx - delta * wy * wy == -1 and len(str(wx)) > 4300
        assert catalan * 2 * m == math.comb(4 * m - 2, 2 * m - 1) and len(str(catalan)) > 4300


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int-to-str digits"
)
def test_main_restores_the_int_digit_limit(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        assert main(["formulas", "--n", "3577", "--format", "json"]) == 0
        assert sys.get_int_max_str_digits() == 4321
        assert main(["walls", "--n", "1"]) == 1  # a ValueError from the library
        assert sys.get_int_max_str_digits() == 4321
        with pytest.raises(SystemExit) as exc:  # an over-long argument stays a usage error
            main(_HUGE_ARGV)
        assert exc.value.code == 1
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(before)
    _, err = capsys.readouterr()
    assert "k3invol pell: error: argument --p: invalid int value" in err
