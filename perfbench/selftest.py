#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

1. Real outputs of the package pass the checks; forged ones (a scan row
   with C_n = 2, a finding, a missing row, a non-empty decomposition, a
   wrong spherical window, a false discriminant check, ...) fail them.
2. Every workload runs at toy size, traced and untraced, and emits exactly
   the metrics BENCHMARK.json names, each with its unit, and no failure.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        FAILURES.append(what)


def forge(text: str, edit) -> str:
    obj, rest = checks.parse_cli_json(text)
    edit(obj)
    return json.dumps(obj, indent=2) + "\n" + rest


def test_checks() -> None:
    cli = workloads.import_package(ROOT)
    from k3invol import mukai

    rc, scan = workloads.run_cli(cli, ["scan", "--min-n", "2", "--max-n", "12",
                                       "--format", "json"])
    expect(checks.check_scan(rc, scan, "full", 2, 12) == set(), "real scan passes")

    def c_n_two(obj):
        obj["rows"][3]["C_n"] = 2

    expect(checks.check_scan(0, forge(scan, c_n_two), "full", 2, 12) == {5},
           "scan row with C_n = 2 fails that n")
    expect(checks.check_scan(0, forge(scan, lambda o: o["findings"].append(
        "mode disagreement: n=7 rho=0 alpha=3 X=1 Y=1")), "full", 2, 12) == {7},
        "a finding fails the n it names")
    expect(checks.check_scan(0, forge(scan, lambda o: o["rows"].pop()), "full", 2, 12)
           == set(range(2, 13)), "a missing row fails the invocation")
    expect(checks.check_scan(0, scan, "appendix", 2, 12) == set(range(2, 13)),
           "a scan in the wrong mode fails")
    expect(checks.check_scan(2, scan, "full", 2, 12) == set(range(2, 13)),
           "a nonzero exit fails every n")
    expect(checks.check_scan("crash: boom", "", "full", 2, 12) == set(range(2, 13)),
           "a crash fails every n")

    n = 12  # n = 3*4, so the window also holds v^(i+1) at i = 1
    ctx = mukai.MukaiContext(n)
    for i in checks.spherical_indices(n):
        got = mukai.spherical_search(ctx, i, 4 * n)
        expect(checks.check_spherical(n, i, got) == [], f"real spherical i={i} passes")
        expect(checks.check_spherical(n, i, got + [(2, 3)]) != [],
               f"extra spherical pair i={i} fails")
    expect(checks.check_spherical(n, 1, [(0, 1)]) != [], "missing v^(i+1) fails")
    for i in checks.decomposition_indices(n):
        got = mukai.positive_decomposition_search(ctx, i, 4 * n)
        expect(checks.check_decomposition(n, i, got) == [], f"real decomposition i={i}")
    expect(checks.check_decomposition(n, 0, [("w1", "w2")]) != [],
           "a non-empty decomposition fails")

    real = {}
    for sub, check in checks.CLI_CHECKS.items():
        rc, text = workloads.run_cli(cli, [sub, "--n", str(n), "--verify", "--format", "json"])
        real[sub] = text
        expect(check(n, rc, text) == [], f"real {sub} passes")
        expect(check(n, 1, text) != [], f"{sub} with exit 1 fails")
        expect(check(n, 0, "garbage") != [], f"unparsable {sub} fails")
    forged = [
        ("eichler", lambda o: o.update(discriminant_trivial=False)),
        ("eichler", lambda o: o.update(isometry=False)),
        ("eichler", lambda o: o["kappa_image"].__setitem__(0, "0")),
        ("sigma", lambda o: o["ns_lattice"].update(kappa_square=-2)),
        ("sigma", lambda o: o.update(positive_cone_rational=True)),
        ("strata", lambda o: o["strata"][0].update(codim_in_N=5)),
        ("strata", lambda o: o["strata"][-1].update(fiber_dim=0)),
        ("strata", lambda o: o["strata"].pop()),
    ]
    for sub, edit in forged:
        expect(checks.CLI_CHECKS[sub](n, 0, forge(real[sub], edit)) != [],
               f"forged {sub} output fails")
    no_verify = checks.parse_cli_json(real["strata"])[0]
    expect(checks.check_strata(n, 0, json.dumps(no_verify)) != [],
           "strata without its verify line fails")


def run(argv: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + argv, cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def test_workloads() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            tag = f"{w['name']} --trace {trace}"
            proc = run(["perfbench/run.py", "--workload", w["name"], "--seed", "7",
                        "--seconds", "1", "--trace", str(trace), "--toy"], ROOT)
            if proc.returncode != 0:
                FAILURES.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result keys")
            expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{tag}: outputs correct")
            units = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == units, f"{tag}: metric names and units match BENCHMARK.json")
            for k, v in res["metrics"].items():
                expect(isinstance(v["value"], (int, float)), f"{tag}: {k} is a number")
                if trace == 0:
                    expect(v["value"] > 0, f"{tag}: {k} is positive")


def test_missing_program() -> None:
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(["perfbench/run.py", "--workload", "certify", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "run.py without the package exits nonzero")
    expect('"correct"' not in proc.stdout, "run.py without the package prints no result")


def main() -> int:
    test_checks()
    test_workloads()
    test_missing_program()
    for f in FAILURES:
        print(f"FAIL: {f}")
    print("selftest: " + ("ok" if not FAILURES else f"{len(FAILURES)} failures"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
