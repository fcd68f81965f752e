"""The certify workload: per-n certificates, run in-process in one child.

For each n the op calls ``cli.main`` for ``eichler``, ``sigma`` and
``strata`` (each with ``--verify --format json``) and runs every
spherical-window and positive-decomposition search that ``lemmas`` would
run, at bound 4n, through ``mukai``. The ``lemmas`` command itself is not
called: it raises TypeError at this version of the package.

As a child of run.py it certifies whole seeded samples of n for about
``--seconds``, printing one JSON line per n.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

import checks
import workloads


def certify_n(cli, mukai, n: int) -> tuple[float, list[str]]:
    """(latency in s, errors) of one n; the checks run after the clock stops."""
    start = time.perf_counter()
    outputs = [
        (sub, *workloads.run_cli(cli, [sub, "--n", str(n), "--verify", "--format", "json"]))
        for sub in checks.CLI_CHECKS
    ]
    try:
        ctx = mukai.MukaiContext(n)
        bound = 4 * n
        spherical = [(i, mukai.spherical_search(ctx, i, bound))
                     for i in checks.spherical_indices(n)]
        decomps = [(i, mukai.positive_decomposition_search(ctx, i, bound))
                   for i in checks.decomposition_indices(n)]
    except Exception:  # a crash fails this n; the run goes on
        return time.perf_counter() - start, [traceback.format_exc()]
    latency = time.perf_counter() - start
    errors = []
    for sub, rc, text in outputs:
        errors += checks.CLI_CHECKS[sub](n, rc, text)
    for i, got in spherical:
        errors += checks.check_spherical(n, i, got)
    for i, got in decomps:
        errors += checks.check_decomposition(n, i, got)
    return latency, errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()
    cli = workloads.import_package(args.root)
    from k3invol import mukai

    spec = workloads.sizes("certify", args.toy)
    start = time.perf_counter()
    pass_no = 0
    elapsed = 0.0
    # Another pass starts only if at least half of it fits in the time left.
    while pass_no == 0 or elapsed + elapsed / pass_no / 2 < args.seconds:
        for n in checks.draw_sample(args.seed, pass_no, spec["per_block"],
                                    spec["lo"], spec["hi"]):
            latency, errors = certify_n(cli, mukai, n)
            print(json.dumps({"n": n, "latency_s": latency, "errors": errors}), flush=True)
        pass_no += 1
        elapsed = time.perf_counter() - start
    return 0


if __name__ == "__main__":
    sys.exit(main())
