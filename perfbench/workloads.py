"""The benchmark's workloads, their sizes, and in-process helpers.

Sizes are fixed so that one op of each workload takes a few seconds on a
2-core machine with the pure-Python kernel; ``TOY`` shrinks them for the
self-test.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

SIZES = {
    # The paper's headline computation: both congruence modes for every n,
    # through the process pool.
    "scan-sweep": {"mode": "full", "jobs": 2, "lo": 2, "hi": 200},
    # About n^2/8 cheap literal-congruence cases per n, single-threaded;
    # never calls the full kernel or the pool.
    "scan-appendix": {"mode": "appendix", "jobs": 1, "lo": 2, "hi": 300},
    # Lattice, Mukai, sigma and CLI work per n, which both scans skip.
    # A timed pass certifies all 127 n in [4, 130] in seeded order: with 7
    # of every 8 n drawn, the median latency moved with the seed. The
    # traced pass draws 2 of every 8 (32 n) to fit the same time.
    "certify": {"lo": 4, "hi": 130, "per_block": 8, "trace_per_block": 2},
}

TOY = {
    "scan-sweep": {"mode": "full", "jobs": 2, "lo": 2, "hi": 24},
    "scan-appendix": {"mode": "appendix", "jobs": 1, "lo": 2, "hi": 40},
    "certify": {"lo": 4, "hi": 27, "per_block": 8, "trace_per_block": 2},
}


def sizes(workload: str, toy: bool) -> dict:
    return (TOY if toy else SIZES)[workload]


def scan_argv(spec: dict, jobs: int) -> list[str]:
    return [
        "scan", "--min-n", str(spec["lo"]), "--max-n", str(spec["hi"]),
        "--mode", spec["mode"], "--jobs", str(jobs), "--format", "json",
    ]


def import_package(root: str):
    """Import k3invol from the checkout's src/ and refuse any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import k3invol.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"k3invol was imported from {cli.__file__}, not {src}")
    return cli


def run_cli(cli, argv: list[str]) -> tuple[object, str]:
    """cli.main in this process: (exit code, captured stdout).

    A usage error exits through SystemExit; any other exception is a crash
    of this invocation and is reported as its exit code.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash fails the op; the run goes on
        rc = f"crash: {exc!r}"
    return rc, buf.getvalue()
