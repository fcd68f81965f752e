#!/usr/bin/env python3
"""Benchmark driver for k3invol: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
With ``--trace 0`` the workload runs untraced, one op at a time (a closed
loop with one client), and the end-to-end metrics of BENCHMARK.json are
reported. With ``--trace 1`` a separate traced run reports the per-layer
metrics. Every op's output is checked against references computed by
checks.py. The last line of stdout is the JSON result; the lines before it
give each metric with its unit and sample count, and the run's provenance.
The result and, for traced runs, the spans are also written to out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 165  # every run must end within 180 s
SETUP_SPAWNS = 11
IMPORTTIME_SPAWNS = 5
MIN_SCAN_OPS = 3

PROBE = """
import json, os, sys
import k3invol.cli
try:
    from numpy import __version__ as numpy_version
except ImportError:
    numpy_version = None
try:
    from k3invol.kernel import BACKEND
except ImportError:
    BACKEND = None
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy_version,
                  "backend": BACKEND, "package": os.path.dirname(k3invol.cli.__file__)}))
"""


class Deadline:
    def __init__(self):
        self.start = time.perf_counter()

    def left(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)


def child_env() -> dict:
    """The environment of every child: JOBS and K3INVOL_BACKEND removed, so
    the workload's own --jobs and the default kernel selection apply."""
    env = {k: v for k, v in os.environ.items() if k not in ("JOBS", "K3INVOL_BACKEND")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def spawn(argv: list[str], deadline: Deadline):
    """Run a child to completion: (exit code, stdout, wall s, rusage).

    The rusage comes from wait4, so it covers the child and every
    descendant it reaped, such as pool workers. A child still running at
    the deadline is killed with its whole process group.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    reaped = threading.Event()

    def kill():
        if not reaped.is_set():
            os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(max(deadline.left(), 1.0), kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        reaped.set()
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), time.perf_counter() - start, usage


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def commit() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ------------------------------------------------------------ untraced


def measure_setup(deadline: Deadline, spawns: int) -> list[float]:
    """Wall time of a fresh interpreter importing k3invol.cli and exiting."""
    walls = []
    for _ in range(spawns):
        rc, _, wall, _ = spawn([sys.executable, "-c", "import k3invol.cli"], deadline)
        if rc != 0:
            raise SystemExit("importing k3invol.cli failed")
        walls.append(wall)
    return walls


def timed_scans(spec: dict, seconds: float, deadline: Deadline):
    size = spec["hi"] - spec["lo"] + 1
    argv = [sys.executable, "-m", "k3invol.cli"] + workloads.scan_argv(spec, spec["jobs"])
    walls, rates, rss, failed = [], [], [], 0
    start = time.perf_counter()
    while len(walls) < MIN_SCAN_OPS or time.perf_counter() - start < seconds:
        if deadline.left() < 2 * max(walls, default=1.0):
            break
        rc, out, wall, usage = spawn(argv, deadline)
        bad = checks.check_scan(rc, out, spec["mode"], spec["lo"], spec["hi"])
        failed += len(bad)
        walls.append(wall)
        rates.append((size - len(bad)) / wall)
        rss.append(usage.ru_maxrss / 1024)
    attempted = size * len(walls)
    metrics = {
        "n_per_s": (statistics.median(rates), len(rates)),
        "cert_p50_s": (statistics.median(walls), len(walls)),
        "cert_p90_s": (quantile(walls, 90), len(walls)),
        "peak_rss_mb": (max(rss), len(rss)),
    }
    return metrics, attempted, failed


def timed_certify(seed: int, seconds: float, toy: bool, deadline: Deadline):
    argv = [sys.executable, os.path.join(HERE, "certify.py"), "--root", ROOT,
            "--seed", str(seed), "--seconds", str(seconds)] + (["--toy"] if toy else [])
    rc, out, wall, usage = spawn(argv, deadline)
    records = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    latencies = [r["latency_s"] for r in records]
    bad = [r for r in records if r["errors"]]
    for r in bad[:3]:
        print(f"certify n={r['n']}: {r['errors'][0]}", file=sys.stderr)
    attempted = max(len(records), 1)
    failed = attempted if rc != 0 or not records else len(bad)
    if rc != 0:
        print(f"certify child exited {rc}", file=sys.stderr)
    latencies = latencies or [wall]
    metrics = {
        "n_per_s": ((attempted - failed) / wall, attempted),
        "cert_p50_s": (statistics.median(latencies), len(latencies)),
        "cert_p90_s": (quantile(latencies, 90), len(latencies)),
        "peak_rss_mb": (usage.ru_maxrss / 1024, 1),
    }
    return metrics, attempted, failed


# ------------------------------------------------------------ traced


def importtime(deadline: Deadline, spawns: int) -> dict:
    """Median import time of k3invol.cli and of numpy, from -X importtime."""
    total, numpy_s = [], []
    for _ in range(spawns):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import k3invol.cli"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=max(deadline.left(), 1.0))
        if proc.returncode != 0:
            raise SystemExit("importing k3invol.cli failed")
        top = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2].rstrip()
            cumulative = int(fields[1]) / 1e6
            if name.strip() == "numpy":
                numpy_s.append(cumulative)
            if name.startswith(" k3invol"):  # a top-level import of the package
                top += cumulative
        total.append(top)
    return {
        "setup.import_s": (statistics.median(total), len(total)),
        "setup.numpy_import_s": (statistics.median(numpy_s or [0.0]), len(numpy_s)),
    }


def traced(workload: str, seed: int, toy: bool, deadline: Deadline):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    argv = [sys.executable, os.path.join(HERE, "traced.py"), "--root", ROOT,
            "--workload", workload, "--seed", str(seed), "--spans", spans]
    rc, out, _, _ = spawn(argv + (["--toy"] if toy else []), deadline)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise SystemExit(f"traced run exited {rc}")
    child = json.loads(lines[-1])
    for err in child["errors"]:
        print(f"traced: {err}", file=sys.stderr)
    if child["missing"]:
        print(f"traced: not found in the package: {child['missing']}", file=sys.stderr)
    metrics = {k: (v, 1) for k, v in child["metrics"].items()}
    metrics.update(importtime(deadline, 2 if toy else IMPORTTIME_SPAWNS))
    return metrics, child["attempted"], child["failed"]


# ------------------------------------------------------------ driver


def main() -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "k3invol", "cli.py")):
        print(f"no k3invol package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = Deadline()
    load_before = read_loadavg()
    rc, out, _, _ = spawn([sys.executable, "-c", PROBE], deadline)
    if rc != 0:
        print("k3invol does not import", file=sys.stderr)
        return 2
    provenance = json.loads(out)
    if provenance["package"] != os.path.join(ROOT, "src", "k3invol"):
        print(f"k3invol imported from {provenance['package']}", file=sys.stderr)
        return 2

    if args.trace:
        wanted = bench["per_layer"]
        metrics, attempted, failed = traced(args.workload, args.seed, args.toy, deadline)
    else:
        wanted = bench["end_to_end"]
        setup = measure_setup(deadline, 3 if args.toy else SETUP_SPAWNS)
        if args.workload == "certify":
            metrics, attempted, failed = timed_certify(args.seed, args.seconds,
                                                       args.toy, deadline)
        else:
            spec = workloads.sizes(args.workload, args.toy)
            metrics, attempted, failed = timed_scans(spec, args.seconds, deadline)
        metrics["setup_s"] = (statistics.median(setup), len(setup))
        metrics["pass_ratio"] = ((attempted - failed) / attempted, attempted)

    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 2
    provenance.update(nproc=os.cpu_count(), commit=commit(), workload=args.workload,
                      seed=args.seed, trace=args.trace, loadavg_before=load_before,
                      loadavg_after=read_loadavg())
    print(f"# provenance {json.dumps(provenance, sort_keys=True)}")
    for m in wanted:
        value, samples = metrics[m["name"]]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"# {m['name']:<32} {shown} {m['unit']:<6} samples={samples}")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed} of {attempted} n failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    record = os.path.join(HERE, "out", f"result-{args.workload}-seed{args.seed}"
                                       f"-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"provenance": provenance, "result": result,
                   "samples": {k: v[1] for k, v in metrics.items()}}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
