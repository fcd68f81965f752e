"""The traced run of one workload, in-process, as a child of run.py.

Passes, in order, over the same inputs:

* U, A, U, B - untraced and traced in turn. The counts of A and B must be
  equal; their times are averaged, and the untraced ones are the baseline
  for the tracing overhead;
* P - scan-sweep only: untraced with ``--jobs 2``, for the pool metrics.

Scans run through ``cli.main`` with ``--jobs 1`` so that every span is in
this process. Prints one JSON object with the per-layer metrics; writes
the spans of A and B to the file named by ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import certify
import checks
import tracer
import workloads

COUNT_SUFFIXES = (".calls", ".cases", ".solutions", ".walls_kept", ".cells",
                  ".x_values", ".found")


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Passes:
    """Runs the workload's ops and tallies their checks."""

    def __init__(self, cli, workload: str, seed: int, toy: bool):
        self.cli = cli
        self.workload = workload
        self.spec = workloads.sizes(workload, toy)
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, trace: tracer.Tracer, jobs: int = 1) -> tuple[float, int]:
        """One pass; returns (summed op latency in s, ops attempted)."""
        if self.workload == "certify":
            from k3invol import mukai

            sample = checks.draw_sample(self.seed, 0, self.spec["trace_per_block"],
                                        self.spec["lo"], self.spec["hi"])
            busy = 0.0
            for n in sample:
                trace.op = n
                latency, errors = certify.certify_n(self.cli, mukai, n)
                busy += latency
                self._tally(1, 1 if errors else 0, errors)
            return busy, len(sample)
        spec = self.spec
        start = time.perf_counter()
        rc, text = workloads.run_cli(self.cli, workloads.scan_argv(spec, jobs))
        wall = time.perf_counter() - start
        bad = checks.check_scan(rc, text, spec["mode"], spec["lo"], spec["hi"])
        size = spec["hi"] - spec["lo"] + 1
        self._tally(size, len(bad), [f"scan exit {rc}, failed n {sorted(bad)[:5]}"])
        trace.op += 1
        return wall, size

    def _tally(self, attempted: int, failed: int, errors: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.errors.extend(errors[:3])


def pool_pass(passes: Passes, hilbcone, idle: tracer.Tracer) -> dict:
    """scan-sweep with --jobs 2, counting the n handed to the pool."""
    tasks = [0]
    base = getattr(hilbcone, "ProcessPoolExecutor", None)
    if base is not None:
        class CountingPool(base):
            def map(self, fn, *iterables, **kwargs):
                iterables = [list(it) for it in iterables]
                tasks[0] += len(iterables[0])
                return super().map(fn, *iterables, **kwargs)

        hilbcone.ProcessPoolExecutor = CountingPool
    try:
        cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        wall, _ = passes.run(idle, jobs=2)
        cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    finally:
        if base is not None:
            hilbcone.ProcessPoolExecutor = base
    return {"wall": wall, "cpu_over_wall": cpu / wall, "tasks": tasks[0]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()
    cli = workloads.import_package(args.root)
    from k3invol import hilbcone

    passes = Passes(cli, args.workload, args.seed, args.toy)
    idle = tracer.Tracer()  # never installed: untraced passes record no spans
    untraced, runs = [], []
    for _ in ("A", "B"):  # alternate, so that drift in machine speed cancels
        untraced.append(passes.run(idle)[0])
        trace = tracer.Tracer()
        trace.install()
        try:
            wall, ops = passes.run(trace)
        finally:
            trace.uninstall()
        runs.append((wall, trace))
    (wall_a, trace_a), (wall_b, trace_b) = runs
    wall_u = statistics.mean(untraced)
    pool = {"tasks": 0, "efficiency": 0.0, "cpu_over_wall": 0.0}
    if args.workload == "scan-sweep":
        p = pool_pass(passes, hilbcone, idle)
        pool = {"tasks": p["tasks"], "efficiency": wall_u / (2 * p["wall"]),
                "cpu_over_wall": p["cpu_over_wall"]}
    m_a = tracer.layer_metrics(trace_a.spans)
    m_b = tracer.layer_metrics(trace_b.spans)
    counts = [k for k in m_a if k.endswith(COUNT_SUFFIXES)]
    unequal = [k for k in counts if m_a[k] != m_b[k]]
    if unequal:  # the program did different work on the same inputs
        passes.failed += ops
        passes.errors.append(f"counts differ between traced passes: {unequal}")

    metrics = {k: (m_a[k] if k in counts else statistics.mean([m_a[k], m_b[k]]))
               for k in m_a}
    metrics.update({f"hilbcone.pool.{k}": v for k, v in pool.items()})
    metrics["trace.overhead_ratio"] = statistics.mean([wall_a, wall_b]) / wall_u

    with open(args.spans, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "A": tracer.span_rows(trace_a.spans),
                   "B": tracer.span_rows(trace_b.spans)}, fh)
    print(json.dumps({
        "metrics": metrics,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "errors": passes.errors[:10],
        "missing": trace_a.missing,
        "ops_per_pass": ops,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
