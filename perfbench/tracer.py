"""Spans around the calls into k3invol's modules, recorded from outside.

The package has no tracing of its own, so the benchmark replaces each
public function at the name its caller looks it up by (for example
``hilbcone.kernel.interior_solutions`` or ``sigma.negative_pell_minimal``)
with a wrapper that records a span: name, start, end, parent span and
op id. Spans stay in memory until the run writes them out. A function the
package no longer has is skipped and reported, so its metrics read zero.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    op: int
    attrs: dict = field(default_factory=dict)


def _kernel_cases(n: int, appendix_cases: bool) -> int:
    """Number of (rho, alpha) cases: A has n-1, B n-3, C n-1-4rho per rho."""
    rho_top = (n - 1) // 4 - (1 if appendix_cases else 0)
    rho_top = max(rho_top, 0)
    c_cases = rho_top * (n - 1) - 2 * rho_top * (rho_top + 1)
    return (n - 1) + max(n - 3, 0) + c_cases


def _kernel_attrs(args, result):
    mode = "full" if args["full_congruence"] else "appendix"
    return {
        "mode": mode,
        "cases": _kernel_cases(args["n"], args["appendix_cases"]),
        "solutions": len(result),
    }


def _x_values(args, result):
    return {"x_values": 2 * args["bound"] + 1}


def _decomp_attrs(args, result):
    return {"cells": (2 * args["bound"] + 1) ** 2, "found": len(result)}


def _walls(args, result):
    return {"walls": len(result)}


# (module, attribute path, span name, attrs from the bound arguments and
# the result, whether to record the peak of traced allocations)
TARGETS = [
    ("k3invol.cli", "main", "cli.main", None, False),
    ("k3invol.hilbcone", "scan_rows", "hilbcone.scan_rows", None, False),
    ("k3invol.hilbcone", "scan_chambers", "hilbcone.scan_chambers", None, False),
    ("k3invol.hilbcone", "enumerate_walls", "hilbcone.enumerate_walls", _walls, False),
    ("k3invol.hilbcone", "WallRecord.build", "hilbcone.WallRecord.build", None, False),
    ("k3invol.hilbcone", "kernel.interior_solutions", "kernel.interior_solutions",
     _kernel_attrs, False),
    ("k3invol.lattice", "build_alpha", "lattice.build_alpha", None, False),
    ("k3invol.lattice", "xi_basis", "lattice.xi_basis", None, False),
    ("k3invol.lattice", "acts_trivially_on_discriminant",
     "lattice.acts_trivially_on_discriminant", None, False),
    ("k3invol.lattice", "LatticeMap.is_isometry", "lattice.LatticeMap.is_isometry",
     None, False),
    ("k3invol.lattice", "LatticeMap.apply", "lattice.LatticeMap.apply", None, False),
    ("k3invol.mukai", "spherical_search", "mukai.spherical_search", _x_values, False),
    ("k3invol.mukai", "positive_decomposition_search",
     "mukai.positive_decomposition_search", _decomp_attrs, True),
    ("k3invol.mukai", "strata_table", "mukai.strata_table", None, False),
    ("k3invol.mukai", "r_max", "mukai.r_max", None, False),
    ("k3invol.sigma", "ns_sigma", "sigma.ns_sigma", None, False),
    ("k3invol.sigma", "bir_finiteness", "sigma.bir_finiteness", None, False),
    ("k3invol.sigma", "positive_cone_rational", "sigma.positive_cone_rational",
     None, False),
    ("k3invol.sigma", "dimension_report", "sigma.dimension_report", None, False),
    ("k3invol.sigma", "h0_sigma", "sigma.h0_sigma", None, False),
    ("k3invol.sigma", "negative_pell_minimal", "sigma.negative_pell_minimal",
     None, False),
]


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, path, name, attrs, peak in TARGETS:
            try:
                owner = importlib.import_module(mod_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{mod_name}:{path}")
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, attrs, peak))
            else:
                new = self._wrap(name, raw, attrs, peak)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, name, fn, attrs, peak):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = Span(name, start, end, parent, self.op)
                spans[idx] = span
                if peak:
                    span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(attrs(bound.arguments, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, counts exact)."""
    own = self_times(spans)

    def named(prefix):
        return [i for i, s in enumerate(spans) if s.name.startswith(prefix)]

    def outermost(prefix):
        """Spans of the prefix not nested in another span of the prefix."""
        out = []
        for i in named(prefix):
            p = spans[i].parent
            while p >= 0 and not spans[p].name.startswith(prefix):
                p = spans[p].parent
            if p < 0:
                out.append(i)
        return out

    def busy(prefix):
        return sum(spans[i].end - spans[i].start for i in outermost(prefix))

    def total(idx, key):
        return sum(spans[i].attrs.get(key, 0) for i in idx)

    m: dict[str, float] = {}
    kernel = named("kernel.interior_solutions")
    for mode in ("full", "appendix"):
        idx = [i for i in kernel if spans[i].attrs.get("mode") == mode]
        m[f"kernel.{mode}.calls"] = len(idx)
        m[f"kernel.{mode}.busy_s"] = sum(spans[i].end - spans[i].start for i in idx)
        m[f"kernel.{mode}.cases"] = total(idx, "cases")
        m[f"kernel.{mode}.solutions"] = total(idx, "solutions")

    builds = named("hilbcone.WallRecord.build")
    enum = named("hilbcone.enumerate_walls")
    enum_set = set(enum)
    built_in_enum = sum(1 for i in builds if spans[i].parent in enum_set)
    m["hilbcone.build.calls"] = len(builds)
    m["hilbcone.build.busy_s"] = busy("hilbcone.WallRecord.build")
    m["hilbcone.enumerate.calls"] = len(enum)
    m["hilbcone.enumerate.self_s"] = sum(own[i] for i in enum)
    scans = named("hilbcone.scan_")
    m["hilbcone.scan.self_s"] = sum(own[i] for i in scans)
    m["hilbcone.walls_kept"] = total(enum, "walls")
    m["hilbcone.walls_kept_ratio"] = (
        m["hilbcone.walls_kept"] / built_in_enum if built_in_enum else 0.0
    )

    sph = named("mukai.spherical_search")
    m["mukai.spherical.calls"] = len(sph)
    m["mukai.spherical.busy_s"] = busy("mukai.spherical_search")
    m["mukai.spherical.x_values"] = total(sph, "x_values")
    dec = named("mukai.positive_decomposition_search")
    m["mukai.decomp.calls"] = len(dec)
    m["mukai.decomp.busy_s"] = busy("mukai.positive_decomposition_search")
    m["mukai.decomp.cells"] = total(dec, "cells")
    m["mukai.decomp.found"] = total(dec, "found")
    m["mukai.decomp.peak_mb"] = max(
        (spans[i].attrs.get("peak_bytes", 0) for i in dec), default=0
    ) / 2**20

    m["lattice.build_alpha.busy_s"] = busy("lattice.build_alpha")
    m["lattice.discriminant.busy_s"] = busy("lattice.acts_trivially_on_discriminant")
    m["lattice.isometry.calls"] = len(named("lattice.LatticeMap.is_isometry"))
    m["lattice.isometry.busy_s"] = busy("lattice.LatticeMap.is_isometry")

    m["sigma.busy_s"] = busy("sigma.")
    pell = named("sigma.negative_pell_minimal")
    m["pell.negative.calls"] = len(pell)
    m["pell.negative.busy_s"] = busy("sigma.negative_pell_minimal")

    cli = named("cli.main")
    m["cli.calls"] = len(cli)
    m["cli.self_s"] = sum(own[i] for i in cli)
    return m


def span_rows(spans: list[Span]) -> list[list]:
    """Spans as JSON-ready rows: name, start, end, parent, op, attrs."""
    return [[s.name, s.start, s.end, s.parent, s.op, s.attrs] for s in spans]
