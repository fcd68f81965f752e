"""Command-line surface.

Subcommands: scan, walls, sigma, strata, lemmas, pell, eichler, formulas.
Exit codes: 0 success, 1 usage or computation error, 2 mathematically
surprising finding (a chamber count above 1, a congruence-mode
disagreement, or a lemma search returning something unexpected).
Library modules are imported by the subcommand that uses them.

Each subcommand's options are declared once, in _COMMANDS.  main parses
a plain argv from that table: a subcommand, then only its exact long
options, every required one among them, each but a flag followed by a
value that does not start with -, converts and is allowed.  Any other
argv (none, -h, an = form, an abbreviation, a usage error) goes to the
argparse parser that build_parser makes from the same table, the oracle
in the tests.  JSON is written by _json, whose
oracle there is json.dumps(obj, sort_keys=True, indent=2).  CPython's
limit on the digits of an int-to-str conversion is lifted while a
subcommand runs.
"""

from __future__ import annotations

import io
import json
import math
import sys
from functools import cache
from types import SimpleNamespace

VERIFIED_SCAN_MAX = 200  # chamber counts at or below this n are the established baseline

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDING = 2


_JSON_SCALARS = {  # by exact type; int.__repr__ as in json
    str: json.encoder.encode_basestring_ascii,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json(obj, indent: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` nested at ``indent``
    (a newline and two spaces a level) for dicts with str keys, lists, str,
    int, bool and None; TypeError on anything else.  CPython encodes
    indented JSON in pure Python; here each scalar child is encoded in its
    parent's loop."""
    scalar = _JSON_SCALARS.get
    enc = scalar(type(obj))
    if enc is not None:
        return enc(obj)
    inner = indent + "  "
    parts = []
    if type(obj) is dict:
        if not obj:
            return "{}"
        key = _JSON_SCALARS[str]  # raises TypeError on a key that is no str
        for k, v in sorted(obj.items()):
            enc = scalar(type(v))
            parts.append(key(k) + ": " + (enc(v) if enc else _json(v, inner)))
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    if type(obj) is list:
        if not obj:
            return "[]"
        for v in obj:
            enc = scalar(type(v))
            parts.append(enc(v) if enc else _json(v, inner))
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(args, record, text, columns=(), rows=()) -> None:
    """Print one subcommand's output in ``args.format``: its ``record`` as
    JSON, the header ``columns`` over ``rows`` as CSV, or the lines that
    ``text()`` yields.  ``text`` runs only for text, and a generator passed
    as ``rows`` only for CSV, so no format pays for another's strings."""
    if args.format == "json":
        print(_json(record, "\n"))
    elif args.format == "csv":
        import csv

        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        print(*text(), sep="\n")


def _wall_line(rec) -> str:
    tag = ""
    if rec.is_middle:
        tag = "  [middle]"
    elif rec.below_middle:
        tag = "  [below middle]"
    h_coeff, delta_coeff = rec.ray
    return (
        f"rho={rec.rho} alpha={rec.alpha}  X={rec.X} Y={rec.Y}"
        f"  slope={rec.Y}/{rec.X}  ray=({h_coeff},{delta_coeff})"
        f"  a=({rec.a_vec.r},{rec.a_vec.c},{rec.a_vec.s}){tag}"
    )


# ---------------------------------------------------------------- scan


def cmd_scan(args) -> int:
    from . import hilbcone

    if args.jobs < 1:
        raise ValueError("jobs must be at least 1")
    rows = hilbcone.scan_rows(args.min_n, args.max_n, args.mode == "full")
    findings: list[str] = []
    for r in rows:
        for w in r.below_middle:
            findings.append(
                f"mode disagreement: n={r.n} rho={w.rho} alpha={w.alpha} "
                f"X={w.X} Y={w.Y}"
            )
        if r.c_n > 1:
            findings.append(f"C_n > 1: n={r.n} C_n={r.c_n}")
    record = {
        "mode": args.mode,
        "rows": [
            {"n": n, "C_n": c, "beyond_verified": n > VERIFIED_SCAN_MAX} for n, c, _ in rows
        ],
        "findings": findings,
    }

    def text():
        for n, c, _ in rows:
            yield f"n={n} C_n={c}" + ("  [extension]" if n > VERIFIED_SCAN_MAX else "")
        for f in findings:
            yield f"FINDING: {f}"

    csv_rows = (
        (r["n"], r["C_n"], str(r["beyond_verified"]).lower()) for r in record["rows"]
    )
    _emit(args, record, text, ("n", "C_n", "beyond_verified"), csv_rows)
    if args.format == "csv":  # a CSV's findings go to stderr, after its rows
        for f in findings:
            print(f"FINDING: {f}", file=sys.stderr)
    return EXIT_FINDING if findings else EXIT_OK


# ---------------------------------------------------------------- walls


def cmd_walls(args) -> int:
    from . import hilbcone

    full = args.mode == "full"
    walls = hilbcone.enumerate_walls(args.n, full_congruence=full)
    c_n = sum(1 for w in walls if w.below_middle) + 1
    record = {
        "n": args.n,
        "C_n": c_n,
        "walls": [
            {
                "rho": w.rho,
                "alpha": w.alpha,
                "X": str(w.X),
                "Y": str(w.Y),
                "slope": f"{w.Y}/{w.X}",
                "a_vec": list(map(str, w.a_vec)),
            }
            for w in walls
        ],
    }

    def text():
        yield f"n={args.n} t={4 * args.n - 3} C_n={c_n} interior_walls={len(walls)}"
        yield from map(_wall_line, walls)

    columns = ("n", "rho", "alpha", "X", "Y", "slope", "a_r", "a_c", "a_s")
    csv_rows = (
        (args.n, *(w[c] for c in columns[1:6]), *w["a_vec"]) for w in record["walls"]
    )
    _emit(args, record, text, columns, csv_rows)
    if args.verify:
        return _verify_walls(args.n, walls, full, c_n)
    return EXIT_OK


def _verify_walls(n: int, walls, full: bool, c_n: int) -> int:
    from . import kernel

    # enumerate_walls built, and so validated, each record once: one check each
    checks = len(walls)
    rays = {w.primitive_ray() for w in walls}
    if full:
        for x, y in rays:
            mx, my = kernel.mirror(n, x, y)
            g = math.gcd(mx, my)
            if (mx // g, my // g) not in rays:
                print("verify: FAIL involution stability", file=sys.stderr)
                return EXIT_ERROR
        checks += 1
        if len(walls) != 2 * c_n - 1:
            print("verify: FAIL wall count symmetry", file=sys.stderr)
            return EXIT_ERROR
        checks += 1
    print(f"verify: {checks} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------- sigma


def cmd_sigma(args) -> int:
    from . import sigma

    n = args.n
    ns = sigma.ns_sigma(n)
    verdict = sigma.bir_finiteness(n)
    # rational rays are the one finite verdict without a Pell witness
    rational = verdict.status is sigma.BirStatus.FINITE and verdict.witness is None
    report = sigma.dimension_report(n)
    record = {
        "n": n,
        "ns_lattice": {
            "L_square": ns.L_square,
            "kappa_square": ns.kappa_square,
            "gram_det": str(ns.gram_det),
            "kappa_vec": list(map(str, ns.kappa_vec)),
            "gcd3n": ns.g,
        },
        "positive_cone_rational": rational,
        "bir": dict(
            zip(verdict._fields, verdict),
            status=verdict.status.value,
            witness=list(verdict.witness) if verdict.witness else None,
        ),
        "dimensions": {
            "h0_full": report.h0_full,
            "proj_dim": report.proj_dim,
            "pluecker_linear_dim": report.pluecker_linear_dim,
            "pluecker_ambient_dim": report.pluecker_ambient_dim,
        },
    }

    def text():
        yield f"n={n}  NS = <2> + <{ns.kappa_square}>   (gcd(3,n)={ns.g})"
        yield (
            f"kappa = ({ns.kappa_vec.r},{ns.kappa_vec.c},{ns.kappa_vec.s})"
            f"  kappa^2 = {ns.kappa_square}"
        )
        yield f"positive cone rays rational: {rational}"
        line = f"Bir: {verdict.status.value}"
        if verdict.witness:
            line += f"  witness=({verdict.witness.x},{verdict.witness.y})"
        if verdict.obstruction:
            line += f"  obstruction p={verdict.obstruction}"
        if verdict.status is sigma.BirStatus.UNKNOWN:
            line += (
                f"  [pell_d={verdict.pell_d} solvable={verdict.pell_solvable}"
                f" w_div={verdict.w_divisibility}]"
            )
        yield line
        yield (
            f"dims: h0={report.h0_full} proj={report.proj_dim}"
            f" pluecker_linear={report.pluecker_linear_dim}"
            f" pluecker_ambient={report.pluecker_ambient_dim}"
        )

    columns = ("n", "kappa_square", "positive_cone_rational", "bir_status", "witness")
    bir = record["bir"]
    # a generator: only a CSV run formats the witness, as one cell "x,y"
    csv_rows = (
        (n, ns.kappa_square, str(rational).lower(), bir["status"], ",".join(map(str, w)))
        for w in [bir["witness"] or ()]
    )
    _emit(args, record, text, columns, csv_rows)
    if args.verify:
        # ns_sigma checked kappa: integral, of square -2t(n-3)/g^2 (so the
        # discriminant 2 kappa^2 is right) and orthogonal to u and w;
        # dimension_report checked h0; each raises before any output
        print("verify: 5 checks passed")
    return EXIT_OK


# ---------------------------------------------------------------- strata


def cmd_strata(args) -> int:
    from . import mukai

    ctx = mukai.MukaiContext(args.n)
    rows = mukai.strata_table(ctx)
    fields = mukai.StrataRow._fields
    record = {
        "n": args.n,
        "r_max": mukai.r_max(ctx),
        "strata": [dict(zip(fields, r), vector=list(map(str, r.vector))) for r in rows],
    }

    def text():
        yield f"n={args.n}  r_max={record['r_max']}"
        for r in rows:
            yield (
                f"k={r.k}  v=({r.vector.r},{r.vector.c},{r.vector.s})"
                f"  moduli_dim={r.moduli_dim}  codim={r.codim_in_N}"
                f"  fiber={r.fiber_dim}  dim_Jk={r.dim_Jk}  hom={r.hom_rank}"
            )

    columns = ("n", "k", "moduli_dim", "codim_in_N", "fiber_dim", "dim_Jk", "hom_rank")
    csv_rows = ((args.n, *(s[c] for c in columns[1:])) for s in record["strata"])
    _emit(args, record, text, columns, csv_rows)
    if args.verify:
        for r in rows:
            if r.moduli_dim != 2 * args.n - 2 * (r.k + 1) * (r.k + 2):
                print(f"verify: FAIL moduli dimension at k={r.k}: {r}", file=sys.stderr)
                return EXIT_ERROR
            if r.dim_Jk != r.moduli_dim + r.fiber_dim:
                print(f"verify: FAIL dim J_k at k={r.k}: {r}", file=sys.stderr)
                return EXIT_ERROR
        print(f"verify: {2 * len(rows)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------- lemmas


def cmd_lemmas(args) -> int:
    from . import mukai

    ctx = mukai.MukaiContext(args.n)
    n = args.n
    bound = args.bound
    if bound < 0:
        print(f"lemmas: --bound must be at least 0, got {bound}", file=sys.stderr)
        return EXIT_ERROR
    surprises = []
    spherical_rows = []
    # (v^(i))^2 = 2n - 2(i+1)(i+2) - 2 is positive, and the window of v^(i)
    # nonempty, exactly when (2i+3)^2 <= 4n-7
    i_top = (math.isqrt(4 * n - 7) - 3) // 2
    for i in range(-1, i_top + 1):
        got = mukai.spherical_search(ctx, i, bound)
        expected = mukai.expected_spherical_window(ctx, i, bound)
        spherical_rows.append((i, got))
        if set(got) != expected:
            surprises.append(f"spherical i={i}: got {got} expected {sorted(expected)}")
    positive_rows = []
    for i in range(0, mukai.r_max(ctx) + 1):
        found = mukai.positive_decomposition_search(ctx, i, bound)
        positive_rows.append((i, len(found)))
        if found:
            surprises.append(f"positive decomposition i={i}: {len(found)} pairs")
    record = {
        "n": n,
        "bound": bound,
        "spherical": [
            {"i": i, "pairs": [list(p) for p in got]} for i, got in spherical_rows
        ],
        "positive_decompositions": [{"i": i, "count": c} for i, c in positive_rows],
        "surprises": surprises,
    }

    def text():
        yield f"n={n} bound={bound}"
        for i, got in spherical_rows:
            yield f"spherical window i={i}: {got}"
        for i, c in positive_rows:
            yield f"positive decompositions i={i}: {c}"
        for s in surprises:
            yield f"FINDING: {s}"

    _emit(args, record, text)
    return EXIT_FINDING if surprises else EXIT_OK


# ---------------------------------------------------------------- pell


def cmd_pell(args) -> int:
    from . import pell

    if args.kind == "mixed":
        if args.p is None or args.q is None:
            print("pell --kind mixed requires --p and --q", file=sys.stderr)
            return EXIT_ERROR
        if args.bound is not None and args.bound < 1:
            # old scripts that pass a bound below 1 keep their error
            print(f"pell: --bound must be at least 1, got {args.bound}", file=sys.stderr)
            return EXIT_ERROR
        sol = pell.minimal_solution_mixed(args.p, args.q)
        misplaced = "--d does not apply to --kind mixed" if args.d is not None else ""
        record = {"kind": "mixed", "p": args.p, "q": args.q}
        equation = f"{args.p}*x^2 - {args.q}*y^2 = -1"
    else:
        if args.d is None:
            print("pell requires --d for this kind", file=sys.stderr)
            return EXIT_ERROR
        if args.kind == "fundamental":
            sol = pell.fundamental_solution(args.d)
        else:
            sol = pell.negative_pell_minimal(args.d, max_period=pell.MAX_PERIOD)
        given = (args.p, args.q, args.bound) != (None, None, None)
        misplaced = "--p, --q and --bound apply only to --kind mixed" if given else ""
        record = {"kind": args.kind, "D": args.d}
        D, rhs = args.d, (1 if args.kind == "fundamental" else -1)
        equation = f"x^2 - {args.d}*y^2 = {rhs}"
    # checked after the solver, so that an input it rejects keeps its error
    if misplaced:
        print(f"pell: {misplaced}", file=sys.stderr)
        return EXIT_ERROR
    xy = record["solution"] = [str(sol.x), str(sol.y)] if sol else None

    def text():
        yield f"{equation}: " + (f"minimal (x,y)=({xy[0]},{xy[1]})" if xy else "unsolvable")

    csv_rows = [(args.kind, *(xy or ("", "")))]
    _emit(args, record, text, ("kind", "solution_x", "solution_y"), csv_rows)
    if args.verify and sol is not None:
        X, Y = sol
        if args.kind == "mixed":
            # p*x^2 - q*y^2 = -1 is X^2 - pq*Y^2 = rhs with |rhs| = min(p, q) | X
            D, rhs = args.p * args.q, (-args.p if args.p < args.q else args.q)
            X, Y = (args.p * X, Y) if args.p < args.q else (args.q * Y, X)
        if X * X - D * Y * Y != rhs or pell.has_smaller_solution(D, rhs, Y, abs(rhs)):
            print("verify: FAIL minimality/equation", file=sys.stderr)
            return EXIT_ERROR
        print("verify: equation and minimality confirmed")
    return EXIT_OK


# ---------------------------------------------------------------- eichler


def cmd_eichler(args) -> int:
    from . import lattice

    n = args.n
    # build_alpha raises unless both images are the expected ones, and the
    # discriminant check raises, before anything prints, unless alpha is an
    # isometry, so the output reports both as True
    alpha, fixed_out, kappa = lattice.build_alpha(n)
    disc = lattice.acts_trivially_on_discriminant(alpha)
    record = {
        "n": n,
        "rank": 23,
        "fixed_class_image": [str(c) for c in lattice.xi_coords(fixed_out)],
        "kappa_image": [str(c) for c in lattice.xi_coords(kappa)],
        "isometry": True,
        "discriminant_trivial": disc,
    }

    def text():
        t = 4 * n - 3
        yield f"n={n}  period lattice rank 23, l^2 = {-2 * (n - 1)}"
        yield f"alpha(u + {t}v - 2l) = u + v: True"
        yield f"alpha(2(n-1)(u + {t}v) - {t}l) = 2(n-1)(u-v) + 4(n-1)v1 - l: True"
        if args.verify:
            yield "gram preserved: True"
            yield f"acts trivially on discriminant group: {disc}"

    _emit(args, record, text)
    if not disc:
        print("verify: FAIL isometry/discriminant", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


# ---------------------------------------------------------------- formulas


def cmd_formulas(args) -> int:
    from . import sigma

    n = args.n
    report = sigma.dimension_report(n)
    catalan = sigma.catalan_degree(n)
    length = sigma.zero_locus_length(n)
    deg, total, divides = sigma.cover_degree_bound(n)
    record = {
        "n": n,
        "h0_full": str(report.h0_full),
        "proj_dim": str(report.proj_dim),
        "pluecker_linear_dim": str(report.pluecker_linear_dim),
        "pluecker_ambient_dim": str(report.pluecker_ambient_dim),
        "catalan_degree": str(catalan),
        "zero_locus_length": length,
        "cover_degree": deg,
        "section_map_degree": str(total),
        "cover_degree_divides": divides,
    }

    def text():
        yield f"n={n}"
        yield f"h0(fixed class) = {report.h0_full}  (system is a P^{report.proj_dim})"
        yield (
            f"skew subsystem quotient dim = {report.pluecker_linear_dim}, "
            f"ambient P^{report.pluecker_ambient_dim}"
        )
        yield f"zero locus length = {length}"
        yield f"pencil projection degree (Catalan) = {catalan}"
        yield f"cover degree {deg} divides section-map degree {total}: {divides}"

    # unlike scan and sigma, this CSV spells its bool True or False
    columns = sorted(record)
    _emit(args, record, text, columns, [[record[k] for k in columns]])
    return EXIT_OK


# ---------------------------------------------------------------- driver

# each subcommand's options as {flag: add_argument keywords}, in -h order
_N = {"--n": {"type": int, "required": True}}  # every subcommand but scan and pell
_FORMAT = {"--format": {"choices": ("text", "json", "csv"), "default": "text"}}
_TEXT_OR_JSON = {"--format": {"choices": ("text", "json"), "default": "text"}}
_MODE = {"--mode": {"choices": ("appendix", "full"), "default": "full"}}
_VERIFY = {"--verify": {"action": "store_true"}}

_COMMANDS = {  # name: (help, function, options)
    "scan": ("chamber counts C_n over a range of n", cmd_scan, {
        "--min-n": {"type": int, "required": True},
        "--max-n": {"type": int, "required": True},
        "--jobs": {"type": int, "default": 1,
                   "help": "accepted for old scripts; scans run in one process"},
        **_FORMAT, **_MODE}),
    "walls": ("interior wall records for one n", cmd_walls,
              {**_N, **_FORMAT, **_MODE, **_VERIFY}),
    "sigma": ("NS lattice / finiteness data of the moduli space", cmd_sigma,
              {**_N, **_FORMAT, **_VERIFY}),
    "strata": ("indeterminacy-locus stratification table", cmd_strata,
               {**_N, **_FORMAT, **_VERIFY}),
    "lemmas": ("brute-force spherical/positive class searches", cmd_lemmas,
               {**_N, "--bound": {"type": int, "default": 50}, **_TEXT_OR_JSON}),
    "pell": ("Pell equation solvers", cmd_pell, {
        "--kind": {"choices": ("fundamental", "negative", "mixed"), "required": True},
        "--d": {"type": int, "default": None},
        "--p": {"type": int, "default": None},
        "--q": {"type": int, "default": None},
        "--bound": {"type": int, "default": None,
                    "help": "accepted for old scripts; --kind mixed needs no bound"},
        **_FORMAT, **_VERIFY}),
    "eichler": ("period-lattice isometry verification", cmd_eichler,
                {**_N, **_TEXT_OR_JSON, **_VERIFY}),
    "formulas": ("dimension and degree formulas for one n", cmd_formulas,
                 {**_N, **_FORMAT}),
}


@cache
def build_parser():
    """The top-level argparse parser, built from ``_COMMANDS`` on first use
    and then reused."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # usage errors must exit 1, not argparse's 2
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_ERROR)

    # --help shows the module docstring up to its notes on the fast paths
    parser = _Parser(prog="k3invol", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag, kw in options.items():
            p.add_argument(flag, **kw)
    return parser


def _table_parse(argv):
    """The Namespace of a plain argv, read from ``_COMMANDS``, or None for
    the full parser to decide (see the module docstring)."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, options = _COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kw = options.get(flag)
        if kw is None:
            return None
        if "action" in kw:  # store_true
            given[flag] = True
            continue
        value = next(tokens, "-")  # a missing value is declined as "-"
        if value.startswith("-"):
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:  # a bad value, or an int past the digit limit
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[flag] = value  # a repeat overrides, as in argparse
    for flag, kw in options.items():
        if flag not in given:
            if kw.get("required"):
                return None
            given[flag] = kw.get("default", False if "action" in kw else None)
    dests = {flag[2:].replace("-", "_"): value for flag, value in given.items()}
    return SimpleNamespace(command=argv[0], func=func, **dests)


def _parse(argv):
    argv = sys.argv[1:] if argv is None else list(argv)
    return _table_parse(argv) or build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # exact answers can pass CPython's 4300-digit limit on int-to-str
    # conversion; it stays in force while arguments are parsed
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"k3invol: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
