"""Command-line surface.

Subcommands: scan, walls, sigma, strata, lemmas, pell, eichler, formulas.
Exit codes: 0 success, 1 usage or computation error, 2 mathematically
surprising finding (a chamber count above 1, a congruence-mode
disagreement, or a lemma search returning something unexpected).
Library modules are imported by the subcommand that uses them.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from functools import cache

VERIFIED_SCAN_MAX = 200  # chamber counts at or below this n are the established baseline

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FINDING = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_csv(header, rows) -> None:
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    sys.stdout.write(buf.getvalue())


def _wall_obj(rec) -> dict:
    return {
        "rho": rec.rho,
        "alpha": rec.alpha,
        "X": str(rec.X),
        "Y": str(rec.Y),
        "slope": f"{rec.Y}/{rec.X}",
        "a_vec": [str(rec.a_vec.r), str(rec.a_vec.c), str(rec.a_vec.s)],
    }


def _wall_line(rec) -> str:
    tag = ""
    if rec.is_middle:
        tag = "  [middle]"
    elif rec.below_middle:
        tag = "  [below middle]"
    return (
        f"rho={rec.rho} alpha={rec.alpha}  X={rec.X} Y={rec.Y}"
        f"  slope={rec.Y}/{rec.X}  ray=({rec.ray.a},{rec.ray.b})"
        f"  a=({rec.a_vec.r},{rec.a_vec.c},{rec.a_vec.s}){tag}"
    )


# ---------------------------------------------------------------- scan


def cmd_scan(args) -> int:
    from . import hilbcone

    full = args.mode == "full"
    if args.jobs < 1:
        raise ValueError("jobs must be at least 1")
    rows = hilbcone.scan_rows(args.min_n, args.max_n)
    table = [(r.n, r.c_full if full else r.c_appendix) for r in rows]
    findings: list[str] = []
    for r, (n, c) in zip(rows, table):
        if full and r.disagreement:
            for w in r.full_only_below:
                findings.append(
                    f"mode disagreement: n={n} rho={w.rho} alpha={w.alpha} "
                    f"X={w.X} Y={w.Y}"
                )
        if c > 1:
            findings.append(f"C_n > 1: n={n} C_n={c}")

    if args.format == "json":
        obj = {
            "mode": args.mode,
            "rows": [
                {"n": n, "C_n": c, "beyond_verified": n > VERIFIED_SCAN_MAX}
                for n, c in table
            ],
            "findings": findings,
        }
        _emit_json(obj)
    elif args.format == "csv":
        _emit_csv(
            ["n", "C_n", "beyond_verified"],
            [(n, c, str(n > VERIFIED_SCAN_MAX).lower()) for n, c in table],
        )
        for f in findings:
            print(f"FINDING: {f}", file=sys.stderr)
    else:
        for n, c in table:
            suffix = "  [extension]" if n > VERIFIED_SCAN_MAX else ""
            print(f"n={n} C_n={c}{suffix}")
        for f in findings:
            print(f"FINDING: {f}")
    return EXIT_FINDING if findings else EXIT_OK


# ---------------------------------------------------------------- walls


def cmd_walls(args) -> int:
    from . import hilbcone

    full = args.mode == "full"
    walls = hilbcone.enumerate_walls(args.n, full_congruence=full)
    c_n = sum(1 for w in walls if w.below_middle) + 1
    if args.format == "json":
        _emit_json({"n": args.n, "C_n": c_n, "walls": [_wall_obj(w) for w in walls]})
    elif args.format == "csv":
        _emit_csv(
            ["n", "rho", "alpha", "X", "Y", "slope", "a_r", "a_c", "a_s"],
            [
                (
                    w.n,
                    w.rho,
                    w.alpha,
                    str(w.X),
                    str(w.Y),
                    f"{w.Y}/{w.X}",
                    str(w.a_vec.r),
                    str(w.a_vec.c),
                    str(w.a_vec.s),
                )
                for w in walls
            ],
        )
    else:
        t = 4 * args.n - 3
        print(f"n={args.n} t={t} C_n={c_n} interior_walls={len(walls)}")
        for w in walls:
            print(_wall_line(w))
    if args.verify:
        return _verify_walls(args.n, walls, full, c_n)
    return EXIT_OK


def _verify_walls(n: int, walls, full: bool, c_n: int) -> int:
    from . import hilbcone, kernel

    checks = 0
    rays = {w.primitive_ray() for w in walls}
    for w in walls:
        hilbcone.WallRecord.build(n, w.rho, w.alpha, w.X, w.Y)  # re-runs invariants
        checks += 1
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
    rational = sigma.positive_cone_rational(n)
    report = sigma.dimension_report(n)
    obj = {
        "n": n,
        "ns_lattice": {
            "L_square": ns.L_square,
            "kappa_square": ns.kappa_square,
            "gram_det": str(ns.gram_det),
            "kappa_vec": [str(ns.kappa_vec.r), str(ns.kappa_vec.c), str(ns.kappa_vec.s)],
            "gcd3n": ns.g,
        },
        "positive_cone_rational": rational,
        "bir": {
            "status": verdict.status.value,
            "witness": list(verdict.witness) if verdict.witness else None,
            "obstruction": verdict.obstruction,
            "pell_d": verdict.pell_d,
            "pell_solvable": verdict.pell_solvable,
            "w_divisibility": verdict.w_divisibility,
        },
        "dimensions": {
            "h0_full": report.h0_full,
            "proj_dim": report.proj_dim,
            "pluecker_linear_dim": report.pluecker_linear_dim,
            "pluecker_ambient_dim": report.pluecker_ambient_dim,
        },
    }
    if args.format == "json":
        _emit_json(obj)
    elif args.format == "csv":
        _emit_csv(
            ["n", "kappa_square", "positive_cone_rational", "bir_status", "witness"],
            [
                (
                    n,
                    ns.kappa_square,
                    str(rational).lower(),
                    verdict.status.value,
                    f"{verdict.witness.x},{verdict.witness.y}" if verdict.witness else "",
                )
            ],
        )
    else:
        print(f"n={n}  NS = <2> + <{ns.kappa_square}>   (gcd(3,n)={ns.g})")
        print(
            f"kappa = ({ns.kappa_vec.r},{ns.kappa_vec.c},{ns.kappa_vec.s})"
            f"  kappa^2 = {ns.kappa_square}"
        )
        print(f"positive cone rays rational: {rational}")
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
        print(line)
        print(
            f"dims: h0={report.h0_full} proj={report.proj_dim}"
            f" pluecker_linear={report.pluecker_linear_dim}"
            f" pluecker_ambient={report.pluecker_ambient_dim}"
        )
    if args.verify:
        checks = 3  # construction of NsSigma already validated kappa
        if sigma.h0_sigma(n, 1) != report.pluecker_linear_dim:
            print("verify: FAIL h0 cross-check", file=sys.stderr)
            return EXIT_ERROR
        if ns.gram_det != -4 * (4 * n - 3) * (n - 3) // (ns.g * ns.g):
            print("verify: FAIL discriminant", file=sys.stderr)
            return EXIT_ERROR
        print(f"verify: {checks + 2} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------- strata


def cmd_strata(args) -> int:
    from . import mukai

    ctx = mukai.MukaiContext(args.n)
    rows = mukai.strata_table(ctx)
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "r_max": mukai.r_max(ctx),
                "strata": [
                    {
                        "k": r.k,
                        "vector": [str(r.vector.r), str(r.vector.c), str(r.vector.s)],
                        "moduli_dim": r.moduli_dim,
                        "codim_in_N": r.codim_in_N,
                        "fiber_dim": r.fiber_dim,
                        "dim_Jk": r.dim_Jk,
                        "hom_rank": r.hom_rank,
                    }
                    for r in rows
                ],
            }
        )
    elif args.format == "csv":
        _emit_csv(
            ["n", "k", "moduli_dim", "codim_in_N", "fiber_dim", "dim_Jk", "hom_rank"],
            [
                (args.n, r.k, r.moduli_dim, r.codim_in_N, r.fiber_dim, r.dim_Jk, r.hom_rank)
                for r in rows
            ],
        )
    else:
        print(f"n={args.n}  r_max={mukai.r_max(ctx)}")
        for r in rows:
            print(
                f"k={r.k}  v=({r.vector.r},{r.vector.c},{r.vector.s})"
                f"  moduli_dim={r.moduli_dim}  codim={r.codim_in_N}"
                f"  fiber={r.fiber_dim}  dim_Jk={r.dim_Jk}  hom={r.hom_rank}"
            )
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
    for i in range(-1, mukai.r_max(ctx) + 1):
        vi = mukai.v_i(ctx, i)
        vi_sq = mukai.mukai_pairing(ctx, vi, vi)
        if vi_sq <= 0:
            continue
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
    if args.format == "json":
        _emit_json(
            {
                "n": n,
                "bound": bound,
                "spherical": [
                    {"i": i, "pairs": [list(p) for p in got]} for i, got in spherical_rows
                ],
                "positive_decompositions": [
                    {"i": i, "count": c} for i, c in positive_rows
                ],
                "surprises": surprises,
            }
        )
    else:
        print(f"n={n} bound={bound}")
        for i, got in spherical_rows:
            print(f"spherical window i={i}: {got}")
        for i, c in positive_rows:
            print(f"positive decompositions i={i}: {c}")
        for s in surprises:
            print(f"FINDING: {s}")
    return EXIT_FINDING if surprises else EXIT_OK


# ---------------------------------------------------------------- pell


def cmd_pell(args) -> int:
    from . import pell

    if args.kind == "mixed":
        if args.p is None or args.q is None:
            print("pell --kind mixed requires --p and --q", file=sys.stderr)
            return EXIT_ERROR
        sol = pell.minimal_solution_mixed(args.p, args.q, x_bound=args.bound)
        obj = {
            "kind": "mixed",
            "p": args.p,
            "q": args.q,
            "solution": [str(sol.x), str(sol.y)] if sol else None,
        }
        ok_line = (
            f"{args.p}*x^2 - {args.q}*y^2 = -1: "
            + (f"minimal (x,y)=({sol.x},{sol.y})" if sol else "no solution below bound")
        )
    else:
        if args.d is None:
            print("pell requires --d for this kind", file=sys.stderr)
            return EXIT_ERROR
        if args.kind == "fundamental":
            sol = pell.fundamental_solution(args.d)
        else:
            sol = pell.negative_pell_minimal(args.d)
        obj = {
            "kind": args.kind,
            "D": args.d,
            "solution": [str(sol.x), str(sol.y)] if sol else None,
        }
        rhs = 1 if args.kind == "fundamental" else -1
        ok_line = f"x^2 - {args.d}*y^2 = {rhs}: " + (
            f"minimal (x,y)=({sol.x},{sol.y})" if sol else "unsolvable"
        )
    if args.format == "json":
        _emit_json(obj)
    elif args.format == "csv":
        _emit_csv(
            ["kind", "solution_x", "solution_y"],
            [(obj["kind"], *(obj["solution"] or ("", "")))],
        )
    else:
        print(ok_line)
    if args.verify and sol is not None:
        if args.kind == "mixed":
            ok = (
                args.p * sol.x**2 - args.q * sol.y**2 == -1
                and pell.minimal_solution_mixed(args.p, args.q, x_bound=sol.x - 1)
                is None
            )
        else:
            ok = sol.x * sol.x - args.d * sol.y * sol.y == rhs and not (
                pell.has_smaller_solution(args.d, rhs, sol.y)
            )
        if not ok:
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
    t = 4 * n - 3
    if args.format == "json":
        _emit_json(
            {
                "n": n,
                "rank": 23,
                "fixed_class_image": [str(c) for c in fixed_out.coords],
                "kappa_image": [str(c) for c in kappa.coords],
                "isometry": True,
                "discriminant_trivial": disc,
            }
        )
    else:
        print(f"n={n}  period lattice rank 23, l^2 = {-2 * (n - 1)}")
        print(f"alpha(u + {t}v - 2l) = u + v: True")
        print(f"alpha(2(n-1)(u + {t}v) - {t}l) = 2(n-1)(u-v) + 4(n-1)v1 - l: True")
        if args.verify:
            print("gram preserved: True")
            print(f"acts trivially on discriminant group: {disc}")
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
    obj = {
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
    if args.format == "json":
        _emit_json(obj)
    elif args.format == "csv":
        _emit_csv(sorted(obj), [tuple(obj[k] for k in sorted(obj))])
    else:
        print(f"n={n}")
        print(f"h0(fixed class) = {report.h0_full}  (system is a P^{report.proj_dim})")
        print(
            f"skew subsystem quotient dim = {report.pluecker_linear_dim}, "
            f"ambient P^{report.pluecker_ambient_dim}"
        )
        print(f"zero locus length = {length}")
        print(f"pencil projection degree (Catalan) = {catalan}")
        print(
            f"cover degree {deg} divides section-map degree {total}: {divides}"
        )
    return EXIT_OK


# ---------------------------------------------------------------- driver


def _add_common(
    p, with_mode=False, with_verify=False, formats=("text", "json", "csv")
):
    p.add_argument("--format", choices=formats, default="text")
    if with_mode:
        p.add_argument("--mode", choices=("appendix", "full"), default="full")
    if with_verify:
        p.add_argument("--verify", action="store_true")


@cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built on first use and then reused."""
    parser = _Parser(prog="k3invol", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="chamber counts C_n over a range of n")
    p.add_argument("--min-n", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for old scripts; scans run in one process",
    )
    _add_common(p, with_mode=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("walls", help="interior wall records for one n")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, with_mode=True, with_verify=True)
    p.set_defaults(func=cmd_walls)

    p = sub.add_parser("sigma", help="NS lattice / finiteness data of the moduli space")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, with_verify=True)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("strata", help="indeterminacy-locus stratification table")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, with_verify=True)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("lemmas", help="brute-force spherical/positive class searches")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, default=50)
    _add_common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("pell", help="Pell equation solvers")
    p.add_argument("--kind", choices=("fundamental", "negative", "mixed"), required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--bound", type=int, default=10**5)
    _add_common(p, with_verify=True)
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("eichler", help="period-lattice isometry verification")
    p.add_argument("--n", type=int, required=True)
    _add_common(p, with_verify=True, formats=("text", "json"))
    p.set_defaults(func=cmd_eichler)

    p = sub.add_parser("formulas", help="dimension and degree formulas for one n")
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_formulas)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        print(f"k3invol: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
