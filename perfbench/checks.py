"""Reference answers and output checks for the k3invol benchmark.

Every expected value here is computed from the closed formulas the
package documents, never by calling the package: a check that asked the
code under test for its own answer would pass whatever that code does.
Each check returns a list of error strings; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
import math
import random
import re

BLOCK = 8  # stratum width of the certify sample
XI_RANK = 23  # rank of the period lattice U^3 + E8(-1)^2 + <-2(n-1)>
XI_ELL = 22  # coordinate of l in that basis


# ------------------------------------------------------------ sampling


def draw_sample(seed: int, pass_no: int, per_block: int, lo: int, hi: int) -> list[int]:
    """Seeded draw without replacement from [lo, hi], in seeded order.

    The range is cut into blocks of BLOCK consecutive n and ``per_block``
    values are drawn from each, so every sample covers the whole cost
    range: the decomposition search grows about tenfold over [4, 130], and
    an unstratified draw would move the latency percentiles with the seed.
    With ``per_block == BLOCK`` the sample is the whole range.
    """
    rng = random.Random(f"certify:{seed}:{pass_no}")
    out = []
    for start in range(lo, hi + 1, BLOCK):
        block = list(range(start, min(start + BLOCK, hi + 1)))
        out.extend(rng.sample(block, min(per_block, len(block))))
    rng.shuffle(out)
    return out


# ------------------------------------------------------------ Mukai vectors


def v_i(n: int, i: int) -> tuple[int, int, int]:
    """v^(i) = v - (i+1)a = (2i+3, -(i+1), (2i+1)n - i)."""
    return 2 * i + 3, -(i + 1), (2 * i + 1) * n - i


def v_i_square(n: int, i: int) -> int:
    r, c, s = v_i(n, i)
    return 2 * (4 * n - 3) * c * c - 2 * r * s


def r_max(n: int) -> int:
    """Largest i >= 0 with (i+1)(i+2) <= n."""
    i = 0
    while (i + 2) * (i + 3) <= n:
        i += 1
    return i


def spherical_indices(n: int) -> list[int]:
    """The i the lemmas command searches for spherical classes."""
    return [i for i in range(-1, r_max(n) + 1) if v_i_square(n, i) > 0]


def decomposition_indices(n: int) -> list[int]:
    """The i the lemmas command searches for positive decompositions."""
    return list(range(0, r_max(n) + 1))


def expected_spherical(n: int, i: int) -> set[tuple[int, int]]:
    """The spherical window: a = (0, 1) exactly when 2(2i+3) <= (v^(i))^2,
    plus v^(i+1) = (1, -(i+2)) when n = m(m+1) and i = m-2."""
    out = set()
    if 2 * (2 * i + 3) <= v_i_square(n, i):
        out.add((0, 1))
    z = math.isqrt(4 * n + 1)
    if z * z == 4 * n + 1:
        m = (z - 1) // 2
        if n == m * (m + 1) and i == m - 2:
            out.add((1, -(i + 2)))
    return out


def check_spherical(n: int, i: int, got) -> list[str]:
    pairs = [tuple(p) for p in got]
    want = expected_spherical(n, i)
    if len(pairs) != len(set(pairs)) or set(pairs) != want:
        return [f"spherical n={n} i={i}: got {sorted(pairs)} expected {sorted(want)}"]
    return []


def check_decomposition(n: int, i: int, got) -> list[str]:
    if len(got):
        return [f"decomposition n={n} i={i}: {len(got)} unexpected pairs"]
    return []


# ------------------------------------------------------------ CLI outputs


def parse_cli_json(text: str):
    """The JSON document a subcommand printed, and the text after it."""
    text = text.lstrip()
    obj, end = json.JSONDecoder().raw_decode(text)
    if not isinstance(obj, dict):
        raise ValueError("output is not a JSON object")
    return obj, text[end:]


def _verified(rest: str) -> bool:
    return re.search(r"^verify: \d+ checks passed$", rest, re.M) is not None


def check_eichler(n: int, rc, text: str) -> list[str]:
    if rc != 0:
        return [f"eichler n={n}: exit {rc}"]
    try:
        obj, _ = parse_cli_json(text)
    except ValueError as exc:
        return [f"eichler n={n}: unparsable output ({exc})"]
    m = n - 1
    fixed = ["0"] * XI_RANK
    fixed[0] = fixed[1] = "1"  # u + v
    kappa = [0] * XI_RANK
    kappa[0], kappa[1], kappa[3], kappa[XI_ELL] = 2 * m, -2 * m, 4 * m, -1
    errors = []
    if obj.get("n") != n or obj.get("rank") != XI_RANK:
        errors.append(f"eichler n={n}: wrong n or rank")
    if obj.get("isometry") is not True:
        errors.append(f"eichler n={n}: isometry is not true")
    if obj.get("discriminant_trivial") is not True:
        errors.append(f"eichler n={n}: discriminant_trivial is not true")
    if obj.get("fixed_class_image") != fixed:
        errors.append(f"eichler n={n}: alpha(u + tv - 2l) != u + v")
    if obj.get("kappa_image") != [str(c) for c in kappa]:
        errors.append(f"eichler n={n}: wrong image of 2(n-1)(u + tv) - tl")
    return errors


def check_sigma(n: int, rc, text: str) -> list[str]:
    if rc != 0:
        return [f"sigma n={n}: exit {rc}"]
    try:
        obj, rest = parse_cli_json(text)
    except ValueError as exc:
        return [f"sigma n={n}: unparsable output ({exc})"]
    t = 4 * n - 3
    g = math.gcd(3, n)
    delta = t * (n - 3) // (g * g)
    want_ns = {
        "L_square": 2,
        "gcd3n": g,
        "kappa_square": -2 * delta,
        "gram_det": str(-4 * delta),
        "kappa_vec": [str(t // g), str(-((2 * n - 3) // g)), str(t * (n - 2) // g)],
    }
    errors = []
    if obj.get("n") != n or obj.get("ns_lattice") != want_ns:
        errors.append(f"sigma n={n}: NS lattice {obj.get('ns_lattice')} != {want_ns}")
    if obj.get("positive_cone_rational") != (math.isqrt(delta) ** 2 == delta):
        errors.append(f"sigma n={n}: wrong positive-cone rationality")
    if (obj.get("bir") or {}).get("status") not in ("finite", "infinite", "unknown"):
        errors.append(f"sigma n={n}: bad Bir status")
    if not _verified(rest):
        errors.append(f"sigma n={n}: no verify line")
    return errors


def check_strata(n: int, rc, text: str) -> list[str]:
    if rc != 0:
        return [f"strata n={n}: exit {rc}"]
    try:
        obj, rest = parse_cli_json(text)
    except ValueError as exc:
        return [f"strata n={n}: unparsable output ({exc})"]
    want = []
    for k in range(r_max(n) + 1):
        fiber = (k + 1) * (k + 2)
        want.append(
            {
                "k": k,
                "vector": [str(c) for c in v_i(n, k)],
                "moduli_dim": 2 * n - 2 * fiber,
                "codim_in_N": 2 * fiber,
                "fiber_dim": fiber,
                "dim_Jk": 2 * n - fiber,
                "hom_rank": 2 * k + 3,
            }
        )
    errors = []
    if obj.get("n") != n or obj.get("r_max") != r_max(n) or obj.get("strata") != want:
        errors.append(f"strata n={n}: rows do not match the codimension/fiber formulas")
    if not _verified(rest):
        errors.append(f"strata n={n}: no verify line")
    return errors


CLI_CHECKS = {"eichler": check_eichler, "sigma": check_sigma, "strata": check_strata}


# ------------------------------------------------------------ scans


def check_scan(rc, text: str, mode: str, lo: int, hi: int) -> set[int]:
    """The n in [lo, hi] whose scan output is wrong.

    C_n = 1 holds for every n <= 1000 in both modes, so every n must be
    present once with C_n = 1, no finding may be reported, and the exit
    code must be 0. A crash, a nonzero exit or unreadable output fails
    every n of the invocation; a finding naming an n fails that n.
    """
    every = set(range(lo, hi + 1))
    if rc != 0:
        return every
    try:
        obj, _ = parse_cli_json(text)
        rows, findings = obj["rows"], obj["findings"]
        if obj["mode"] != mode or sorted(r["n"] for r in rows) != sorted(every):
            return every
    except (ValueError, KeyError, TypeError):
        return every
    failed = {r["n"] for r in rows if r.get("C_n") != 1}
    for f in findings:
        named = re.search(r"\bn=(\d+)", str(f))
        failed |= {int(named.group(1))} & every if named else every
    return failed
