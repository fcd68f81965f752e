"""The mutant registry: faults seeded into src/k3invol and the tests that
must catch them (mutation analysis, Jia and Harman, IEEE TSE 2011).

Each entry of ``MUTANTS`` names a file of the package, an exact snippet of
it and its replacement, the node ids of the tests that must fail once the
snippet is replaced, and the reason they fail.  ``test_mutants.py``
checks that each snippet occurs exactly once in its file, so a refactor
that moves the code updates the entry too.  pytest does not collect this
module.

    python tests/mutants.py [NAME ...]           # each mutant against its named tests
    python tests/mutants.py --matrix [NAME ...]  # each mutant against all of tier-1

The runner copies src/, tests/ and pyproject.toml to a temporary
directory, applies one mutant there and runs pytest on the copy with
``--hypothesis-seed=0``, so that every kill repeats.  Mutants run on one
worker thread per CPU, each in its own copy and child interpreter, and
are reported in registry order.  A test kills a mutant only when it
fails on an assertion: an ``AssertionError``, a ``pytest.fail`` or a
``pytest.raises`` that saw no exception, never by running past
conftest's per-test time limit.  A mutant that does not compile or
import is reported as broken, never as killed.
Without ``--matrix`` every named test must kill its mutant, and the
named tests must pass on the unmutated copy.  ``--matrix`` runs the whole
tier-1 for each mutant and prints, as JSON, the tests that kill it; a
test may be deleted only when every mutant it kills is also killed by a
remaining test named for the same reason (test-suite minimisation, Yoo
and Harman, STVR 2012).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/k3invol
    snippet: str
    replacement: str
    tests: tuple  # node ids that must fail
    reason: str


def _m(name, path, snippet, replacement, tests, reason):
    return Mutant(name, path, snippet, replacement, tuple(tests), reason)


_CORPUS = "tests/test_corpus.py::test_family_bytes_match_the_committed_digests"
_KERNEL_ORACLE = (
    "tests/test_kernel.py::test_lower_half_matches_oracle_on_generalized_t",
    "tests/test_acceptance.py::test_12_oracle_equivalence",
)

MUTANTS = [
    # ---------------------------------------------------------------- kernel
    _m("kernel-s-interval-starts-early", "kernel.py",
       "lo = max(m * (k - 1) + 1, x_lo - m * k)",
       "lo = max(m * (k - 1), x_lo - m * k)",
       [*_KERNEL_ORACLE, "tests/test_kernel.py::test_alpha_top_found_once"],
       "the interval lists the alpha = n-1 tuple of k-1 a second time"),
    _m("kernel-s-interval-ends-early", "kernel.py",
       "hi = min(m * (k + 1), (ty2 + 1) // k)",
       "hi = min(m * (k + 1) - 1, (ty2 + 1) // k)",
       [*_KERNEL_ORACLE, "tests/test_kernel.py::test_alpha_top_found_once"],
       "the alpha = n-1 tuple is lost at both ends of its interval"),
    _m("kernel-keeps-alpha-0", "kernel.py",
       "if alpha == 0 or rho == 0 and alpha < 3:",
       "if rho == 0 and alpha < 3:",
       _KERNEL_ORACLE,
       "s = (n-1)k, alpha = 0, is no case of the criterion"),
    _m("kernel-keeps-rho-0-alpha-below-3", "kernel.py",
       "if alpha == 0 or rho == 0 and alpha < 3:",
       "if alpha == 0:",
       _KERNEL_ORACLE,
       "rho = 0 needs alpha >= 3 in the case list"),
    _m("kernel-no-middle-cut", "kernel.py",
       "x_lo = max(t * y, math.isqrt((4 * d + 1) * y * y) // 2 + 1)",
       "x_lo = math.isqrt((4 * d + 1) * y * y) // 2 + 1",
       _KERNEL_ORACLE,
       "without X >= tY the lower half lists walls above the middle"),
    _m("kernel-mirror-sign", "kernel.py",
       "return (2 * t - 1) * x - 8 * t * (n - 1) * y, 2 * x - (2 * t - 1) * y",
       "return (2 * t - 1) * x - 8 * t * (n - 1) * y, 2 * x + (2 * t - 1) * y",
       ["tests/test_kernel.py::test_mirror_is_the_involution",
        "tests/test_acceptance.py::test_08_involution_action"],
       "the involution is minus the reflection in H_n - 2 delta"),
    # ---------------------------------------------------------------- hilbcone
    _m("hilbcone-cone-test-closed", "hilbcone.py",
       "if not Y * (2 * t - 1) < 2 * X:",
       "if not Y * (2 * t - 1) <= 2 * X:",
       ["tests/test_hilbcone.py::test_wall_record_validation",
        "tests/test_hilbcone.py::test_integer_slope_tests_match_fraction_oracle"],
       "a ray on the boundary of the movable cone is no interior wall"),
    _m("hilbcone-below-middle-closed", "hilbcone.py",
       "return (4 * self.n - 3) * self.Y < self.X",
       "return (4 * self.n - 3) * self.Y <= self.X",
       ["tests/test_hilbcone.py::test_integer_slope_tests_match_fraction_oracle",
        "tests/test_acceptance.py::test_01_chamber_scan_modes"],
       "the middle wall is not below itself, so C_n = 1"),
    _m("hilbcone-congruence-sign", "hilbcone.py",
       "elif xm == (-alpha) % m:",
       "elif True:",
       ["tests/test_hilbcone.py::test_wall_record_validation"],
       "X must be congruent to +-alpha modulo 2(n-1)"),
    _m("hilbcone-dedup-on-X-Y", "hilbcone.py",
       "key = rec.primitive_ray()",
       "key = rec.X, rec.Y",
       ["tests/test_hilbcone.py::test_many_walls_sorted_and_deduplicated_like_fraction_oracle"],
       "one record per primitive ray, not per solution"),
    _m("hilbcone-slope-sort-reversed", "hilbcone.py",
       "key=cmp_to_key(lambda r, s: r.Y * s.X - s.Y * r.X)",
       "key=cmp_to_key(lambda r, s: s.Y * r.X - r.Y * s.X)",
       ["tests/test_hilbcone.py::test_many_walls_sorted_and_deduplicated_like_fraction_oracle",
        "tests/test_hilbcone.py::test_appendix_modes_agree_on_injected_walls"],
       "walls are listed by increasing slope"),
    _m("hilbcone-appendix-runs-kernel", "hilbcone.py",
       "    if not full_congruence:\n        return [middle_wall(n)]\n",
       "",
       ["tests/test_hilbcone.py::test_each_wall_built_once",
        "tests/test_cli.py::test_scan_appendix_never_runs_the_kernel",
        "tests/test_hilbcone.py::test_appendix_modes_agree_on_injected_walls"],
       "the appendix mode has the middle wall alone and never runs the kernel"),
    # ---------------------------------------------------------------- mukai
    _m("mukai-pairing-sign", "mukai.py",
       "return 2 * ctx.t * v1.c * v2.c - v1.r * v2.s - v2.r * v1.s",
       "return 2 * ctx.t * v1.c * v2.c - v1.r * v2.s + v2.r * v1.s",
       ["tests/test_acceptance.py::test_07_gram_identities"],
       "the Mukai pairing is 2t c c' - r s' - r' s"),
    _m("mukai-r-max-late", "mukai.py",
       "return (math.isqrt(4 * ctx.n + 1) - 3) // 2",
       "return (math.isqrt(4 * ctx.n) - 3) // 2",
       ["tests/test_mukai.py::test_r_max", "tests/test_mukai.py::test_r_max_matches_the_loop"],
       "r_max steps up exactly at n = (i+1)(i+2)"),
    _m("mukai-decomposition-top", "mukai.py",
       "top = p * x0 + q * y0 - 1",
       "top = p * x0 + q * y0",
       ["tests/test_mukai.py::test_decompositions_match_oracle_on_generalized_targets",
        "tests/test_mukai.py::test_positive_decomposition_matches_oracle",
        "tests/test_acceptance.py::test_06_no_positive_decomposition"],
       "(w2, T) > 0 excludes w1 = T"),
    _m("mukai-decomposition-x-range", "mukai.py",
       "for x in range(max(-bound, min(0, x0)), min(bound, max(0, x0)) + 1):",
       "for x in range(max(-bound, 0), min(bound, x0) + 1):",
       ["tests/test_mukai.py::test_decompositions_match_oracle_on_generalized_targets"],
       "x runs between 0 and x0, also for x0 < 0"),
    _m("mukai-spherical-outside-box", "mukai.py",
       "if abs(y) > bound:",
       "if False:",
       ["tests/test_cli.py::test_lemmas_expected_window_uses_search_box"],
       "the search keeps only classes in the box |y| <= bound"),
    _m("mukai-window-without-v-i-plus-1", "mukai.py",
       "if n == (i + 2) * (i + 3):",
       "if False:",
       ["tests/test_acceptance.py::test_05_no_spherical_brute_force",
        "tests/test_mukai.py::test_spherical_window_theorem",
        f"{_CORPUS}[lemmas]"],
       "v^(i+1) = (1, -(i+2)) is spherical in the window when n = (i+2)(i+3)"),
    _m("mukai-strata-hom-rank", "mukai.py",
       "StrataRow(k, vk, moduli_dim, 2 * fiber, fiber, 2 * ctx.n - fiber, 2 * k + 3)",
       "StrataRow(k, vk, moduli_dim, 2 * fiber, fiber, 2 * ctx.n - fiber, 2 * k + 1)",
       ["tests/test_mukai.py::test_strata_invariants", f"{_CORPUS}[strata]"],
       "hom has rank 2k+3 on the open stratum"),
    # ---------------------------------------------------------------- pell
    _m("pell-fundamental-unsquared", "pell.py",
       "return PellSolution(p * p + D * q * q, 2 * p * q)",
       "return PellSolution(p, q)",
       ["tests/test_pell.py::test_fundamental_agrees_with_brute_force"],
       "an odd period closes with norm -1, whose square solves the +1 equation"),
    _m("pell-negative-odd-part-1-mod-4", "pell.py",
       "if odd % 4 == 3 or",
       "if odd % 4 == 1 or",
       ["tests/test_pell.py::test_negative_pell_examples"],
       "-1 is no square modulo an odd part == 3 (mod 4)"),
    _m("pell-mixed-divisor-1", "pell.py",
       "sol = minimal_solution(p * q, -p if p < q else q, min(p, q))",
       "sol = minimal_solution(p * q, -p if p < q else q, 1)",
       ["tests/test_pell.py::test_mixed_minimality_brute"],
       "the reduced equation needs min(p, q) | X"),
    _m("pell-one-period", "pell.py",
       "if closed == 2 or",
       "if closed == 1 or",
       ["tests/test_pell.py::test_mixed_pinned_pairs[2-1-expected0]",
        "tests/test_pell.py::test_minimal_solution_matches_a_y_sweep"],
       "the least solution of a class can close the second period"),
    _m("pell-period-limit-off-by-one", "pell.py",
       "if max_period is not None and k >= max_period:",
       "if max_period is not None and k > max_period:",
       ["tests/test_pell.py::test_fundamental_stops_past_the_period_limit",
        "tests/test_pell.py::test_negative_stops_past_the_period_limit"],
       "a period of MAX_PERIOD + 1 terms is past the limit"),
    _m("pell-period-limit-message", "pell.py",
       'f"the continued-fraction period of sqrt({D}) is longer than "',
       'f"the continued-fraction period of sqrt({D})  is longer than "',
       [f"{_CORPUS}[period-limit]",
        "tests/test_cli.py::test_pell_fundamental_fails_fast_on_a_long_period"],
       "the period-limit error keeps its bytes"),
    _m("pell-trial-limit-ignored", "pell.py",
       "if limit is not None and p > limit:",
       "if False:",
       ["tests/test_pell.py::test_negative_pell_past_the_trial_limit"],
       "with a limit, trial division stops at it"),
    # ---------------------------------------------------------------- lattice
    _m("lattice-alpha-u1-sign", "lattice.py",
       "(0, 0, 1, M, -2),  # u1",
       "(0, 0, 1, M, 2),  # u1",
       ["tests/test_lattice.py::test_build_alpha_matches_the_public_transvections",
        "tests/test_acceptance.py::test_09_eichler_verification"],
       "alpha(u1) = u1 + M v1 - 2l"),
    _m("lattice-isometry-skips-diagonal", "lattice.py",
       "        upper = [_pair(n, x, y) for i, x in enumerate(cols) for y in cols[i:]]\n"
       "        return upper == [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, -2 * (n - 1)]\n",
       "        upper = [_pair(n, x, y) for i, x in enumerate(cols) for y in cols[i + 1:]]\n"
       "        return upper == [1, 0, 0, 0, 0, 0, 0, 1, 0, 0]\n",
       ["tests/test_lattice.py::test_isometry_matches_dense_oracle_on_perturbed_alpha"],
       "an isometry keeps the square of each basis vector"),
    _m("lattice-discriminant-mod-n-1", "lattice.py",
       "d = 2 * (m.n - 1)",
       "d = m.n - 1",
       ["tests/test_lattice.py::test_discriminant_action",
        "tests/test_lattice.py::test_discriminant_action_matches_oracle[L5-n3-minus-id]"],
       "the discriminant group of L5 is Z/2(n-1)"),
    # ---------------------------------------------------------------- sigma
    _m("sigma-mod-3-branch", "sigma.py",
       "elif n % 3 == 0:",
       "elif n % 3 == 1:",
       ["tests/test_sigma.py::test_bir_verdict_pinned_per_branch",
        "tests/test_acceptance.py::test_10_sigma_invariants"],
       "3 | n is the infinite family"),
    _m("sigma-no-rational-rays", "sigma.py",
       "if isqrt(delta)[1]:",
       "if False:",
       [f"{_CORPUS}[sigma]", "tests/test_acceptance.py::test_10_sigma_invariants"],
       "a square delta has rational rays and no Pell equation"),
    _m("sigma-h0-check-off", "sigma.py",
       "if n >= 3 and h0_sigma(n, 1) != report.pluecker_linear_dim:",
       "if False:",
       ["tests/test_cli.py::test_sigma_verify_h0_check_runs_before_output"],
       "a wrong h0 stops sigma before it prints"),
    _m("sigma-catalan-divisor", "sigma.py",
       "return num // (2 * n)",
       "return num // (2 * n + 1)",
       ["tests/test_sigma.py::test_formula_helpers", f"{_CORPUS}[formulas]"],
       "the Catalan degree is binom(4n-2, 2n-1)/(2n)"),
    # ---------------------------------------------------------------- cli output
    _m("cli-walls-slope-label", "cli.py",
       'f"  slope={rec.Y}/{rec.X}',
       'f"  slopf={rec.Y}/{rec.X}',
       [f"{_CORPUS}[walls]"],
       "the walls text keeps its bytes"),
    _m("cli-sigma-json-key", "cli.py",
       '"kappa_square": ns.kappa_square,',
       '"kappa_squarf": ns.kappa_square,',
       [f"{_CORPUS}[sigma]"],
       "the sigma JSON keeps its keys"),
    _m("cli-strata-csv-header", "cli.py",
       'columns = ("n", "k", "moduli_dim",',
       'columns = ("m", "k", "moduli_dim",',
       [f"{_CORPUS}[strata]"],
       "the strata CSV keeps its header"),
    _m("cli-scan-extension-label", "cli.py",
       '"  [extension]"',
       '"  [extensio]"',
       [f"{_CORPUS}[scan]", "tests/test_cli.py::test_scan_appendix_never_runs_the_kernel"],
       "n past VERIFIED_SCAN_MAX is labelled [extension]"),
    _m("cli-scan-mode-default-appendix", "cli.py",
       "**_FORMAT, **_MODE}),",
       '**_FORMAT, "--mode": {"choices": ("appendix", "full"), "default": "appendix"}}),',
       [f"{_CORPUS}[defaults]", "tests/test_cli.py::test_reused_parser_leaks_nothing"],
       "scan's --mode defaults to full"),
    _m("cli-json-unsorted-keys", "cli.py",
       "for k, v in sorted(obj.items()):",
       "for k, v in obj.items():",
       ["tests/test_cli.py::test_json_matches_the_stdlib_indent_encoder"],
       "JSON keys are sorted"),
    _m("cli-json-bool-as-int", "cli.py",
       'bool: {False: "false", True: "true"}.__getitem__,',
       "bool: int.__repr__,",
       ["tests/test_cli.py::test_json_matches_the_stdlib_indent_encoder", f"{_CORPUS}[sigma]"],
       "JSON spells booleans true and false"),
    _m("cli-json-accepts-tuples", "cli.py",
       "if type(obj) is list:",
       "if type(obj) in (list, tuple):",
       ["tests/test_cli.py::test_json_rejects_what_it_does_not_encode[obj1]"],
       "only lists encode as JSON arrays"),
    _m("cli-json-non-ascii", "cli.py",
       "str: json.encoder.encode_basestring_ascii,",
       "str: json.encoder.encode_basestring,",
       ["tests/test_cli.py::test_json_matches_the_stdlib_indent_encoder"],
       "JSON escapes every non-ASCII character"),
    # ---------------------------------------------------------------- cli checks
    _m("cli-walls-verify-symmetry-off", "cli.py",
       "if len(walls) != 2 * c_n - 1:",
       "if False:",
       ["tests/test_hilbcone.py::test_walls_verify_reports_a_kernel_without_the_middle_wall"],
       "walls --verify exits 1 when the wall count is not symmetric"),
    _m("cli-walls-verify-mirror-off", "cli.py",
       "if (mx // g, my // g) not in rays:",
       "if False:",
       ["tests/test_hilbcone.py::test_walls_verify_reports_a_mirror_that_breaks_stability"],
       "walls --verify exits 1 when the mirror leaves the ray set"),
    _m("cli-strata-verify-off", "cli.py",
       "if r.dim_Jk != r.moduli_dim + r.fiber_dim:",
       "if False:",
       ["tests/test_cli.py::test_strata_verify_reports_wrong_row"],
       "strata --verify exits 1 on a wrong dim J_k"),
    _m("cli-scan-finding-exit-0", "cli.py",
       "return EXIT_FINDING if findings else EXIT_OK",
       "return EXIT_OK",
       ["tests/test_cli.py::test_scan_reports_disagreement_with_witness",
        "tests/test_hilbcone.py::test_scan_reports_full_only_witness"],
       "a scan finding exits 2"),
    _m("cli-lemmas-finding-exit-0", "cli.py",
       "return EXIT_FINDING if surprises else EXIT_OK",
       "return EXIT_OK",
       ["tests/test_cli.py::test_lemmas_surprise_exits_two"],
       "a lemmas finding exits 2"),
    _m("cli-eichler-discriminant-exit-0", "cli.py",
       "    if not disc:\n",
       "    if False:\n",
       ["tests/test_cli.py::test_eichler_verify_fails_on_discriminant"],
       "eichler exits 1 when alpha moves the discriminant group"),
    _m("cli-pell-verify-skips-minimality", "cli.py",
       "if X * X - D * Y * Y != rhs or pell.has_smaller_solution(D, rhs, Y, abs(rhs)):",
       "if X * X - D * Y * Y != rhs:",
       ["tests/test_cli.py::test_pell_verify_rejects_non_minimal_solution"],
       "pell --verify exits 1 on a solution that is not minimal"),
    _m("cli-scan-jobs-0-accepted", "cli.py",
       "if args.jobs < 1:",
       "if args.jobs < 0:",
       [f"{_CORPUS}[jobs-0]", f"{_CORPUS}[defaults]"],
       "scan --jobs 0 exits 1"),
    _m("cli-lemmas-bound-minus-1-accepted", "cli.py",
       "if bound < 0:",
       "if bound < -1:",
       [f"{_CORPUS}[bad-bound]", f"{_CORPUS}[defaults]"],
       "lemmas --bound -1 exits 1 with the --bound message"),
    _m("cli-pell-mixed-bound-0-accepted", "cli.py",
       "if args.bound is not None and args.bound < 1:",
       "if args.bound is not None and args.bound < 0:",
       [f"{_CORPUS}[bad-bound]"],
       "pell --kind mixed --bound 0 exits 1"),
    _m("cli-pell-bound-of-mixed-accepted", "cli.py",
       "given = (args.p, args.q, args.bound) != (None, None, None)",
       "given = (args.p, args.q) != (None, None)",
       [f"{_CORPUS}[pell-misplaced]",
        "tests/test_cli.py::test_pell_rejects_an_option_of_another_kind"
        "[kind_fundamental_d_2_bound_100000]"],
       "--bound is an option of --kind mixed alone"),
    _m("cli-pell-d-of-mixed-accepted", "cli.py",
       'misplaced = "--d does not apply to --kind mixed" if args.d is not None else ""',
       'misplaced = ""',
       [f"{_CORPUS}[pell-misplaced]",
        "tests/test_cli.py::test_pell_rejects_an_option_of_another_kind"
        "[kind_mixed_p_2_q_9_d_5_verify]"],
       "--d is no option of --kind mixed"),
    # ---------------------------------------------------------------- cli parsing
    _m("parse-no-dash-check", "cli.py",
       'if value.startswith("-"):',
       "if False:",
       ["tests/test_cli.py::test_table_parse_matches_argparse"],
       "a value that starts with - is an option to argparse"),
    _m("parse-first-repeat-wins", "cli.py",
       "given[flag] = value  # a repeat overrides, as in argparse",
       "given.setdefault(flag, value)",
       ["tests/test_cli.py::test_dispatch_matches_the_full_parser"],
       "a repeated option overrides, as in argparse"),
    _m("parse-no-required-check", "cli.py",
       'if kw.get("required"):',
       "if False:",
       ["tests/test_cli.py::test_table_parse_matches_argparse"],
       "a missing required option is argparse's usage error"),
    _m("parse-no-choices-check", "cli.py",
       'if "choices" in kw and value not in kw["choices"]:',
       "if False:",
       ["tests/test_cli.py::test_dispatch_matches_the_full_parser"],
       "a value outside the choices is argparse's usage error"),
    _m("parse-no-type-conversion", "cli.py",
       'value = kw.get("type", str)(value)',
       "value = str(value)",
       ["tests/test_cli.py::test_table_parse_matches_argparse"],
       "option values are converted as argparse converts them"),
    _m("parse-parser-rebuilt", "cli.py",
       "@cache\ndef build_parser():",
       "def build_parser():",
       ["tests/test_cli.py::test_parser_built_once"],
       "argparse's parser is built once"),
    _m("parse-argparse-at-import", "cli.py",
       "import io\nimport json\n",
       "import argparse\nimport io\nimport json\n",
       ["tests/test_cli.py::test_cli_loads_only_the_subcommands_modules"],
       "plain argvs never import argparse"),
    _m("parse-namespace-reused", "cli.py",
       "def _parse(argv):\n"
       "    argv = sys.argv[1:] if argv is None else list(argv)\n"
       "    return _table_parse(argv) or build_parser().parse_args(argv)\n",
       "def _parse(argv):\n"
       "    argv = sys.argv[1:] if argv is None else list(argv)\n"
       "    args = _table_parse(argv)\n"
       "    if args is None:\n"
       "        args = build_parser().parse_args(argv)\n"
       "        sub = build_parser()._subparsers._group_actions[0].choices[args.command]\n"
       "        sub.set_defaults(**{k: v for k, v in vars(args).items() if k != 'func'})\n"
       "    return args\n",
       ["tests/test_cli.py::test_reused_parser_leaks_nothing"],
       "no value of one argparse call reaches the next"),
    _m("cli-int-digit-limit-kept", "cli.py",
       "    if limit:\n        sys.set_int_max_str_digits(0)\n",
       "",
       ["tests/test_cli.py::test_answers_past_4300_digits_print[text]",
        "tests/test_cli.py::test_answers_past_4300_digits_print[json]"],
       "answers past 4300 digits print"),
    _m("cli-int-digit-limit-not-restored", "cli.py",
       "    finally:\n        if limit:\n            sys.set_int_max_str_digits(limit)\n",
       "    finally:\n        pass\n",
       ["tests/test_cli.py::test_main_restores_the_int_digit_limit"],
       "the int-digit limit is restored when a subcommand returns"),
    _m("cli-int-digit-limit-lifted-before-parsing", "cli.py",
       "    args = _parse(argv)\n",
       "    sys.set_int_max_str_digits(0)\n    args = _parse(argv)\n",
       ["tests/test_cli.py::test_main_restores_the_int_digit_limit",
        "tests/test_cli.py::test_dispatch_matches_the_full_parser"],
       "an argument past 4300 digits stays a usage error"),
]


# ---------------------------------------------------------------- the runner


def _is_kill(exc):
    """Whether ``exc`` is a failed assertion, or a group of them."""
    group = getattr(exc, "exceptions", None)
    if group is not None:
        return all(_is_kill(e) for e in group)
    return isinstance(exc, (AssertionError, pytest.fail.Exception))


class _Outcomes:
    """A pytest plugin: {node id: "kill", "pass", "skipped" or the type
    name of what else ended the test}.  A test that runs past conftest's
    time limit ends in ``TestTimeout``, which is never a kill."""

    def __init__(self):
        self.seen = {}

    @pytest.hookimpl(wrapper=True)
    def pytest_runtest_makereport(self, item, call):
        report = yield
        if report.failed:
            exc = call.excinfo.value
            kill = call.when == "call" and _is_kill(exc)
            self.seen[item.nodeid] = "kill" if kill else type(exc).__name__
        elif report.when == "call":
            self.seen.setdefault(item.nodeid, "skipped" if report.skipped else "pass")
        return report


def _pytest_child(out, args):
    """Run pytest in this process with ``args`` and write its outcomes to ``out``."""
    plugin = _Outcomes()
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *args],
                       plugins=[plugin])
    with open(out, "w") as f:
        json.dump(plugin.seen, f)
    return code


def _copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def _apply(dest, mutant):
    """Apply ``mutant`` to the copy at ``dest``; None, or why it is broken."""
    path = os.path.join(dest, "src", "k3invol", mutant.path)
    with open(path) as f:
        text = f.read()
    if text.count(mutant.snippet) != 1:
        return "snippet does not occur exactly once"
    text = text.replace(mutant.snippet, mutant.replacement)
    with open(path, "w") as f:
        f.write(text)
    try:
        compile(text, path, "exec")
    except SyntaxError as exc:
        return f"does not compile: {exc}"
    module = "k3invol." + mutant.path[:-3]
    proc = subprocess.run([sys.executable, "-c", f"import {module}"], env=_env(dest),
                          capture_output=True, text=True)
    if proc.returncode:
        return f"does not import: {proc.stderr.strip().splitlines()[-1]}"
    return None


def _env(dest):
    src = os.path.join(dest, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _run_tests(dest, args):
    """{node id: outcome} of pytest ``args`` run on the copy at ``dest``."""
    out = os.path.join(dest, "outcomes.json")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import mutants; del sys.path[0]; "
        "sys.exit(mutants._pytest_child(sys.argv[2], sys.argv[3:]))"
    )
    subprocess.run([sys.executable, "-c", code, TESTS, out, *args], cwd=dest, env=_env(dest),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with open(out) as f:
        return json.load(f)


def _outcomes(mutant, args):
    """(why the mutant is broken or None, {node id: outcome}) on a fresh copy."""
    with tempfile.TemporaryDirectory() as dest:
        _copy_tree(dest)
        broken = _apply(dest, mutant) if mutant else None
        return broken, ({} if broken else _run_tests(dest, args))


def _each(mutants, args):
    """(mutant, broken, outcomes) for each mutant, in registry order, run
    on one worker thread per CPU: each mutant has its own copy and child
    interpreter.  ``args(m)`` gives the pytest arguments of mutant ``m``."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ThreadPoolExecutor(cpus) as pool:
        for m, (broken, seen) in zip(mutants, pool.map(lambda m: _outcomes(m, args(m)), mutants)):
            yield m, broken, seen


def check(mutants):
    """Each mutant against its named tests; True when every one is killed
    and the named tests pass on the unmutated tree."""
    named = sorted({t for m in mutants for t in m.tests})
    _, clean = _outcomes(None, named)
    ok = True
    failing = [t for t in named if clean.get(t) != "pass"]
    if failing:
        ok = False
        print(f"CLEAN TREE: not passing: {failing}")
    for m, broken, seen in _each(mutants, lambda m: m.tests):
        missed = {t: seen.get(t, "not run") for t in m.tests if seen.get(t) != "kill"}
        if broken or missed:
            ok = False
        print(f"{'BROKEN' if broken else 'SURVIVED' if missed else 'KILLED'} {m.name}: "
              f"{broken or missed or m.reason}", flush=True)
    return ok


def matrix(mutants):
    """{mutant name: {"kills": [...], "other": {node id: outcome}}} over the
    whole tier-1, with the unmutated tree under the name "clean"."""
    result = {}
    for m, broken, seen in _each([None, *mutants], lambda m: ["--continue-on-collection-errors"]):
        name = m.name if m else "clean"
        result[name] = {
            "broken": broken,
            "kills": sorted(t for t, v in seen.items() if v == "kill"),
            "other": {t: v for t, v in sorted(seen.items()) if v not in ("kill", "pass")},
            "passed": sum(v == "pass" for v in seen.values()),
        }
        print(f"{name}: {len(result[name]['kills'])} kills", file=sys.stderr, flush=True)
    return result


if __name__ == "__main__":
    args = sys.argv[1:]
    as_matrix = args[:1] == ["--matrix"]
    names = args[1:] if as_matrix else args
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if as_matrix:
        json.dump(matrix(chosen), sys.stdout, indent=1)
        print()
    else:
        sys.exit(0 if check(chosen) else 1)
