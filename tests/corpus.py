"""The CLI corpus: families of argvs whose output bytes are pinned by digest.

Each family is a generator of argvs.  Besides one family per subcommand
and the exit-1 families, ``defaults`` runs each subcommand with only its
required options, so that every default is pinned, and ``period-limit``
runs each Pell kind past ``pell.MAX_PERIOD``.  ``digests(name)`` runs a
family's argvs in-process through ``cli.main`` and returns, for each
chunk of 100 argvs, the SHA-256 of ``repr((argv, exit code, stdout,
stderr))`` of every argv in the chunk, in order.  ``corpus_digests.json``
holds the digests of the committed CLI, and ``test_corpus.py`` compares
against it.

    python tests/corpus.py --write     # rewrite corpus_digests.json

Argparse's own output (``-h`` and usage errors) is left out: its bytes
differ between Python versions, and ``test_cli.py`` pins it.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import sys

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus_digests.json")
if __name__ == "__main__":  # run as a script: import k3invol from this source tree
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(DIGESTS)), "src"))

from k3invol import cli  # noqa: E402

CHUNK = 100
FORMATS = ("text", "json", "csv")
N_COMMANDS = {  # subcommand that takes --n: its formats and whether it takes --verify
    name: (options["--format"]["choices"], "--verify" in options)
    for name, (_, _, options) in cli._COMMANDS.items()
    if "--n" in options
}


def _n_family(cmd, ns, modes=(None,)):
    formats, verify = N_COMMANDS[cmd]
    flags = ([], ["--verify"]) if verify else ([],)
    for n, fmt, mode, flag in itertools.product(ns, formats, modes, flags):
        mode_flag = ["--mode", mode] if mode else []
        yield [cmd, "--n", str(n), "--format", fmt, *mode_flag, *flag]


def walls():
    yield from _n_family("walls", range(2, 301), modes=("full", "appendix"))
    yield ["walls", "--n", "1000000", "--verify"]


def sigma():
    yield from _n_family("sigma", range(4, 601))
    yield ["sigma", "--n", "11165"]


def strata():
    yield from _n_family("strata", range(2, 301))


def lemmas():
    yield from _n_family("lemmas", range(2, 601))


def eichler():
    yield from _n_family("eichler", range(2, 301))
    yield ["eichler", "--n", str(10**30), "--verify"]


def formulas():
    yield from _n_family("formulas", range(2, 301))


def pell_mixed():
    pairs = itertools.product(range(1, 41), repeat=2)
    for i, (p, q) in enumerate(pairs):
        yield ["pell", "--kind", "mixed", "--p", str(p), "--q", str(q), "--verify",
               "--format", FORMATS[i % 3]]


def pell_d():
    nonsquare = [d for d in range(2, 600) if math.isqrt(d) ** 2 != d]
    pairs = itertools.product(("fundamental", "negative"), nonsquare)
    for i, (kind, d) in enumerate(pairs):
        yield ["pell", "--kind", kind, "--d", str(d), "--verify", "--format", FORMATS[i % 3]]
    yield ["pell", "--kind", "negative", "--d", "100460273", "--verify"]


def scan():
    for mode, fmt in itertools.product(("full", "appendix"), FORMATS):
        yield ["scan", "--min-n", "2", "--max-n", "2000", "--mode", mode, "--format", fmt]


def bad_n():
    """Exit 1: an n, n range or Pell operand below what the subcommand takes."""
    for cmd, (formats, _) in N_COMMANDS.items():
        for n, fmt in itertools.product(range(-2, 4 if cmd == "sigma" else 2), formats):
            yield [cmd, "--n", str(n), "--format", fmt]
    for (lo, hi), fmt in itertools.product(((1, 3), (0, 3), (5, 3), (-4, -2)), FORMATS):
        yield ["scan", "--min-n", str(lo), "--max-n", str(hi), "--format", fmt]
    kinds = ("fundamental", "negative")
    for d, kind, fmt in itertools.product((-3, 0, 1, 4, 49), kinds, FORMATS):
        yield ["pell", "--kind", kind, "--d", str(d), "--format", fmt]
    for (p, q), fmt in itertools.product(((0, 3), (2, 0), (-1, 5), (-2, -3)), FORMATS):
        yield ["pell", "--kind", "mixed", "--p", str(p), "--q", str(q), "--format", fmt]


def bad_bound():
    """Exit 1: lemmas --bound below 0, pell --kind mixed --bound below 1."""
    for n, bound, fmt in itertools.product((2, 7, 30), (-1, -50), ("text", "json")):
        yield ["lemmas", "--n", str(n), "--bound", str(bound), "--format", fmt]
    for bound, fmt in itertools.product((0, -1, -7), FORMATS):
        yield ["pell", "--kind", "mixed", "--p", "2", "--q", "3", "--bound", str(bound),
               "--format", fmt]


def jobs_0():
    """Exit 1: scan --jobs below 1."""
    for jobs, mode, fmt in itertools.product((0, -1), ("full", "appendix"), FORMATS):
        yield ["scan", "--min-n", "2", "--max-n", "5", "--jobs", str(jobs), "--mode", mode,
               "--format", fmt]


def pell_misplaced():
    """Exit 1: a missing operand, or an option of another --kind."""
    argvs = [
        ["--kind", "mixed"],
        ["--kind", "mixed", "--p", "2"],
        ["--kind", "mixed", "--q", "3"],
        ["--kind", "fundamental"],
        ["--kind", "negative", "--p", "2", "--q", "3"],
        ["--kind", "mixed", "--p", "2", "--q", "3", "--d", "5"],
        ["--kind", "mixed", "--p", "2", "--q", "5", "--d", "5"],
        ["--kind", "mixed", "--p", "0", "--q", "3", "--d", "5"],
        ["--kind", "mixed", "--p", "2", "--q", "3", "--bound", "0", "--d", "5"],
        ["--kind", "mixed", "--p", "2", "--q", "3", "--bound", "9", "--d", "5"],
        ["--kind", "negative", "--d", "13", "--p", "3"],
        ["--kind", "negative", "--d", "3", "--q", "3"],
        ["--kind", "fundamental", "--d", "13", "--bound", "5"],
        ["--kind", "fundamental", "--d", "4", "--bound", "5"],
        ["--kind", "negative", "--d", "-1", "--p", "1"],
    ]
    for argv, fmt, verify in itertools.product(argvs, FORMATS, ((), ("--verify",))):
        yield ["pell", *argv, "--format", fmt, *verify]


def defaults():
    """Each subcommand with only its required options, without --format and
    with each format it takes, so that the default --format, --mode,
    --bound, --jobs and --verify are pinned; then a few argvs that set one
    of them: an appendix scan, an empty n range in each mode, --jobs 0 and
    a negative lemmas --bound."""
    required = [
        *(["scan", "--min-n", lo, "--max-n", hi]
          for lo, hi in (("2", "4"), ("2", "6"), ("199", "202"), ("200", "201"), ("5", "4"))),
        *([cmd, "--n", "6"] for cmd in N_COMMANDS),
        *(["pell", "--kind", kind] for kind in ("fundamental", "negative", "mixed")),
        ["pell", "--kind", "negative", "--d", "3"],  # pell's operands are required by kind
        ["pell", "--kind", "mixed", "--p", "2", "--q", "3"],
    ]
    for argv in required:
        yield argv
        for fmt in cli._COMMANDS[argv[0]][2]["--format"]["choices"]:
            yield [*argv, "--format", fmt]
    yield ["scan", "--min-n", "4", "--max-n", "20", "--mode", "appendix"]
    for mode in ("full", "appendix"):
        yield ["scan", "--min-n", "5", "--max-n", "4", "--mode", mode]
    yield ["scan", "--min-n", "2", "--max-n", "3", "--jobs", "0"]
    yield ["lemmas", "--n", "6", "--bound", "-1"]


def period_limit():
    """Exit 1: a continued-fraction period longer than ``pell.MAX_PERIOD``."""
    argvs = [
        ["--kind", "fundamental", "--d", str(10**25 + 3)],
        ["--kind", "negative", "--d", str(10**25 + 13)],
        ["--kind", "mixed", "--p", "1", "--q", str(10**25 + 13)],
    ]
    for argv, fmt in itertools.product(argvs, FORMATS):
        yield ["pell", *argv, "--format", fmt]


FAMILIES = {
    f.__name__.replace("_", "-"): f
    for f in (walls, sigma, strata, lemmas, eichler, formulas, pell_mixed, pell_d, scan,
              bad_n, bad_bound, jobs_0, pell_misplaced, defaults, period_limit)
}


def run(argv):
    """``(argv, exit code, stdout, stderr)`` of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return argv, code, out.getvalue(), err.getvalue()


def digests(name):
    """One SHA-256 hex digest per chunk of ``CHUNK`` argvs of a family."""
    argvs = iter(FAMILIES[name]())
    result = []
    while chunk := list(itertools.islice(argvs, CHUNK)):
        h = hashlib.sha256()
        for argv in chunk:
            h.update(repr(run(argv)).encode())
        result.append(h.hexdigest())
    return result


def load():
    with open(DIGESTS) as f:
        return json.load(f)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/corpus.py --write")
    with open(DIGESTS, "w") as f:
        json.dump({name: digests(name) for name in FAMILIES}, f, indent=1, sort_keys=True)
        f.write("\n")
