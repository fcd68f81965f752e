"""Every function in src/k3invol is reached from the command line.

The argvs of ``corpus.py`` are replayed through ``cli.main`` in a fresh
interpreter under ``sys.setprofile``, which records the code object of
every Python call from the first import of the package on: the first
chunk of every family, then the four argvs the corpus leaves out because
argparse writes their output.  Each ``def`` in ``src/k3invol/*.py`` must
be among them, matched by file and first line, counting from the first
decorator as ``co_firstlineno`` does (``co_qualname`` is 3.11-only).  A
function that no CLI path runs is dead code or a test oracle, and test
oracles live in ``tests/``.

The oracles in ``tests/*_reference.py`` are held to the same rule from the
other side: each top-level ``def`` there must be named by a test module,
or by another such ``def`` that one names.  An oracle no test compares
against is deleted, not kept.
"""

import ast
import json
import os
import subprocess
import sys

import k3invol
from child import child_env

PACKAGE = os.path.dirname(os.path.realpath(k3invol.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))

ARGPARSE_ARGVS = [["--help"], [], ["bogus"], ["scan", "--min-n", "2", "--max-n", "3", "--bogus"]]

# the argvs are read in the child: the corpus overflows a command line
_REPLAY = """
import contextlib, io, itertools, json, sys

reached = set()


def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
sys.path.insert(0, sys.argv[1])
import corpus

argvs = [a for f in corpus.FAMILIES.values() for a in itertools.islice(f(), corpus.CHUNK)]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in argvs + json.loads(sys.argv[2]):
        try:
            corpus.cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted(reached)))
"""


def package_defs():
    """{(real path, first line): "module.Qual.name"} of every def in the package."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[path, line] = f"{prefix}.{child.name}"
                walk(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")
            else:
                walk(child, path, prefix)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path) as f:
                walk(ast.parse(f.read()), path, name[:-3])
    return out


def test_every_def_is_reached_from_the_cli():
    proc = subprocess.run(
        [sys.executable, "-c", _REPLAY, TESTS, json.dumps(ARGPARSE_ARGVS)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    reached = {(os.path.realpath(f), line) for f, line in json.loads(proc.stdout)}
    defs = package_defs()
    assert sorted(name for key, name in defs.items() if key not in reached) == []


def names_read(tree):
    """Every name and attribute name in the code under ``tree``."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_reference_def_is_used_by_a_test():
    read_by_tests, defs = set(), {}  # defs: name -> names its body reads
    for name in sorted(os.listdir(TESTS)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(TESTS, name)) as f:
            tree = ast.parse(f.read())
        if name.startswith("test_"):
            read_by_tests |= names_read(tree)
        elif name.endswith("_reference.py"):
            defs.update(
                (node.name, names_read(node))
                for node in tree.body
                if isinstance(node, ast.FunctionDef)
            )
    assert defs
    used, todo = set(), [d for d in defs if d in read_by_tests]
    while todo:
        d = todo.pop()
        if d not in used:
            used.add(d)
            todo += [e for e in defs if e in defs[d]]
    assert sorted(set(defs) - used) == []
