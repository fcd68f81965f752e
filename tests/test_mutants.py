"""The registry of ``mutants.py`` still describes the code: each snippet
occurs exactly once in its file, and each entry names at least one test,
each of them defined.  The runner refuses an entry that names none."""

import ast
import functools
import os

import pytest

import mutants

PACKAGE = os.path.join(mutants.ROOT, "src", "k3invol")


@functools.cache
def _test_names(path):
    with open(os.path.join(mutants.ROOT, path)) as f:
        return {d.name for d in ast.parse(f.read()).body if isinstance(d, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once_and_named_tests_exist(mutant):
    with open(os.path.join(PACKAGE, mutant.path)) as f:
        assert f.read().count(mutant.snippet) == 1
    assert mutant.tests, "an entry must name a test"
    for node in mutant.tests:
        path, name = node.split("[")[0].split("::")
        assert name in _test_names(path), node


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_an_entry_that_names_no_test_fails_before_any_copy(monkeypatch, capsys):
    def no_copy(dest):
        raise AssertionError("check copied a tree")

    monkeypatch.setattr(mutants, "_copy_tree", no_copy)
    empty = mutants.MUTANTS[0]._replace(tests=())
    assert mutants.check([empty, mutants.MUTANTS[1]]) is False
    assert capsys.readouterr().out == f"ERROR {empty.name}: names no test\n"
