"""The registry of ``mutants.py`` still describes the code: each snippet
occurs exactly once in its file, and each named test is defined."""

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
    for node in mutant.tests:
        path, name = node.split("[")[0].split("::")
        assert name in _test_names(path), node


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
