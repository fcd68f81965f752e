"""Byte identity of the CLI: every family of ``corpus.py`` still hashes to
its committed digests.  A change that alters output bytes on purpose runs
``python tests/corpus.py --write`` and lists each changed family."""

import pytest

import corpus
from k3invol import cli


@pytest.mark.parametrize("family", sorted(corpus.FAMILIES))
def test_family_bytes_match_the_committed_digests(family):
    want = corpus.load()[family]
    got = corpus.digests(family)
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            first = list(corpus.FAMILIES[family]())[i * corpus.CHUNK]
            pytest.fail(f"family {family}: chunk {i} differs; its first argv is {first}")
    assert len(got) == len(want), f"family {family}: {len(got)} chunks, {len(want)} committed"


def test_every_family_has_committed_digests():
    assert sorted(corpus.load()) == sorted(corpus.FAMILIES)


def test_every_subcommand_and_format_has_a_family():
    covered = set()
    for family in corpus.FAMILIES.values():
        for argv in family():
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
            covered.add((argv[0], fmt))
    wanted = {
        (name, fmt)
        for name, (_, _, options) in cli._COMMANDS.items()
        for fmt in options["--format"]["choices"]
    }
    assert wanted - covered == set()
