"""The environment of a child interpreter that tests start: it imports
k3invol from the source tree the tests import it from."""

import os

import k3invol

SRC = os.path.dirname(os.path.dirname(os.path.abspath(k3invol.__file__)))


def child_env(**overrides):
    """os.environ updated by ``overrides``, with the source tree first on
    PYTHONPATH."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env
