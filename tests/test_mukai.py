import functools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3invol import mukai
from k3invol.mukai import (
    MukaiContext,
    MukaiVector,
    mukai_pairing,
    positive_decomposition_search,
    r_max,
    spherical_search,
    standard_vectors,
    strata_table,
    v_i,
)


def test_pairing_examples():
    ctx = MukaiContext(3)
    v = MukaiVector(1, 0, -2)
    assert mukai_pairing(ctx, v, v) == 4  # = 2n - 2
    for n in (2, 5, 13, 101):
        ctx = MukaiContext(n)
        a = MukaiVector(-2, 1, -(2 * n - 1))
        v = MukaiVector(1, 0, -(n - 1))
        assert mukai_pairing(ctx, a, a) == -2
        assert mukai_pairing(ctx, v, a) == 1


def test_pairing_symmetric_bilinear():
    rng = random.Random(5)
    for _ in range(200):
        ctx = MukaiContext(rng.randint(2, 60))
        vs = [
            MukaiVector(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            for _ in range(3)
        ]
        x, y, z = vs
        k = rng.randint(-5, 5)
        assert mukai_pairing(ctx, x, y) == mukai_pairing(ctx, y, x)
        assert mukai_pairing(ctx, x + y, z) == mukai_pairing(ctx, x, z) + mukai_pairing(
            ctx, y, z
        )
        assert mukai_pairing(ctx, k * x, z) == k * mukai_pairing(ctx, x, z)


def test_gram_identities_full_range():
    for n in range(2, 501):
        ctx = MukaiContext(n)
        v, a, w, u = standard_vectors(ctx)
        assert mukai_pairing(ctx, v, v) == 2 * n - 2
        assert mukai_pairing(ctx, a, a) == -2
        assert mukai_pairing(ctx, v, a) == 1
        assert mukai_pairing(ctx, w, w) == 2 * n - 6
        assert mukai_pairing(ctx, a, w) == 3
        assert mukai_pairing(ctx, u, u) == 2
        assert mukai_pairing(ctx, u, w) == 0
        assert w == v - a


def test_v_i_values_and_squares():
    for n in (2, 6, 50):
        ctx = MukaiContext(n)
        v, _, w, _ = standard_vectors(ctx)
        assert v_i(ctx, -1) == v
        assert v_i(ctx, 0) == w
    ctx = MukaiContext(6)
    v1 = v_i(ctx, 1)
    assert v1 == MukaiVector(5, -2, 17)
    assert mukai_pairing(ctx, v1, v1) == -2
    for n in range(2, 501):
        ctx = MukaiContext(n)
        for i in range(-1, r_max(ctx) + 3):
            vi = v_i(ctx, i)
            assert vi == MukaiVector(
                2 * i + 3, -(i + 1), (2 * i + 1) * n - i
            )
            assert mukai_pairing(ctx, vi, vi) + 2 == 2 * n - 2 * (i + 1) * (i + 2)


def test_r_max():
    assert r_max(MukaiContext(5)) == 0
    assert r_max(MukaiContext(6)) == 1
    assert r_max(MukaiContext(12)) == 2
    for n in range(2, 300):
        r = r_max(MukaiContext(n))
        assert (r + 1) * (r + 2) <= n < (r + 2) * (r + 3)


@functools.cache
def _spherical_classes(n, bound):
    """Literal double loop over the grid: every spherical s = x*v + y*a
    with |x|, |y| <= bound, kept as the independent check."""
    ctx = MukaiContext(n)
    v, a, _, _ = standard_vectors(ctx)
    out = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            s = x * v + y * a
            if mukai_pairing(ctx, s, s) == -2:
                out.append((x, y))
    return out


def _spherical_oracle(n, i, bound):
    """The spherical classes of the box in the window of v^(i)."""
    ctx = MukaiContext(n)
    vi = v_i(ctx, i)
    vi_sq = mukai_pairing(ctx, vi, vi)
    v, a, _, _ = standard_vectors(ctx)
    return sorted(
        (x, y)
        for x, y in _spherical_classes(n, bound)
        if 0 < 2 * mukai_pairing(ctx, x * v + y * a, vi) <= vi_sq
    )


def _window_indices(n):
    """The i >= -1 with (v^(i))^2 > 0, the ones the spherical search accepts."""
    ctx = MukaiContext(n)
    return [
        i
        for i in range(-1, r_max(ctx) + 1)
        if mukai_pairing(ctx, v_i(ctx, i), v_i(ctx, i)) > 0
    ]


def test_spherical_examples():
    assert spherical_search(MukaiContext(7), 0, 50) == [(0, 1)]
    assert spherical_search(MukaiContext(6), 0, 50) == [(0, 1), (1, -2)]
    assert spherical_search(MukaiContext(12), 1, 50) == [(0, 1), (1, -3)]


def test_spherical_matches_double_loop_oracle():
    # n = m(m+1) puts v^(m-1) = (1, -(m+1)) in the window of i = m-2, at
    # |x| = x_max = 1, so a search one short of x_max fails here
    for n in range(3, 61):
        for i in _window_indices(n):
            assert spherical_search(MukaiContext(n), i, 18) == _spherical_oracle(n, i, 18)


def test_spherical_window_lies_within_x_max():
    # the bound of the spherical_search docstring, against a box much wider
    # than x_max; some window class sits on it, so it cannot be lowered
    on_the_bound = 0
    for n in range(3, 41):
        t = 4 * n - 3
        for i in _window_indices(n):
            vi_sq = 2 * (n - i * i - 3 * i - 3)
            m_max = math.isqrt((vi_sq * vi_sq + 8 * vi_sq) // (4 * t))
            x_max = (vi_sq // 2 + (2 * i + 3) * m_max) // vi_sq
            window = _spherical_oracle(n, i, 60)
            assert all(abs(x) <= x_max for x, _ in window), (n, i)
            on_the_bound += any(abs(x) == x_max for x, _ in window)
    assert on_the_bound > 0


def test_spherical_cost_is_independent_of_bound():
    # a loop over all 2*bound + 1 values of x would not finish
    _run_within_timeout(
        "sys.exit(mukai.spherical_search(mukai.MukaiContext(10**6), 0, 10**12) != [(0, 1)])"
    )


def test_spherical_rejects_vacuous_window():
    ctx = MukaiContext(6)
    # i = r_max = 1 has (v^(1))^2 = -2 < 0
    with pytest.raises(ValueError):
        spherical_search(ctx, 1, 10)
    with pytest.raises(ValueError):
        spherical_search(ctx, 0, -1)  # empty box


def _positive_oracle(n, target, bound):
    """Literal double loop: the (x, y) splitting T = x0*v + y0*a into
    w1 = x*v + y*a and w2 = T - w1, both nonzero, of nonnegative square and
    positive pairing with T."""
    ctx = MukaiContext(n)
    v, a, _, _ = standard_vectors(ctx)
    big_t = target[0] * v + target[1] * a
    out = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            w1 = x * v + y * a
            w2 = big_t - w1
            if w1.is_zero() or w2.is_zero():
                continue
            if (
                mukai_pairing(ctx, w1, w1) >= 0
                and mukai_pairing(ctx, w2, w2) >= 0
                and mukai_pairing(ctx, w1, big_t) > 0
                and mukai_pairing(ctx, w2, big_t) > 0
            ):
                out.append((x, y))
    return out


def test_positive_decomposition_examples():
    assert positive_decomposition_search(MukaiContext(5), 0, 20) == []
    assert positive_decomposition_search(MukaiContext(12), 2, 48) == []
    assert positive_decomposition_search(MukaiContext(3), 0, 12) == []


def test_positive_decomposition_matches_oracle():
    for n, i in ((3, 0), (5, 0), (6, 1), (12, 2), (13, 1)):
        ctx = MukaiContext(n)
        v, a, _, _ = standard_vectors(ctx)
        vi = v_i(ctx, i)
        expected = [
            (x * v + y * a, vi - (x * v + y * a))
            for x, y in _positive_oracle(n, (1, -(i + 1)), 10)
        ]
        assert positive_decomposition_search(ctx, i, 10) == expected


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decompositions_match_oracle_on_generalized_targets(data):
    # v^(i) has no decomposition, so real inputs cannot tell a wrong
    # interval from a right one; most other targets have decompositions
    n = data.draw(st.integers(2, 12), label="n")
    y0 = data.draw(st.integers(-6, 6), label="y0")
    x0 = data.draw(st.integers(2 * y0 + 1, 2 * y0 + 12), label="x0")
    bound = data.draw(st.integers(0, 15), label="bound")
    assert mukai._decompositions(n, x0, y0, bound) == _positive_oracle(
        n, (x0, y0), bound
    )


def test_generalized_targets_have_decompositions():
    # the property test above is not vacuous: most targets split
    with_parts = sum(
        1
        for n in range(3, 13)
        for x0 in range(-5, 6)
        for y0 in range(-5, 6)
        if x0 - 2 * y0 > 0 and mukai._decompositions(n, x0, y0, 15)
    )
    assert with_parts > 300


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_decompositions_lie_between_zero_and_x0(data):
    # the region the search restricts x to, checked on the literal double loop
    n = data.draw(st.integers(2, 12), label="n")
    x0 = data.draw(st.integers(-6, 6), label="x0")
    y0 = data.draw(st.integers(x0 // 2 - 6, (x0 - 1) // 2), label="y0")  # q > 0
    assert all(
        min(0, x0) <= x <= max(0, x0) for x, _ in _positive_oracle(n, (x0, y0), 15)
    )


def _run_within_timeout(statement):
    """Run ``statement`` in a child with ``sys`` and ``k3invol.mukai`` imported;
    it must exit 0 within 20 s."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(mukai.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys; from k3invol import mukai; " + statement
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == 0, proc.stderr


def test_positive_decomposition_cost_is_independent_of_bound():
    # a loop over all 2*bound + 1 values of x would not finish
    _run_within_timeout(
        "sys.exit(mukai.positive_decomposition_search(mukai.MukaiContext(10**6), 0, 10**12) != [])"
    )


def test_positive_decomposition_validation():
    with pytest.raises(ValueError):
        positive_decomposition_search(MukaiContext(5), 1, 10)  # n < (i+1)(i+2)
    with pytest.raises(ValueError):
        positive_decomposition_search(MukaiContext(5), -1, 10)
    with pytest.raises(ValueError):
        positive_decomposition_search(MukaiContext(6), 0, -1)  # empty box


def test_strata_examples():
    rows = strata_table(MukaiContext(6))
    assert [(r.k, r.codim_in_N, r.fiber_dim, r.dim_Jk) for r in rows] == [
        (0, 4, 2, 10),
        (1, 12, 6, 6),
    ]
    rows = strata_table(MukaiContext(3))
    assert len(rows) == 1
    assert (rows[0].codim_in_N, rows[0].fiber_dim, rows[0].dim_Jk) == (4, 2, 4)
    rows = strata_table(MukaiContext(12))
    assert rows[2].moduli_dim == 0  # deepest stratum is a point


def test_strata_invariants():
    for n in range(2, 200):
        for row in strata_table(MukaiContext(n)):
            assert row.moduli_dim == 2 * n - 2 * (row.k + 1) * (row.k + 2)
            assert row.dim_Jk == row.moduli_dim + row.fiber_dim
            assert row.hom_rank == 2 * row.k + 3
            assert row.vector == v_i(MukaiContext(n), row.k)
