import random

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


def _spherical_oracle(n, i, bound):
    """Literal double loop over the grid, kept as the independent check."""
    ctx = MukaiContext(n)
    vi = v_i(ctx, i)
    vi_sq = mukai_pairing(ctx, vi, vi)
    v, a, _, _ = standard_vectors(ctx)
    out = []
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            s = x * v + y * a
            if mukai_pairing(ctx, s, s) != -2:
                continue
            p = mukai_pairing(ctx, s, vi)
            if 0 < 2 * p <= vi_sq:
                out.append((x, y))
    return sorted(out)


def test_spherical_examples():
    assert spherical_search(MukaiContext(7), 0, 50) == [(0, 1)]
    assert spherical_search(MukaiContext(6), 0, 50) == [(0, 1), (1, -2)]
    assert spherical_search(MukaiContext(12), 1, 50) == [(0, 1), (1, -3)]


def test_spherical_matches_double_loop_oracle():
    for n, i in ((3, -1), (6, 0), (7, 0), (12, 1), (20, 2), (30, -1)):
        assert spherical_search(MukaiContext(n), i, 18) == _spherical_oracle(n, i, 18)


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
