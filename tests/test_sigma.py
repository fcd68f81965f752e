import math

import pytest

from k3invol.mukai import MukaiContext, MukaiVector, mukai_pairing, standard_vectors
from k3invol.pell import MAX_PERIOD, isqrt, negative_pell_minimal
from k3invol.sigma import (
    BirStatus,
    BirVerdict,
    bir_finiteness,
    catalan_degree,
    cover_degree_bound,
    h0_sigma,
    ns_sigma,
    zero_locus_length,
)


def test_ns_sigma_examples():
    assert ns_sigma(4).kappa_square == -26
    assert ns_sigma(6).kappa_square == -14
    ns7 = ns_sigma(7)
    assert ns7.kappa_square == -200
    assert ns_sigma(4).kappa_vec == MukaiVector(13, -5, 26)
    assert ns_sigma(6).kappa_vec == MukaiVector(7, -3, 28)
    with pytest.raises(ValueError):
        ns_sigma(3)


def test_ns_sigma_invariants_sample():
    for n in range(4, 201):
        ns = ns_sigma(n)
        ctx = MukaiContext(n)
        _, _, w, u = standard_vectors(ctx)
        assert mukai_pairing(ctx, ns.kappa_vec, u) == 0
        assert mukai_pairing(ctx, ns.kappa_vec, w) == 0
        t = 4 * n - 3
        assert ns.gram_det == -4 * t * (n - 3) // (ns.g * ns.g)


def test_positive_cone_rational():
    # the rays sqrt(delta) * L +- kappa are rational exactly when delta is a
    # square, and that is exactly the finite verdict without a witness,
    # from which cmd_sigma reads them
    hits = []
    for n in range(4, 1501):
        verdict = bir_finiteness(n)
        rational = verdict.status is BirStatus.FINITE and verdict.witness is None
        assert rational == isqrt(verdict.pell_d)[1], n
        if rational:
            hits.append(n)
    assert hits == [7]


def test_bir_examples():
    v4 = bir_finiteness(4)
    assert v4.status is BirStatus.FINITE and v4.witness == (18, 5)
    v6 = bir_finiteness(6)
    assert v6.status is BirStatus.INFINITE
    assert v6.obstruction == 7 and 7 % 4 == 3
    v7 = bir_finiteness(7)
    assert v7.status is BirStatus.FINITE and v7.witness is None
    with pytest.raises(ValueError):
        bir_finiteness(3)


def test_bir_verdict_pinned_per_branch():
    # every field of one n per branch; n = 7 decides by rational rays and
    # never asks the Pell equation, so pell_solvable is None, not False
    assert bir_finiteness(4) == BirVerdict(
        status=BirStatus.FINITE,
        witness=(18, 5),
        pell_d=13,
        pell_solvable=True,
        w_divisibility=1,
    )
    assert bir_finiteness(5) == BirVerdict(
        status=BirStatus.UNKNOWN, pell_d=34, pell_solvable=False, w_divisibility=1
    )
    assert bir_finiteness(6) == BirVerdict(
        status=BirStatus.INFINITE,
        obstruction=7,
        pell_d=7,
        pell_solvable=False,
        w_divisibility=3,
    )
    assert bir_finiteness(7) == BirVerdict(
        status=BirStatus.FINITE, pell_d=100, pell_solvable=None, w_divisibility=1
    )


def test_bir_multiples_of_three_are_infinite():
    for np in range(2, 67):
        n = 3 * np
        verdict = bir_finiteness(n)
        assert verdict.status is BirStatus.INFINITE
        assert verdict.obstruction is not None
        assert verdict.obstruction % 4 == 3
        assert verdict.pell_d % verdict.obstruction == 0


def test_bir_never_finite_without_witness_or_seven():
    for n in range(4, 120):
        verdict = bir_finiteness(n)
        if verdict.status is BirStatus.FINITE and n != 7:
            x, y = verdict.witness
            assert x * x - verdict.pell_d * y * y == -1
        if verdict.status is BirStatus.UNKNOWN:
            assert verdict.pell_solvable is False
            assert verdict.w_divisibility in (1, 3)
            assert n % 3 != 0 and n != 7
        assert verdict.w_divisibility == math.gcd(3, n)


def test_h0_examples():
    assert h0_sigma(6, 1) == 15
    assert h0_sigma(4, 1) == 6
    assert h0_sigma(3, 1) == 3
    for n in range(3, 301):
        assert h0_sigma(n, 1) == n * (n - 1) // 2
    with pytest.raises(ValueError, match="n >= 3"):
        h0_sigma(2, 1)
    with pytest.raises(ValueError, match="k must be positive"):
        h0_sigma(5, 0)


def test_formula_helpers():
    assert catalan_degree(3) == 42
    assert catalan_degree(2) == 5  # degree of G(2,5) under Pluecker
    assert zero_locus_length(3) == 6
    deg, total, div = cover_degree_bound(3)
    assert (deg, total, div) == (2, 20, True)
    for n in range(2, 60):
        assert cover_degree_bound(n)[2] is True
    for helper in (catalan_degree, zero_locus_length, cover_degree_bound):
        with pytest.raises(ValueError, match="n >= 2"):
            helper(1)


def test_bir_finiteness_walks_a_period_past_the_pell_limit():
    # delta(11165) = 498461434 has a continued-fraction period of 13340
    # terms, more than pell.MAX_PERIOD; sigma passes no limit, so the walk
    # still decides the negative Pell equation (unsolvable: even period)
    verdict = bir_finiteness(11165)
    assert verdict.pell_d == 498461434
    assert verdict.status == BirStatus.UNKNOWN and verdict.witness is None
    with pytest.raises(ValueError, match=f"longer than {MAX_PERIOD} terms"):
        negative_pell_minimal(498461434, max_period=MAX_PERIOD)
