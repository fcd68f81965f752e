import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3invol import lattice
from k3invol.lattice import LatticeMap, acts_trivially_on_discriminant, build_alpha
from lattice_reference import (
    E8_MINUS,
    L5_IN_XI,
    U,
    dense_gram,
    identity,
    l5_gram,
    l5_map,
    l5_matrix,
    l5_summands,
    l5_vector,
    pair,
    padded_matrix,
    transvection,
    xi_gram,
    xi_vector,
)


def fraction_inverse(g):
    """Slow oracle: (det g, g^-1) by Gauss-Jordan elimination over Fraction,
    or (0, None) for a singular g."""
    n = len(g)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(g)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0, None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        pv = a[col][col]
        det *= pv
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det, tuple(tuple(row[n:]) for row in a)


def oracle_acts_trivially(ginv, mat):
    """Slow oracle: (M - I) G^-1 has integer entries, computed in Fractions
    from G^-1 = ``ginv`` by the textbook product over the nonzero entries
    of M - I."""
    for i, row in enumerate(mat):
        terms = [(x - (i == k), ginv[k]) for k, x in enumerate(row) if x != (i == k)]
        if any(sum(c * g[j] for c, g in terms).denominator != 1 for j in range(len(mat))):
            return False
    return True


def dense_mat_mul(a, b):
    """Slow oracle: the textbook product, every row of a against every column of b."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def dense_mat_vec(m, v):
    """Slow oracle: the textbook product, every row of m against v."""
    return [sum(x * c for x, c in zip(row, v)) for row in m]


def dense_is_isometry(g, mat):
    """Slow oracle: M^T G M == G by textbook products."""
    return dense_mat_mul(tuple(zip(*mat)), dense_mat_mul(g, mat)) == g


def add_to_column(m, j, x):
    """m with the L5 vector x added to the image of e_j."""
    cols = list(m.columns)
    cols[j] = tuple(a + b for a, b in zip(cols[j], x))
    return LatticeMap(m.n, tuple(cols))


def test_build_lattice_examples():
    u = dense_gram([U])
    assert len(u) == 2 and fraction_inverse(u)[0] == -1
    xi3 = xi_gram(3)
    assert len(xi3) == 23 and xi3[22][22] == -4
    assert abs(fraction_inverse(xi3)[0]) == 4  # = 2(n-1) for n = 3
    # L5 is the summand of Xi(n) on u, v, u1, v1 and l, and the package's
    # block-by-block pairing is its Gram matrix
    for n in (2, 3, 10):
        assert l5_gram(n) == tuple(tuple(xi_gram(n)[i][j] for j in L5_IN_XI) for i in L5_IN_XI)
        basis = identity(5)
        assert l5_gram(n) == tuple(tuple(lattice._pair(n, x, y) for y in basis) for x in basis)
    assert dense_gram([2, 4, -6, U]) == (
        (2, 0, 0, 0, 0),
        (0, 4, 0, 0, 0),
        (0, 0, -6, 0, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0),
    )
    assert fraction_inverse(dense_gram([2, 4, -6, U]))[0] == 2 * 4 * -6 * -1


def test_lattice_from_random_summands_matches_oracle():
    # the rank-one summands are all of det G up to sign, and G is even,
    # symmetric and block diagonal
    rng = random.Random(13)
    for _ in range(100):
        summands = [
            rng.choice([U, E8_MINUS, 2 * rng.choice([-3, -2, -1, 1, 2, 5])])
            for _ in range(rng.randint(1, 4))
        ]
        g = dense_gram(summands)
        assert g == tuple(zip(*g)) and all(g[i][i] % 2 == 0 for i in range(len(g)))
        degrees = [s for s in summands if isinstance(s, int)]
        assert abs(fraction_inverse(g)[0]) == abs(math.prod(degrees))


def test_e8_block_is_even_unimodular_negative_definite():
    e8 = dense_gram([E8_MINUS])
    assert len(e8) == 8
    assert fraction_inverse(e8)[0] == 1
    rng = random.Random(7)
    for _ in range(50):
        coords = [rng.randint(-4, 4) for _ in range(8)]
        if any(coords):
            assert pair(e8, coords, coords) < 0
            assert pair(e8, coords, coords) % 2 == 0


def test_lattice_validation():
    # L5(n) has the rank-one summand <-2(n-1)>: n = 1 makes it degenerate,
    # and n < 1 makes it positive, so alpha is built only for n >= 2
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="n must be at least 2"):
            build_alpha(n)


def test_transvection_preconditions():
    g = dense_gram([U])
    with pytest.raises(ValueError):
        transvection(g, [1, 1], [1, 0])  # (e0+e1)^2 = 2
    with pytest.raises(ValueError):
        transvection(g, [1, 0], [1, 1])  # (e0, e0+e1) = 1, not orthogonal


def test_transvection_examples():
    g = xi_gram(3)
    u1, v, minus_v = xi_vector(u1=1), xi_vector(v=1), xi_vector(v=-1)
    t_map = transvection(g, u1, v)
    assert dense_mat_vec(t_map, u1) == u1  # t(x, y) fixes x
    # inverse: t(x, y) t(x, -y) = id in both orders, which is what lets
    # the three-factor product be rewritten as a conjugation
    assert dense_mat_mul(t_map, transvection(g, u1, minus_v)) == identity(23)
    assert dense_mat_mul(transvection(g, u1, minus_v), t_map) == identity(23)


def test_transvections_preserve_gram():
    rng = random.Random(8)
    g = l5_gram(4)
    for _ in range(100):
        pick = rng.choice([0, 2])  # u or u1, both isotropic
        coords = [rng.randint(-3, 3) for _ in range(5)]
        coords[pick + 1] = 0  # kill the dual coordinate: (y, x) = 0
        t_map = transvection(g, identity(5)[pick], coords)
        assert l5_map(4, t_map).is_isometry() and dense_is_isometry(g, t_map)


def test_transvection_additivity_on_orthogonal_arguments():
    rng = random.Random(9)
    g = dense_gram([U, U, -4, 8])
    x = identity(6)[0]  # u of the first hyperbolic plane
    for _ in range(100):
        # (y, x) = 0 means no v-component of the first plane
        def random_orth():
            c = [rng.randint(-4, 4) for _ in range(6)]
            c[1] = 0
            return c

        c1, c2 = random_orth(), random_orth()
        lhs = transvection(g, x, [a + b for a, b in zip(c1, c2)])
        rhs = dense_mat_mul(transvection(g, x, c1), transvection(g, x, c2))
        assert lhs == rhs


def alpha_factors(n):
    """The dense transvections t(u1, -v), t(v1, (t-1)v - 2l) and t(u1, v) of
    Xi(n), whose product, in this order, is alpha."""
    t, g = 4 * n - 3, xi_gram(n)
    u1, v1 = xi_vector(u1=1), xi_vector(v1=1)
    return (
        transvection(g, u1, xi_vector(v=-1)),
        transvection(g, v1, xi_vector(v=t - 1, l=-2)),
        transvection(g, u1, xi_vector(v=1)),
    )


def test_build_alpha_matches_the_public_transvections():
    # build_alpha writes alpha5's moved columns in closed form; padded by
    # the identity on L18 it is the dense product of the three
    # transvections of Xi(n)
    for n in [*range(2, 301), 10**6]:
        first, second, third = alpha_factors(n)
        expect = dense_mat_mul(dense_mat_mul(first, second), third)
        assert padded_matrix(build_alpha(n)[0]) == expect, n


def test_isometry_matches_dense_oracle_on_alpha_and_its_transvections():
    # each factor moves only columns of L5 into L5, so it is some m5 + id;
    # the package's verdicts on m5 are the dense rank-23 verdicts, and
    # Eichler transvections act trivially on the discriminant group
    for n in range(2, 201):
        g = xi_gram(n)
        _, ginv = fraction_inverse(g)
        maps = [l5_map(n, [[f[i][j] for j in L5_IN_XI] for i in L5_IN_XI]) for f in alpha_factors(n)]
        for m in [*maps, build_alpha(n)[0]]:
            mat = padded_matrix(m)
            assert m.is_isometry() and dense_is_isometry(g, mat), n
            assert acts_trivially_on_discriminant(m) and oracle_acts_trivially(ginv, mat), n
        assert [padded_matrix(m) for m in maps] == list(alpha_factors(n))


def test_isometry_matches_dense_oracle_on_perturbed_alpha():
    rng = random.Random(14)
    for _ in range(400):
        n = rng.randint(2, 200)
        i, j = rng.randrange(5), rng.randrange(5)
        d = rng.choice((-2, -1, 1, 2))
        m = add_to_column(build_alpha(n)[0], j, [d * x for x in identity(5)[i]])
        assert m.is_isometry() == dense_is_isometry(xi_gram(n), padded_matrix(m)), (n, i, j)


# alpha moves the columns of u, u1 and l and fixes v and v1
ALPHA_MUTANTS = {
    # entry (l, u) + 1: l pairs only with itself, so this breaks only
    # pairings of moved columns
    "moved column": lambda m: add_to_column(m, 0, l5_vector(l=1)),
    # v1 -> v1 + l, of square -2(n-1), in a column alpha fixes
    "fixed column": lambda m: add_to_column(m, 3, l5_vector(l=1)),
    # u -> alpha(u) + alpha(u1): alpha(u1) is isotropic and orthogonal to
    # every moved image and to v, so only the pair (u, v1) breaks
    "moved x fixed only": lambda m: add_to_column(m, 0, m.columns[2]),
}


@pytest.mark.parametrize("mutate", ALPHA_MUTANTS.values(), ids=ALPHA_MUTANTS.keys())
def test_isometry_rejects_perturbed_alpha(mutate):
    for n in (2, 7, 130):
        m = mutate(build_alpha(n)[0])
        assert not dense_is_isometry(l5_gram(n), l5_matrix(m))
        assert not dense_is_isometry(xi_gram(n), padded_matrix(m))
        assert not m.is_isometry()


def test_isometry_rejects_a_lost_pairing_with_a_fixed_vector():
    # (u, v) = 1 with v fixed; u -> v and u -> 0 keep every pairing among
    # moved columns, so only the pair (u, v), now (M e_u, e_v) = 0, shows
    # the fault
    for col in (l5_vector(v=1), l5_vector()):
        m = LatticeMap(5, (col, *identity(5)[1:]))
        assert not dense_is_isometry(l5_gram(5), l5_matrix(m))
        assert not m.is_isometry()


def negate(rank, indices):
    """-1 on the basis vectors at ``indices``, the identity elsewhere."""
    return signed_permutation([(-1 if j in indices else 1, j) for j in range(rank)])


def signed_permutation(images):
    """Basis vector j goes to sign * e_k for images[j] = (sign, k)."""
    m = [[0] * len(images) for _ in images]
    for j, (sign, k) in enumerate(images):
        m[k][j] = sign
    return tuple(tuple(row) for row in m)


def test_discriminant_action():
    assert acts_trivially_on_discriminant(LatticeMap(3, identity(5)))
    # negating l is an isometry but moves l* = l/(-2(n-1)) in the
    # discriminant group as soon as 2(n-1) > 2; so does -id
    for n, expected in ((2, True), (3, False), (5, False)):
        _, ginv = fraction_inverse(l5_gram(n))
        for mat in (negate(5, {4}), negate(5, set(range(5)))):
            m = l5_map(n, mat)
            assert m.is_isometry()
            assert acts_trivially_on_discriminant(m) is expected
            assert oracle_acts_trivially(ginv, mat) is expected


# U + <-4> + <-4>: discriminant group (Z/4)^2.  Negating one <-4> summand
# or swapping the two moves it.
_U44 = (U, -4, -4)
# <2> + <4> + <-6> + U: discriminant group Z/2 + Z/4 + Z/6.  -1 on <2> is
# trivial on Z/2 (read modulo 4 it would not be); -1 on <4> is not
# (read modulo 2, or from the last rank-one summand alone, it would be).
_MIX = (2, 4, -6, U)
# These two are not of the form L5(n), so they check the oracle alone;
# the package is checked on the L5(n) cases below, where it applies.
# U + U + <-2> = L5(2): discriminant group Z/2, on which -id acts trivially
_UU2 = l5_summands(2)
# L5(3) and L5(5): Z/4 and Z/8.  -id moves the generator; read modulo
# n - 1 instead of 2(n - 1) it would not, at n = 3
_L5_3, _L5_5 = l5_summands(3), l5_summands(5)
DISCRIMINANT_CASES = [
    pytest.param(_U44, None, identity(4), True, id="U44-id"),
    pytest.param(_U44, None, negate(4, {3}), False, id="U44-minus-l"),
    pytest.param(_U44, None, negate(4, {2}), False, id="U44-minus-first"),
    pytest.param(
        _U44, None, signed_permutation([(1, 0), (1, 1), (1, 3), (1, 2)]), False, id="U44-swap"
    ),
    pytest.param(_U44, None, negate(4, set(range(4))), False, id="U44-minus-id"),
    pytest.param(_MIX, None, identity(5), True, id="MIX-id"),
    pytest.param(_MIX, None, negate(5, {0}), True, id="MIX-minus-2"),
    pytest.param(_MIX, None, negate(5, {1}), False, id="MIX-minus-4"),
    pytest.param(_MIX, None, negate(5, {3, 4}), True, id="MIX-minus-U"),
    pytest.param(_MIX, None, negate(5, set(range(5))), False, id="MIX-minus-id"),
    pytest.param(_UU2, 2, negate(5, set(range(5))), True, id="UU2-minus-id"),
    pytest.param(
        _UU2,
        2,
        signed_permutation([(1, 2), (1, 3), (1, 0), (1, 1), (1, 4)]),
        True,
        id="UU2-swap-U",
    ),
    pytest.param(_L5_3, 3, negate(5, set(range(5))), False, id="L5-n3-minus-id"),
    pytest.param(_L5_3, 3, negate(5, {4}), False, id="L5-n3-minus-l"),
    pytest.param(_L5_5, 5, negate(5, {0, 1}), True, id="L5-n5-minus-U"),
    pytest.param(
        _L5_5,
        5,
        signed_permutation([(1, 2), (1, 3), (1, 0), (1, 1), (-1, 4)]),
        False,
        id="L5-n5-swap-U-minus-l",
    ),
]


def hyperbolic_pairs(summands):
    """Index pairs (a, b) of each U summand: e_a is isotropic and pairs only with e_b."""
    out, off = [], 0
    for s in summands:
        if s == U:
            out += [(off, off + 1), (off + 1, off)]
        off += 8 if s == E8_MINUS else 2 if s == U else 1
    return out


def random_transvections(rng, summands):
    """The dense product of one to three random Eichler transvections t(e_a, y)."""
    g = dense_gram(summands)
    out = identity(len(g))
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(hyperbolic_pairs(summands))
        coords = [rng.randint(-3, 3) for _ in range(len(g))]
        coords[b] = 0  # (e_a, y) = 0
        out = dense_mat_mul(out, transvection(g, identity(len(g))[a], coords))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 200), st.integers(0, 2**32), st.data())
def test_apply_gram_product_and_isometry_match_dense_oracle(n, seed, data):
    rng = random.Random(seed)
    a = random_transvections(rng, l5_summands(n))
    m = l5_map(n, a)
    assert l5_matrix(m) == a
    assert m.is_isometry() and dense_is_isometry(xi_gram(n), padded_matrix(m))
    entries = st.one_of(st.just(0), st.integers(-9, 9))  # mostly zeros, like the vectors used
    v = data.draw(st.lists(entries, min_size=5, max_size=5), label="v")
    w = data.draw(st.lists(entries, min_size=5, max_size=5), label="w")
    assert list(m.apply(tuple(v))) == dense_mat_vec(a, v)
    # the block-by-block pairing is the dense pairing of Xi(n) on the padded vectors
    xv, xw = lattice.xi_coords(v), lattice.xi_coords(w)
    assert lattice._pair(n, v, w) == pair(xi_gram(n), xv, xw)


@pytest.mark.parametrize("summands, n, s_mat, expected", DISCRIMINANT_CASES)
def test_discriminant_action_matches_oracle(summands, n, s_mat, expected):
    g = dense_gram(summands)
    _, ginv = fraction_inverse(g)
    assert dense_is_isometry(g, s_mat)
    assert oracle_acts_trivially(ginv, s_mat) is expected
    if n is not None:
        assert l5_map(n, s_mat).is_isometry()
        assert acts_trivially_on_discriminant(l5_map(n, s_mat)) is expected
    # Eichler transvections act trivially on the discriminant group, so
    # T1 S T2, a dense matrix, has the verdict of S
    rng = random.Random(12)
    for _ in range(30):
        product = dense_mat_mul(random_transvections(rng, summands), s_mat)
        mat = dense_mat_mul(product, random_transvections(rng, summands))
        assert dense_is_isometry(g, mat)
        assert oracle_acts_trivially(ginv, mat) is expected
        if n is not None:
            m = l5_map(n, mat)
            assert m.is_isometry()
            assert acts_trivially_on_discriminant(m) is expected


def test_discriminant_rejects_non_isometry():
    # v1 -> v1 + l is not isotropic
    m = add_to_column(LatticeMap(5, identity(5)), 3, l5_vector(l=1))
    assert not m.is_isometry()
    with pytest.raises(ValueError):
        acts_trivially_on_discriminant(m)
