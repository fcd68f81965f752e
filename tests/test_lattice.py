import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3invol.lattice import (
    E8_MINUS,
    U,
    IntegerLattice,
    LatticeMap,
    acts_trivially_on_discriminant,
    build_alpha,
    build_xi,
)
from lattice_reference import (
    basis,
    dense_gram,
    element,
    gram,
    matrix,
    pair,
    transvection,
    xi_vector,
)


def identity_map(lat):
    return LatticeMap(lat, {})


def dense_map(lat, matrix):
    """The one conversion from a dense matrix, column j the image of e_j, to a
    LatticeMap: the columns other than e_j, by their nonzero entries."""
    moved = {}
    for j, col in enumerate(zip(*matrix)):
        image = {i: x for i, x in enumerate(col) if x}
        if image != {j: 1}:
            moved[j] = image
    return LatticeMap(lat, moved)


def permutation_map(lat, images):
    """Signed permutation: basis vector j goes to sign * e_k for images[j] = (sign, k)."""
    m = [[0] * lat.rank for _ in range(lat.rank)]
    for j, (sign, k) in enumerate(images):
        m[k][j] = sign
    return dense_map(lat, m)


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


def bareiss_adjugate(g):
    """Slow oracle: (det g, adj g) of a square integer matrix, with
    adj g = det(g) * g^-1, or (0, None) for a singular g.

    Bareiss (fraction-free) Gauss-Jordan elimination on [g | I]: at step
    k every row i != k becomes (p_k * row_i - a_ik * row_k) / p_(k-1),
    with p_k the k-th pivot.  The division is exact (each entry is a minor
    of the augmented matrix), so all entries stay integers.  Row swaps in
    the pivot search amount to starting from [P g | P]; the elimination
    ends at [d I | R] with d = det(P g) = sign(P) det g, and the row
    operations E with E P g = d I give R = E P = d g^-1.
    """
    n = len(g)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


def adjugate_acts_trivially(m):
    """Slow oracle: (M - I) G^-1 is integral, i.e. M adj == adj (mod det G)."""
    d, adj = bareiss_adjugate(gram(m.lattice))
    return all(
        (x - y) % d == 0
        for moved, row in zip(dense_mat_mul(matrix(m), adj), adj)
        for x, y in zip(moved, row)
    )


def oracle_acts_trivially(m):
    """Slow oracle: (M - I) G^-1 has integer entries, computed in Fractions."""
    _, ginv = fraction_inverse(gram(m.lattice))
    r, mat = m.lattice.rank, matrix(m)
    return all(
        (sum(mat[i][k] * ginv[k][j] for k in range(r)) - ginv[i][j]).denominator == 1
        for i in range(r)
        for j in range(r)
    )


def dense_mat_mul(a, b):
    """Slow oracle: the textbook product, every row of a against every column of b."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def dense_mat_vec(m, v):
    """Slow oracle: the textbook product, every row of m against v."""
    return [sum(x * c for x, c in zip(row, v)) for row in m]


def dense_is_isometry(m):
    """Slow oracle: M^T G M == G by textbook products."""
    g, mat = gram(m.lattice), matrix(m)
    return dense_mat_mul(tuple(zip(*mat)), dense_mat_mul(g, mat)) == g


def perturbed(m, i, j, d):
    """m with d added to entry (i, j): coordinate i of the image of e_j."""
    rows = [list(row) for row in matrix(m)]
    rows[i][j] += d
    return dense_map(m.lattice, rows)


def random_even_gram(rng, rank):
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = 2 * rng.randint(-3, 3)
        for j in range(i):
            g[i][j] = g[j][i] = rng.randint(-3, 3)
    return tuple(tuple(row) for row in g)


def test_build_lattice_examples():
    u = IntegerLattice([U])
    assert u.rank == 2 and u.rank_one == ()
    assert bareiss_adjugate(gram(u))[0] == -1
    xi3 = IntegerLattice([U, U, U, E8_MINUS, E8_MINUS, -4])
    assert xi3.rank == 23 and xi3.rank_one == ((22, -4),)
    assert xi3 == build_xi(3) and xi3 != build_xi(4)
    assert abs(bareiss_adjugate(gram(xi3))[0]) == 4  # = 2(n-1) for n = 3
    mix = IntegerLattice([2, 4, -6, U])
    assert mix.summands == (2, 4, -6, U)
    assert mix.rank_one == ((0, 2), (1, 4), (2, -6))
    assert gram(mix) == (
        (2, 0, 0, 0, 0),
        (0, 4, 0, 0, 0),
        (0, 0, -6, 0, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0),
    )
    assert bareiss_adjugate(gram(mix))[0] == 2 * 4 * -6 * -1


def test_lattice_from_random_summands_matches_oracle():
    # the rank-one summands are all of det G up to sign, and G is even,
    # symmetric and block diagonal
    rng = random.Random(13)
    for _ in range(100):
        summands = [
            rng.choice([U, E8_MINUS, 2 * rng.choice([-3, -2, -1, 1, 2, 5])])
            for _ in range(rng.randint(1, 4))
        ]
        lat = IntegerLattice(summands)
        g = gram(lat)
        assert g == tuple(zip(*g)) and all(g[i][i] % 2 == 0 for i in range(lat.rank))
        degrees = [s for s in summands if isinstance(s, int)]
        assert [d for _, d in lat.rank_one] == degrees
        assert all(g[j][j] == d for j, d in lat.rank_one)
        assert abs(bareiss_adjugate(g)[0]) == abs(math.prod(degrees))


def test_e8_block_is_even_unimodular_negative_definite():
    e8 = IntegerLattice([E8_MINUS])
    assert e8.rank == 8
    assert bareiss_adjugate(gram(e8))[0] == 1
    rng = random.Random(7)
    for _ in range(50):
        coords = [rng.randint(-4, 4) for _ in range(8)]
        if any(coords):
            v = element(e8, coords)
            assert pair(v, v) < 0
            assert pair(v, v) % 2 == 0


def test_lattice_validation():
    for bad in ([3], [U, -5], [0], [U, 0], [], ["V"], [2.0], [(0, 1)]):
        # odd degree, zero degree (degenerate), empty, unknown summands
        with pytest.raises(ValueError):
            IntegerLattice(bad)


def test_adjugate_oracle_matches_fraction_oracle():
    rng = random.Random(11)
    grams = [random_even_gram(rng, rng.randint(1, 6)) for _ in range(300)]
    grams += [gram(build_xi(n)) for n in (2, 3, 10)]
    nondegenerate = 0
    for g in grams:
        det, ginv = fraction_inverse(g)
        assert bareiss_adjugate(g)[0] == det
        if det == 0:
            continue
        nondegenerate += 1
        assert bareiss_adjugate(g)[1] == tuple(tuple(det * x for x in row) for row in ginv)
    assert nondegenerate > 200


def test_transvection_preconditions():
    lat = IntegerLattice([U])
    e0, e0_plus_e1 = element(lat, [1, 0]), element(lat, [1, 1])
    with pytest.raises(ValueError):
        transvection(e0_plus_e1, e0)  # (e0+e1)^2 = 2
    with pytest.raises(ValueError):
        transvection(e0, e0_plus_e1)  # (e0, e0+e1) = 1, not orthogonal


def test_transvection_examples():
    lat = build_xi(3)
    u1, v, minus_v = xi_vector(lat, u1=1), xi_vector(lat, v=1), xi_vector(lat, v=-1)
    t_map = transvection(u1, v)
    assert dense_mat_vec(t_map, u1.coords) == list(u1.coords)  # t(x, y) fixes x
    # inverse: t(x, y) t(x, -y) = id in both orders, which is what lets
    # the three-factor product be rewritten as a conjugation
    ident = matrix(identity_map(lat))
    assert dense_mat_mul(t_map, transvection(u1, minus_v)) == ident
    assert dense_mat_mul(transvection(u1, minus_v), t_map) == ident
    # and dense_map drops every column that is e_j
    assert dense_map(lat, dense_mat_mul(t_map, transvection(u1, minus_v))).moved == {}


def test_transvections_preserve_gram():
    rng = random.Random(8)
    lat = IntegerLattice([U, U, -6, 2])
    for _ in range(100):
        pick = rng.choice([0, 2])  # u or u1, both isotropic
        x = basis(lat, pick)
        coords = [rng.randint(-3, 3) for _ in range(lat.rank)]
        coords[pick + 1] = 0  # kill the dual coordinate: (y, x) = 0
        m = dense_map(lat, transvection(x, element(lat, coords)))
        assert m.is_isometry() and dense_is_isometry(m)


def test_transvection_additivity_on_orthogonal_arguments():
    rng = random.Random(9)
    lat = IntegerLattice([U, U, -4, 8])
    x = basis(lat, 0)  # u of the first hyperbolic plane
    for _ in range(100):
        # (y, x) = 0 means no v-component of the first plane
        def random_orth():
            c = [rng.randint(-4, 4) for _ in range(lat.rank)]
            c[1] = 0
            return c

        c1, c2 = random_orth(), random_orth()
        lhs = transvection(x, element(lat, [a + b for a, b in zip(c1, c2)]))
        rhs = dense_mat_mul(transvection(x, element(lat, c1)), transvection(x, element(lat, c2)))
        assert lhs == rhs


def test_build_alpha_images_and_checks():
    for n in (2, 3, 5, 11):
        t, m = 4 * n - 3, 2 * (n - 1)
        alpha, fixed, kappa = build_alpha(n)  # raises if either image identity fails
        lat = alpha.lattice
        # alpha(u + tv - 2l) = u + v
        assert alpha.apply(xi_vector(lat, u=1, v=t, l=-2)) == fixed == xi_vector(lat, u=1, v=1)
        # alpha(2(n-1)(u + tv) - tl) = 2(n-1)(u - v) + 4(n-1)v1 - l
        expect = xi_vector(lat, u=m, v=-m, v1=2 * m, l=-1)
        assert alpha.apply(xi_vector(lat, u=m, v=m * t, l=-t)) == kappa == expect
        assert alpha.is_isometry()
        assert acts_trivially_on_discriminant(alpha)


def alpha_factors(n):
    """The dense transvections t(u1, -v), t(v1, (t-1)v - 2l) and t(u1, v) of
    Xi(n), whose product, in this order, is alpha."""
    t, lat = 4 * n - 3, build_xi(n)
    u1, v1 = xi_vector(lat, u1=1), xi_vector(lat, v1=1)
    return (
        transvection(u1, xi_vector(lat, v=-1)),
        transvection(v1, xi_vector(lat, v=t - 1, l=-2)),
        transvection(u1, xi_vector(lat, v=1)),
    )


def test_build_alpha_matches_the_public_transvections():
    # build_alpha writes alpha's three moved columns in closed form; the
    # dense product of its three transvections is the oracle
    for n in [*range(2, 301), 10**6]:
        first, second, third = alpha_factors(n)
        expect = dense_map(build_xi(n), dense_mat_mul(dense_mat_mul(first, second), third))
        assert build_alpha(n)[0].moved == expect.moved, n


def test_isometry_matches_dense_oracle_on_alpha_and_its_transvections():
    for n in range(2, 201):
        lat = build_xi(n)
        maps = [dense_map(lat, f) for f in alpha_factors(n)] + [build_alpha(n)[0]]
        for m in maps:
            assert m.is_isometry() and dense_is_isometry(m), n


def test_isometry_matches_dense_oracle_on_perturbed_alpha():
    rng = random.Random(14)
    for _ in range(400):
        n = rng.randint(2, 200)
        i, j = rng.randrange(23), rng.randrange(23)
        m = perturbed(build_alpha(n)[0], i, j, rng.choice((-2, -1, 1, 2)))
        assert m.is_isometry() == dense_is_isometry(m), (n, i, j)


# alpha moves the columns of u (0), u1 (2) and l (22); their images have
# coordinates only at u, v, u1, v1 and l
ALPHA_MUTANTS = {
    # l pairs only with itself, so this breaks only pairings of moved columns
    "moved column": (22, 0, 1),
    # e_5 = v2 goes to v2 + l, of square -2(n-1)
    "fixed column": (22, 5, 1),
    # u2 is isotropic and orthogonal to every moved image, so the image of u
    # keeps its pairings with all moved columns but pairs 1 with the fixed v2
    "moved x fixed only": (4, 0, 1),
}


@pytest.mark.parametrize("i, j, d", ALPHA_MUTANTS.values(), ids=ALPHA_MUTANTS.keys())
def test_isometry_rejects_perturbed_alpha(i, j, d):
    for n in (2, 7, 130):
        m = perturbed(build_alpha(n)[0], i, j, d)
        assert not dense_is_isometry(m)
        assert not m.is_isometry()


def test_isometry_rejects_a_lost_pairing_with_a_fixed_vector():
    # (u, v) = 1 with v fixed; u -> v and u -> 0 keep every pairing among
    # moved columns and meet no fixed e_j in G M e_u = G v or 0, so only the
    # entry G_uv, compared against (M e_u, e_v) = 0, shows the fault
    lat = IntegerLattice([U, U])
    for col in ({1: 1}, {}):
        m = LatticeMap(lat, {0: col})
        assert not dense_is_isometry(m)
        assert not m.is_isometry()


def test_discriminant_action():
    lat3 = build_xi(3)
    assert acts_trivially_on_discriminant(identity_map(lat3))
    # negating l is an isometry but moves l* = l/(-2(n-1)) in the
    # discriminant group as soon as 2(n-1) > 2
    for n, expected in ((2, True), (3, False), (5, False)):
        lat = build_xi(n)
        m = [[int(i == j) for j in range(23)] for i in range(23)]
        m[22][22] = -1
        neg_ell = dense_map(lat, m)
        assert neg_ell.is_isometry()
        assert acts_trivially_on_discriminant(neg_ell) is expected
        assert oracle_acts_trivially(neg_ell) is expected


def negate(lat, indices):
    """-1 on the basis vectors at ``indices``, the identity elsewhere."""
    return permutation_map(lat, [(-1 if j in indices else 1, j) for j in range(lat.rank)])


# U + <-4> + <-4>: discriminant group (Z/4)^2.  Negating one <-4> summand
# or swapping the two moves it.
_U44 = IntegerLattice([U, -4, -4])
# <2> + <4> + <-6> + U: discriminant group Z/2 + Z/4 + Z/6.  -1 on <2> is
# trivial on Z/2 (read modulo 4 it would not be); -1 on <4> is not
# (read modulo 2, or from the last rank-one summand alone, it would be).
_MIX = IntegerLattice([2, 4, -6, U])
# U + U + <-2>: discriminant group Z/2, on which -id acts trivially
_UU2 = IntegerLattice([U, U, -2])
DISCRIMINANT_CASES = [
    pytest.param(_U44, identity_map(_U44), True, id="U44-id"),
    pytest.param(_U44, negate(_U44, {3}), False, id="U44-minus-l"),
    pytest.param(_U44, negate(_U44, {2}), False, id="U44-minus-first"),
    pytest.param(
        _U44, permutation_map(_U44, [(1, 0), (1, 1), (1, 3), (1, 2)]), False, id="U44-swap"
    ),
    pytest.param(_U44, negate(_U44, set(range(4))), False, id="U44-minus-id"),
    pytest.param(_MIX, identity_map(_MIX), True, id="MIX-id"),
    pytest.param(_MIX, negate(_MIX, {0}), True, id="MIX-minus-2"),
    pytest.param(_MIX, negate(_MIX, {1}), False, id="MIX-minus-4"),
    pytest.param(_MIX, negate(_MIX, {3, 4}), True, id="MIX-minus-U"),
    pytest.param(_MIX, negate(_MIX, set(range(5))), False, id="MIX-minus-id"),
    pytest.param(_UU2, negate(_UU2, set(range(5))), True, id="UU2-minus-id"),
    pytest.param(
        _UU2,
        permutation_map(_UU2, [(1, 2), (1, 3), (1, 0), (1, 1), (1, 4)]),
        True,
        id="UU2-swap-U",
    ),
]


def hyperbolic_pairs(lat):
    """Index pairs (a, b) of each U summand: e_a is isotropic and pairs only with e_b."""
    out, off = [], 0
    for s in lat.summands:
        if s == U:
            out += [(off, off + 1), (off + 1, off)]
        off += 8 if s == E8_MINUS else 2 if s == U else 1
    return out


def random_transvections(rng, lat):
    """The dense product of one to three random Eichler transvections t(e_a, y)."""
    out = matrix(identity_map(lat))
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(hyperbolic_pairs(lat))
        coords = [rng.randint(-3, 3) for _ in range(lat.rank)]
        coords[b] = 0  # (e_a, y) = 0
        out = dense_mat_mul(out, transvection(basis(lat, a), element(lat, coords)))
    return out


# Xi(n), and orthogonal sums with a U summand for the transvections to use
_lattices = st.one_of(
    st.integers(2, 200).map(build_xi),
    st.lists(st.sampled_from([U, E8_MINUS, -6, -4, -2, 2, 4, 10]), max_size=3)
    .flatmap(lambda rest: st.permutations([U, *rest]))
    .map(IntegerLattice),
)


@settings(max_examples=300, deadline=None)
@given(_lattices, st.integers(0, 2**32), st.data())
def test_apply_gram_product_and_isometry_match_dense_oracle(lat, seed, data):
    rng = random.Random(seed)
    a = random_transvections(rng, lat)
    m = dense_map(lat, a)
    assert matrix(m) == a
    assert m.is_isometry() and dense_is_isometry(m)
    entries = st.one_of(st.just(0), st.integers(-9, 9))  # mostly zeros, like the vectors used
    v = data.draw(st.lists(entries, min_size=lat.rank, max_size=lat.rank), label="v")
    assert list(m.apply(element(lat, v)).coords) == dense_mat_vec(a, v)
    g = dense_gram(lat)
    assert gram(lat) == g
    gv = lat.gram_product({j: c for j, c in enumerate(v) if c})
    assert [gv.get(i, 0) for i in range(lat.rank)] == dense_mat_vec(g, v)


@pytest.mark.parametrize("lat, s_map, expected", DISCRIMINANT_CASES)
def test_discriminant_action_matches_oracle(lat, s_map, expected):
    assert s_map.is_isometry()
    assert acts_trivially_on_discriminant(s_map) is expected
    assert oracle_acts_trivially(s_map) is expected
    assert adjugate_acts_trivially(s_map) is expected
    # Eichler transvections act trivially on the discriminant group, so
    # T1 S T2, a dense matrix, has the verdict of S
    rng = random.Random(12)
    for _ in range(30):
        product = dense_mat_mul(random_transvections(rng, lat), matrix(s_map))
        m = dense_map(lat, dense_mat_mul(product, random_transvections(rng, lat)))
        assert m.is_isometry()
        assert acts_trivially_on_discriminant(m) is expected
        assert adjugate_acts_trivially(m) is expected


def test_discriminant_rejects_non_isometry():
    lat = IntegerLattice([U])
    m = dense_map(lat, ((1, 1), (0, 1)))
    assert not m.is_isometry()
    with pytest.raises(ValueError):
        acts_trivially_on_discriminant(m)
