import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3invol import lattice
from k3invol.lattice import (
    E8_MINUS,
    U,
    IntegerLattice,
    LatticeMap,
    acts_trivially_on_discriminant,
    build_alpha,
    build_xi,
    divisibility,
    transvection,
    xi_basis,
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
    d, adj = bareiss_adjugate(m.lattice.gram)
    return all(
        (x - y) % d == 0
        for moved, row in zip(dense_mat_mul(m.matrix, adj), adj)
        for x, y in zip(moved, row)
    )


def oracle_acts_trivially(m):
    """Slow oracle: (M - I) G^-1 has integer entries, computed in Fractions."""
    _, ginv = fraction_inverse(m.lattice.gram)
    r, mat = m.lattice.rank, m.matrix
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


def dense_gram(lat):
    """Slow oracle: the block-diagonal Gram matrix assembled from the summands."""
    blocks = {U: ((0, 1), (1, 0)), E8_MINUS: lattice._e8_minus_gram()}
    g, off = [[0] * lat.rank for _ in range(lat.rank)], 0
    for s in lat.summands:
        block = blocks.get(s, ((s,),))
        for i, row in enumerate(block):
            g[off + i][off : off + len(row)] = row
        off += len(block)
    return tuple(tuple(row) for row in g)


def dense_is_isometry(m):
    """Slow oracle: M^T G M == G by textbook products."""
    g = m.lattice.gram
    return dense_mat_mul(tuple(zip(*m.matrix)), dense_mat_mul(g, m.matrix)) == g


def perturbed(m, i, j, d):
    """m with d added to entry (i, j): coordinate i of the image of e_j."""
    rows = [list(row) for row in m.matrix]
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
    assert bareiss_adjugate(u.gram)[0] == -1
    xi3 = IntegerLattice([U, U, U, E8_MINUS, E8_MINUS, -4])
    assert xi3.rank == 23 and xi3.rank_one == ((22, -4),)
    assert xi3 == build_xi(3) and xi3 != build_xi(4)
    assert abs(bareiss_adjugate(xi3.gram)[0]) == 4  # = 2(n-1) for n = 3
    mix = IntegerLattice([2, 4, -6, U])
    assert mix.summands == (2, 4, -6, U)
    assert mix.rank_one == ((0, 2), (1, 4), (2, -6))
    assert mix.gram == (
        (2, 0, 0, 0, 0),
        (0, 4, 0, 0, 0),
        (0, 0, -6, 0, 0),
        (0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0),
    )
    assert bareiss_adjugate(mix.gram)[0] == 2 * 4 * -6 * -1


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
        g = lat.gram
        assert g == tuple(zip(*g)) and all(g[i][i] % 2 == 0 for i in range(lat.rank))
        degrees = [s for s in summands if isinstance(s, int)]
        assert [d for _, d in lat.rank_one] == degrees
        assert all(g[j][j] == d for j, d in lat.rank_one)
        assert abs(bareiss_adjugate(g)[0]) == abs(math.prod(degrees))


def test_e8_block_is_even_unimodular_negative_definite():
    e8 = IntegerLattice([E8_MINUS])
    assert e8.rank == 8
    assert bareiss_adjugate(e8.gram)[0] == 1
    rng = random.Random(7)
    for _ in range(50):
        v = e8.element([rng.randint(-4, 4) for _ in range(8)])
        if not v.is_zero():
            assert v.square() < 0
            assert v.square() % 2 == 0


def test_lattice_validation():
    for bad in ([3], [U, -5], [0], [U, 0], [], ["V"], [2.0], [(0, 1)]):
        # odd degree, zero degree (degenerate), empty, unknown summands
        with pytest.raises(ValueError):
            IntegerLattice(bad)


def test_adjugate_oracle_matches_fraction_oracle():
    rng = random.Random(11)
    grams = [random_even_gram(rng, rng.randint(1, 6)) for _ in range(300)]
    grams += [build_xi(n).gram for n in (2, 3, 10)]
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
    e0, e1 = lat.basis_element(0), lat.basis_element(1)
    with pytest.raises(ValueError):
        transvection(e0 + e1, e0)  # (e0+e1)^2 = 2
    with pytest.raises(ValueError):
        transvection(e0, e0 + e1)  # (e0, e0+e1) = 1, not orthogonal


def test_transvection_examples():
    b = xi_basis(build_xi(3))
    u1, v = b["u1"], b["v"]
    t_map = transvection(u1, v)
    assert t_map.apply(u1) == u1  # formula collapses on u1 itself
    # inverse: t(x, y) o t(x, -y) = id in both orders, which is what lets
    # the three-factor composition be rewritten as a conjugation
    lat = build_xi(3)
    ident = identity_map(lat).matrix
    assert t_map.compose(transvection(u1, -v)).matrix == ident
    assert transvection(u1, -v).compose(t_map).matrix == ident
    # and every column that comes back to e_j is dropped
    assert t_map.compose(transvection(u1, -v)).moved == {}


def test_transvections_preserve_gram():
    rng = random.Random(8)
    lat = IntegerLattice([U, U, -6, 2])
    for _ in range(100):
        pick = rng.choice([0, 2])  # u or u1, both isotropic
        x = lat.basis_element(pick)
        coords = [rng.randint(-3, 3) for _ in range(lat.rank)]
        coords[pick + 1] = 0  # kill the dual coordinate: (y, x) = 0
        y = lat.element(coords)
        assert transvection(x, y).is_isometry()


def test_transvection_additivity_on_orthogonal_arguments():
    rng = random.Random(9)
    lat = IntegerLattice([U, U, -4, 8])
    x = lat.basis_element(0)  # u of the first hyperbolic plane
    for _ in range(100):
        # (y, x) = 0 means no v-component of the first plane
        def random_orth():
            c = [rng.randint(-4, 4) for _ in range(lat.rank)]
            c[1] = 0
            return lat.element(c)

        y1, y2 = random_orth(), random_orth()
        lhs = transvection(x, y1 + y2)
        rhs = transvection(x, y1).compose(transvection(x, y2))
        assert lhs.matrix == rhs.matrix


def test_build_alpha_images_and_checks():
    for n in (2, 3, 5, 11):
        t = 4 * n - 3
        alpha, fixed, kappa = build_alpha(n)  # raises if either image identity fails
        b = xi_basis(alpha.lattice)
        u, v, v1, ell = b["u"], b["v"], b["v1"], b["l"]
        assert alpha.apply(u + t * v - 2 * ell) == fixed == u + v
        expect = 2 * (n - 1) * (u - v) + 4 * (n - 1) * v1 - ell
        assert alpha.apply(2 * (n - 1) * (u + t * v) - t * ell) == kappa == expect
        assert alpha.is_isometry()
        assert acts_trivially_on_discriminant(alpha)


def test_isometry_matches_dense_oracle_on_alpha_and_its_transvections():
    for n in range(2, 201):
        t = 4 * n - 3
        b = xi_basis(build_xi(n))
        u1, v, v1, ell = b["u1"], b["v"], b["v1"], b["l"]
        # the three factors of build_alpha; transvection checks each on construction
        maps = [
            transvection(u1, -v),
            transvection(v1, (t - 1) * v - 2 * ell),
            transvection(u1, v),
            build_alpha(n)[0],
        ]
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


def test_divisibility_examples():
    for n in (2, 3, 10):
        b = xi_basis(build_xi(n))
        assert divisibility(b["u"] + b["v"]) == 1
        assert divisibility(b["l"]) == 2 * (n - 1)
        assert divisibility(b["u"]) == 1
    with pytest.raises(ValueError):
        divisibility(build_xi(3).element([0] * 23))


def test_divisibility_scaling():
    rng = random.Random(10)
    lat = IntegerLattice([U, -8])
    for _ in range(50):
        e = lat.element([rng.randint(-5, 5) for _ in range(3)])
        if e.is_zero():
            continue
        c = rng.choice([-3, -2, 2, 5])
        assert divisibility(c * e) == abs(c) * divisibility(e)


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
    """A product of one to three random Eichler transvections t(e_a, y)."""
    out = identity_map(lat)
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(hyperbolic_pairs(lat))
        coords = [rng.randint(-3, 3) for _ in range(lat.rank)]
        coords[b] = 0  # (e_a, y) = 0
        out = out.compose(transvection(lat.basis_element(a), lat.element(coords)))
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
def test_compose_apply_and_gram_product_match_dense_oracle(lat, seed, data):
    rng = random.Random(seed)
    a, b = random_transvections(rng, lat), random_transvections(rng, lat)
    assert a.compose(b).matrix == dense_mat_mul(a.matrix, b.matrix)
    entries = st.one_of(st.just(0), st.integers(-9, 9))  # mostly zeros, like the vectors used
    v = data.draw(st.lists(entries, min_size=lat.rank, max_size=lat.rank), label="v")
    assert list(a.apply(lat.element(v)).coords) == dense_mat_vec(a.matrix, v)
    g = dense_gram(lat)
    assert lat.gram == g
    gv = lat.gram_product({j: c for j, c in enumerate(v) if c})
    assert [gv.get(i, 0) for i in range(lat.rank)] == dense_mat_vec(g, v)


@pytest.mark.parametrize("lat, s_map, expected", DISCRIMINANT_CASES)
def test_discriminant_action_matches_oracle(lat, s_map, expected):
    assert s_map.is_isometry()
    assert acts_trivially_on_discriminant(s_map) is expected
    assert oracle_acts_trivially(s_map) is expected
    assert adjugate_acts_trivially(s_map) is expected
    # Eichler transvections act trivially on the discriminant group, so
    # T1 o S o T2, a dense matrix, has the verdict of S
    rng = random.Random(12)
    for _ in range(30):
        m = random_transvections(rng, lat).compose(s_map).compose(
            random_transvections(rng, lat)
        )
        assert m.is_isometry()
        assert acts_trivially_on_discriminant(m) is expected
        assert adjugate_acts_trivially(m) is expected


def test_discriminant_rejects_non_isometry():
    lat = IntegerLattice([U])
    m = dense_map(lat, ((1, 1), (0, 1)))
    assert not m.is_isometry()
    with pytest.raises(ValueError):
        acts_trivially_on_discriminant(m)
