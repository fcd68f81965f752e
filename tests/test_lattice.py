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
    build_lattice,
    build_xi,
    divisibility,
    transvection,
    xi_basis,
)


def identity_map(lat):
    n = lat.rank
    return LatticeMap(lat, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def permutation_map(lat, images):
    """Signed permutation: basis vector j goes to sign * e_k for images[j] = (sign, k)."""
    m = [[0] * lat.rank for _ in range(lat.rank)]
    for j, (sign, k) in enumerate(images):
        m[k][j] = sign
    return LatticeMap(lat, tuple(tuple(row) for row in m))


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


def oracle_acts_trivially(m):
    """Slow oracle: (M - I) G^-1 has integer entries, computed in Fractions."""
    _, ginv = fraction_inverse(m.lattice.gram)
    r = m.lattice.rank
    return all(
        (sum(m.matrix[i][k] * ginv[k][j] for k in range(r)) - ginv[i][j]).denominator == 1
        for i in range(r)
        for j in range(r)
    )


def dense_mat_mul(a, b):
    """Slow oracle: the textbook product, every row of a against every column of b."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def random_even_gram(rng, rank):
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = 2 * rng.randint(-3, 3)
        for j in range(i):
            g[i][j] = g[j][i] = rng.randint(-3, 3)
    return tuple(tuple(row) for row in g)


def test_build_lattice_examples():
    u = build_lattice([U])
    assert u.rank == 2 and u.det == -1
    xi3 = build_lattice([U, U, U, E8_MINUS, E8_MINUS, -4])
    assert xi3.rank == 23
    assert abs(xi3.det) == 4  # = 2(n-1) for n = 3
    two = build_lattice([2])
    assert two.rank == 1 and two.det == 2
    with pytest.raises(ValueError):
        build_lattice([3])  # odd rank-one degree
    with pytest.raises(ValueError):
        build_lattice([])


def test_e8_block_is_even_unimodular_negative_definite():
    e8 = build_lattice([E8_MINUS])
    assert e8.rank == 8
    assert e8.det == 1
    rng = random.Random(7)
    for _ in range(50):
        v = e8.element([rng.randint(-4, 4) for _ in range(8)])
        if not v.is_zero():
            assert v.square() < 0
            assert v.square() % 2 == 0


def test_lattice_validation():
    with pytest.raises(ValueError):
        IntegerLattice(((1,),))  # odd diagonal
    with pytest.raises(ValueError):
        IntegerLattice(((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(ValueError):
        IntegerLattice(((0, 0), (0, 0)))  # degenerate


def test_det_and_adjugate_match_fraction_oracle():
    rng = random.Random(11)
    grams = [random_even_gram(rng, rng.randint(1, 6)) for _ in range(300)]
    grams += [build_xi(n).gram for n in (2, 3, 10)]
    nondegenerate = 0
    for g in grams:
        det, ginv = fraction_inverse(g)
        if det == 0:
            with pytest.raises(ValueError):
                IntegerLattice(g)
            continue
        nondegenerate += 1
        lat = IntegerLattice(g)
        assert lat.det == det
        assert lat.adjugate == tuple(tuple(det * x for x in row) for row in ginv)
    assert nondegenerate > 200


# mostly zeros, like the Gram matrices and maps, with negative entries
_sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-9, 9))


def _int_matrix(rows, cols):
    return st.lists(
        st.lists(_sparse_entries, min_size=cols, max_size=cols).map(tuple),
        min_size=rows,
        max_size=rows,
    ).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mat_mul_matches_dense_oracle(data):
    m, k, p = (data.draw(st.integers(1, 6), label=name) for name in "mkp")
    a = data.draw(_int_matrix(m, k), label="a")
    b = data.draw(_int_matrix(k, p), label="b")
    assert lattice._mat_mul(a, b) == dense_mat_mul(a, b)


def test_mat_mul_matches_dense_oracle_on_period_lattice():
    for n in (2, 7, 130):
        g, adj = build_xi(n).gram, build_xi(n).adjugate
        alpha = build_alpha(n).matrix
        alpha_t = tuple(zip(*alpha))
        for a, b in ((g, alpha), (alpha_t, g), (alpha, adj), (alpha, alpha_t)):
            assert lattice._mat_mul(a, b) == dense_mat_mul(a, b)


def test_transvection_preconditions():
    lat = build_lattice([U])
    e0, e1 = lat.basis_element(0), lat.basis_element(1)
    with pytest.raises(ValueError):
        transvection(e0 + e1, e0)  # (e0+e1)^2 = 2
    with pytest.raises(ValueError):
        transvection(e0, e0 + e1)  # (e0, e0+e1) = 1, not orthogonal


def test_transvection_examples():
    b = xi_basis(3)
    u1, v = b["u1"], b["v"]
    t_map = transvection(u1, v)
    assert t_map.apply(u1) == u1  # formula collapses on u1 itself
    # inverse: t(x, y) o t(x, -y) = id in both orders, which is what lets
    # the three-factor composition be rewritten as a conjugation
    lat = build_xi(3)
    ident = identity_map(lat).matrix
    assert t_map.compose(transvection(u1, -v)).matrix == ident
    assert transvection(u1, -v).compose(t_map).matrix == ident


def test_transvections_preserve_gram():
    rng = random.Random(8)
    lat = build_lattice([U, U, -6, 2])
    for _ in range(100):
        pick = rng.choice([0, 2])  # u or u1, both isotropic
        x = lat.basis_element(pick)
        coords = [rng.randint(-3, 3) for _ in range(lat.rank)]
        coords[pick + 1] = 0  # kill the dual coordinate: (y, x) = 0
        y = lat.element(coords)
        assert transvection(x, y).is_isometry()


def test_transvection_additivity_on_orthogonal_arguments():
    rng = random.Random(9)
    lat = build_lattice([U, U, -4, 8])
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
        alpha = build_alpha(n)  # raises if either image identity fails
        b = xi_basis(n)
        u, v, v1, ell = b["u"], b["v"], b["v1"], b["l"]
        assert alpha.apply(u + t * v - 2 * ell) == u + v
        kappa = 2 * (n - 1) * (u - v) + 4 * (n - 1) * v1 - ell
        assert alpha.apply(2 * (n - 1) * (u + t * v) - t * ell) == kappa
        assert alpha.is_isometry()
        assert acts_trivially_on_discriminant(alpha)


def test_divisibility_examples():
    for n in (2, 3, 10):
        b = xi_basis(n)
        assert divisibility(b["u"] + b["v"]) == 1
        assert divisibility(b["l"]) == 2 * (n - 1)
        assert divisibility(b["u"]) == 1
    with pytest.raises(ValueError):
        divisibility(build_xi(3).element([0] * 23))


def test_divisibility_scaling():
    rng = random.Random(10)
    lat = build_lattice([U, -8])
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
        neg_ell = LatticeMap(lat, tuple(tuple(row) for row in m))
        assert neg_ell.is_isometry()
        assert acts_trivially_on_discriminant(neg_ell) is expected
        assert oracle_acts_trivially(neg_ell) is expected


# U + <-4> + <-4>: discriminant group (Z/4)^2.  Negating one <-4> summand
# or swapping the two moves it.
_U44 = build_lattice([U, -4, -4])
# U(4) + U: discriminant group (Z/4)^2 with a hyperbolic form.  -1 on U(4)
# moves it, yet (M - I) G^-1 has an integral diagonal and an integral last
# column; only two off-diagonal entries, -1/2, are fractional.
_U4U = IntegerLattice(((0, 4, 0, 0), (4, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
DISCRIMINANT_CASES = [
    pytest.param(_U44, identity_map(_U44), True, id="U44-id"),
    pytest.param(
        _U44, permutation_map(_U44, [(1, 0), (1, 1), (1, 2), (-1, 3)]), False, id="U44-minus-l"
    ),
    pytest.param(
        _U44, permutation_map(_U44, [(1, 0), (1, 1), (1, 3), (1, 2)]), False, id="U44-swap"
    ),
    pytest.param(_U4U, identity_map(_U4U), True, id="U4U-id"),
    pytest.param(
        _U4U, permutation_map(_U4U, [(-1, 0), (-1, 1), (1, 2), (1, 3)]), False, id="U4U-minus-U4"
    ),
]
# hyperbolic pairs (a, b) of each lattice: e_a is isotropic and pairs only with e_b
_HYPERBOLIC_PAIRS = {_U44: [(0, 1), (1, 0)], _U4U: [(0, 1), (1, 0), (2, 3), (3, 2)]}


def random_transvections(rng, lat):
    """A product of one to three random Eichler transvections t(e_a, y)."""
    out = identity_map(lat)
    for _ in range(rng.randint(1, 3)):
        a, b = rng.choice(_HYPERBOLIC_PAIRS[lat])
        coords = [rng.randint(-3, 3) for _ in range(lat.rank)]
        coords[b] = 0  # (e_a, y) = 0
        out = out.compose(transvection(lat.basis_element(a), lat.element(coords)))
    return out


@pytest.mark.parametrize("lat, s_map, expected", DISCRIMINANT_CASES)
def test_discriminant_action_matches_oracle(lat, s_map, expected):
    assert s_map.is_isometry()
    assert acts_trivially_on_discriminant(s_map) is expected
    assert oracle_acts_trivially(s_map) is expected
    # Eichler transvections act trivially on the discriminant group, so
    # T1 o S o T2, a dense matrix, has the verdict of S
    rng = random.Random(12)
    for _ in range(30):
        m = random_transvections(rng, lat).compose(s_map).compose(
            random_transvections(rng, lat)
        )
        assert m.is_isometry()
        assert acts_trivially_on_discriminant(m) is expected
        assert oracle_acts_trivially(m) is expected


def test_discriminant_rejects_non_isometry():
    lat = build_lattice([U])
    m = LatticeMap(lat, ((1, 1), (0, 1)))
    assert not m.is_isometry()
    with pytest.raises(ValueError):
        acts_trivially_on_discriminant(m)
