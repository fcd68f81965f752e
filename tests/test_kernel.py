import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from k3invol import kernel
from k3invol.hilbcone import DivisorClass, involution_action
from pell_reference import case_pairs


def y_scan(n, full_congruence, appendix_cases, t=None):
    """The slow, obviously correct kernel: per case, try every Y with
    Y^2 < 4A and keep X = sqrt(A + DY^2) when it is an integer in the
    mode's congruence (literal X in appendix mode)."""
    t = 4 * n - 3 if t is None else t
    d = 4 * t * (n - 1)
    m = 2 * (n - 1)
    out = []
    for rho, alpha in case_pairs(n, appendix_cases):
        a = alpha * alpha - 4 * rho * (n - 1)
        for y in range(1, math.isqrt(max(4 * a - 1, 0)) + 1):
            x = math.isqrt(a + d * y * y)
            if x * x != a + d * y * y:
                continue
            if full_congruence:
                ok = (x - alpha) % m == 0 or (x + alpha) % m == 0
            else:
                ok = x in (alpha, m - alpha)
            if ok:
                out.append((rho, alpha, x, y))
    return out


def test_kernel_matches_y_scan_oracle():
    for n in range(2, 151):
        assert kernel.interior_walls(n) == y_scan(n, True, False), n
        # the historical y-scan finds no interior wall, so the appendix
        # mode's C_n is 1: the proof is in the hilbcone module docstring
        assert y_scan(n, False, True) == [], n


def _strictly_below(sols, t):
    return sorted(s for s in sols if s[2] > t * s[3])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_lower_half_matches_oracle_on_generalized_t(data):
    # t = 4n-3 has only the middle wall; other t have walls below the
    # middle, including t < 4(n-1) where X > tY no longer implies the
    # interior bound Y^2 < 4A, and walls of the top rho, which the appendix
    # case list drops
    n = data.draw(st.integers(3, 49), label="n")
    t = data.draw(st.integers(n - 1, 4 * n + n // 4), label="t")
    got = kernel._lower_half(n, t)
    assert len(set(got)) == len(got)
    assert sorted(got) == sorted(
        s for s in y_scan(n, True, False, t) if s[2] >= t * s[3]
    )
    below = _strictly_below(got, t)
    assert below == _strictly_below(y_scan(n, True, False, t), t)
    # no solution of any t >= n-1 passes the historical y-scan.  X = alpha
    # forces rho = tY^2, above the cut, as in the proof in the hilbcone
    # module docstring; that proof excludes X = 2(n-1) - alpha by
    # X >= t > 2(n-1), which needs t = 4n-3, but for any t >= n-1 that X
    # forces rho = tY^2 + alpha - (n-1) >= alpha, so A <= alpha(alpha - 4(n-1)) < 0
    assert y_scan(n, False, True, t) == []


def test_generalized_t_has_walls_below_the_middle():
    # the property test above is not vacuous: most generalized t have walls
    with_walls = sum(
        1
        for n in range(3, 20)
        for t in range(n - 1, 4 * n + n // 4 + 1)
        if _strictly_below(kernel._lower_half(n, t), t)
    )
    assert with_walls > 300


def test_alpha_top_found_once():
    # alpha = n-1: the classes (k, -Y, (n-1)(k+1)) and (k+1, -Y, (n-1)k)
    # give the same tuple, which must be listed once
    assert kernel._lower_half(4, 5).count((-1, 3, 9, 1)) == 1
    assert kernel.interior_walls(2) == [(-1, 1, 5, 1)]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10**9))
def test_only_the_middle_wall(n):
    # the theorem C_n = 1 of the kernel docstring
    assert kernel.interior_walls(n) == [(-1, 1, 4 * n - 3, 1)]


def test_mirror_is_the_involution():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(2, 300)
        t = 4 * n - 3
        x, y = rng.randint(1, 10**6), rng.randint(1, 10**4)
        mx, my = kernel.mirror(n, x, y)
        assert involution_action(n, DivisorClass(x, -2 * t * y)) == (mx, -2 * t * my)
