"""Wall-scan kernel: the interior wall solutions of every case of the criterion.

The cases (rho, alpha) are rho = -1 with 1 <= alpha <= n-1, rho = 0 with
3 <= alpha <= n-1, and 1 <= rho <= floor((n-1)/4) with
4 rho + 1 <= alpha <= n-1.  For a case the walls of the movable cone are
the solutions of

    X^2 - D Y^2 = A,   D = 4t(n-1),   A = alpha^2 - 4 rho (n-1),   t = 4n-3,

with X == +-alpha (mod 2(n-1)), whose ray X*H_n - 2tY*delta lies strictly
inside the movable cone, i.e. 1 <= Y and Y^2 < 4A (this uses
(2t-1)^2 - 16t(n-1) = 1).

Each solution is a Mukai class a = (k, -Y, s) with a^2 = 2 rho and
|a.v| = alpha, v = (1, 0, -(n-1)):

    k*s = tY^2 - rho,   X = (n-1)k + s,   alpha = +-(s - (n-1)k),

and conversely every such class solves its case in the right congruence
class.  Because t^2 - 4t(n-1) = t, the ray is on or below the middle wall
(X >= tY) exactly when A >= tY^2, so Y^2 <= (n-1)(n+3)/t there, about n/4.
For fixed (Y, k, sign) the conditions rho >= -1, 1 <= alpha <= n-1 and
X >= tY are linear in s and cut s to one interval; the rest of the case
list, rho <= floor((n-1)/4) and alpha >= 4 rho + 1, follows from A > 0.
Only O(1) values of k fit each Y, so the lower half costs O(sqrt(n))
interval computations plus one step per solution.

The upper half is its mirror: the involution (X, Y) -> ((2t-1)X -
8t(n-1)Y, 2X - (2t-1)Y) preserves A and X mod 2(n-1) (2t-1 == 1), and
swaps the solutions strictly below the middle with those strictly above.

Theorem (C_n = 1).  For t = 4n-3 the only solution on or below the
middle is the middle wall (rho, alpha, X, Y) = (-1, 1, t, 1), so none lies
strictly above it either and interior_walls(n) is [(-1, 1, t, 1)] for
every n >= 2.  Write m = n-1, so t = 4m+1, and d = s - mk, so
|d| = alpha <= m.  Then rho = tY^2 - ks >= -1, X = 2mk + d >= tY and
A = d^2 - 4m rho <= m(m+4).

1. A >= tY^2 gives Y <= m.  Then X >= tY and d <= m give k >= 2Y; write
   k = 2Y + e with e >= 0.
2. If e >= 1, then X >= 4mY + m, and X^2 = A + 4tmY^2 <= m(m+4) + 4tmY^2.
   Together these reduce to 2mY <= 1 + Y^2, which no Y in [1, m]
   satisfies once m >= 2.  For n = 2 the only case is (-1, 1), whose one
   solution is the middle wall.
3. If e = 0, then X >= tY gives d >= Y, so rho = Y^2 - 2Yd <= -Y^2.  With
   rho >= -1 this forces Y = 1 and then d = 1: the middle wall.

The scan stays as the computational cross-check of this proof.

Ordering contract: cases run A (rho = -1), B (rho = 0), then C (rho >= 1),
alpha ascending inside each and rho ascending in C, which is ascending
(rho, alpha); per case, solutions are listed by increasing Y.
"""

from __future__ import annotations

import math


def _lower_half(n: int, t: int) -> list[tuple[int, int, int, int]]:
    """(rho, alpha, X, Y) of every case with X >= tY, Y^2 < 4A and
    X == +-alpha (mod 2(n-1)), for X^2 - 4t(n-1)Y^2 = A.

    The movable cone needs t = 4n-3; any t >= n-1 gives a generalized
    problem with the same definitions.  Unordered, without duplicates.
    """
    m = n - 1
    d = 4 * t * m
    a_max = m * (m + 4)  # rho = -1, alpha = n-1
    c = t - 4 * m  # X >= tY  <=>  A >= t*c*Y^2
    out = []
    y = 1
    while y * y < 4 * a_max and (c <= 0 or t * c * y * y <= a_max):
        ty2 = t * y * y
        # X >= tY, and Y^2 < 4A  <=>  4X^2 > (4D+1)Y^2 (implied when t = 4n-3)
        x_lo = max(t * y, math.isqrt((4 * d + 1) * y * y) // 2 + 1)
        x_hi = math.isqrt(a_max + d * y * y)
        # X = 2(n-1)k + sign*alpha with 1 <= alpha <= n-1; k >= 1 because
        # k*s = tY^2 - rho > 0 and X = (n-1)k + s > 0
        for k in range(max(1, -(-(x_lo - m) // (2 * m))), (x_hi + m) // (2 * m) + 1):
            for sign in (1, -1):
                # alpha = sign*(s - (n-1)k) in [1, n-1]; alpha = n-1 comes
                # from both signs with the same tuple, so only sign = +1 keeps it
                if sign == 1:
                    lo, hi = m * k + 1, m * k + m
                else:
                    lo, hi = m * k - m + 1, m * k - 1
                # X = (n-1)k + s >= x_lo, and rho = tY^2 - k*s >= -1
                lo = max(lo, x_lo - m * k)
                hi = min(hi, (ty2 + 1) // k)
                for s in range(lo, hi + 1):
                    rho = ty2 - k * s
                    alpha = sign * (s - m * k)
                    if rho == 0 and alpha < 3:
                        continue
                    out.append((rho, alpha, m * k + s, y))
        y += 1
    return out


def mirror(n: int, x: int, y: int) -> tuple[int, int]:
    """The involution on rays X*H_n - 2tY*delta, in (X, Y) coordinates."""
    t = 4 * n - 3
    return (2 * t - 1) * x - 8 * t * (n - 1) * y, 2 * x - (2 * t - 1) * y


def interior_walls(n: int) -> list[tuple[int, int, int, int]]:
    """(rho, alpha, X, Y) of every interior wall of every case, sorted."""
    t = 4 * n - 3
    lower = _lower_half(n, t)
    return sorted(
        lower + [(rho, alpha, *mirror(n, x, y)) for rho, alpha, x, y in lower if x > t * y]
    )
