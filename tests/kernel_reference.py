"""The one oracle of the wall kernel (:mod:`k3invol.kernel`): the case
list (rho, alpha) of the wall criterion and the Y-scan over it.

Both follow the definitions in the kernel docstring and share no code
with the kernel's interval enumeration.  Each keeps the historical search
program's form beside the full criterion: the literal congruence test on
X and the C-family range that omits the top rho.
"""

from __future__ import annotations

import math


def case_pairs(n: int, appendix_cases: bool):
    """Yield the (rho, alpha) case list for n.

    With ``appendix_cases`` the C-family replicates the historical
    program's ``range(1, int((n-1)/4))``, which always omits the top
    value floor((n-1)/4); the default includes it.
    """
    for alpha in range(1, n):
        yield -1, alpha
    for alpha in range(3, n):
        yield 0, alpha
    rho_top = (n - 1) // 4
    if appendix_cases:
        rho_top -= 1
    for rho in range(1, rho_top + 1):
        for alpha in range(4 * rho + 1, n):
            yield rho, alpha


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
