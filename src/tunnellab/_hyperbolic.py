"""Scaled hyperbolic pieces shared by every closed-form time and transmission.

Each closed form of the barrier is linear in 1, sinh(x)cosh(x)/x - 1 and
sinh(x)^2, x the opacity.  Times s = 4 e^{-2x}, and the last two divided by
m = min(x, 1)^2, they are

    s = 4 e^{-2x},   p = s (sinh x cosh x / x - 1) / m,   q = s sinh^2 x / m,

finite for every x >= 0 (4, 8/3 and 4 at x = 0); p and q stay normal up to
x of about 1e308 (p tends to 1/x, q to 1), while s underflows to 0 past 354.
With s sinh x cosh x = x (s + m p) and s sinh^2 x = m q, or at y = x/2
s(y) sinh x = x (s + m p) and s(y) cosh x = s + 2 m q with the pieces taken
at y, every such ratio is one expression over (s, p, q, m): no 0/0 as x -> 0
and no overflow at large x.  Dividing by x^2 instead of m gives the same
values below x = 1, but then p underflows past x of about 1e102 and x^2
overflows past 1e154 (docs/DECISIONS.md, D9).
"""

from __future__ import annotations

import numpy as np

_SERIES_X = 0.5   # below this, p is summed as its Taylor series


def scaled(x):
    """(s, p, q, m) at x >= 0, each within a few ulps (see the module docstring).

    q = (expm1(-2x)/min(x, 1))^2 needs no series.  p = (-expm1(-4x)/x - s)/m
    cancels as x -> 0, so below _SERIES_X it is s (2/3) sum_j (4x^2)^j 3!/(2j+3)!
    through j = 8 (first dropped term below 2e-19 of the sum), evaluated only
    on those entries.
    """
    x = np.asarray(x, dtype=float)
    root_m = np.minimum(x, 1.0)
    m = root_m * root_m
    s = 4.0 * np.exp(-2.0 * x)
    q = np.divide(np.expm1(-2.0 * x), root_m, out=np.full_like(x, -2.0), where=x > 0.0) ** 2
    p = np.empty_like(x)
    small = x < _SERIES_X
    u = 4.0 * x[small] ** 2
    tail = np.ones_like(u)
    for j in range(8, 0, -1):
        tail = 1.0 + u * tail / ((2 * j + 2) * (2 * j + 3))
    p[small] = s[small] * (2.0 / 3.0) * tail
    rest = x[~small]
    p[~small] = (-np.expm1(-4.0 * rest) / rest - s[~small]) / m[~small]
    return s, p, q, m


def one_way_rate(n, n_bar, alpha):
    """One-way tunneling phase time over tau, (2/alpha) [sinh cosh - alpha n (2n - 1)]
    / [4 n n_bar + sinh^2] at opacity alpha, with n = k^2/w^2 and n_bar = rho^2/w^2.

    In scaled form, with 1 - n (2n - 1) = n_bar (1 + 2n):
    2 [n_bar (1 + 2n) s + m p] / [4 n n_bar s + m q].
    """
    s, p, q, m = scaled(alpha)
    return 2.0 * (n_bar * (1.0 + 2.0 * n) * s + m * p) / (4.0 * n * n_bar * s + m * q)
