"""Classical invariants of the modular curve X0(N): elliptic points, cusps, genus.

`genus_x0` is memoised per level (`ntheory.memoise`): a classification asks
for the genus of the same 115 levels thousands of times.  After one its
table holds 115 entries, and `modsym.clear_cache()` empties it.
Within the package `cusp_count` is asked only by `genus_x0`, once per level,
and `cusp_count_plus`, the cusp count up to the star involution, once per
modular-symbols build; neither is memoised.
"""

from __future__ import annotations

from math import gcd

from .errors import IntegrityError
from .ntheory import euler_phi, factor, kronecker, memoise, psi


def nu2(N: int) -> int:
    """Number of elliptic points of order 2; zero as soon as 4 | N."""
    if N % 4 == 0:
        return 0
    r = 1
    for p, _ in factor(N).factors:
        r *= 1 + kronecker(-4, p)
    return r


def nu3(N: int) -> int:
    """Number of elliptic points of order 3; zero as soon as 9 | N."""
    if N % 9 == 0:
        return 0
    r = 1
    for p, _ in factor(N).factors:
        r *= 1 + kronecker(-3, p)
    return r


def cusp_count(N: int) -> int:
    """Number of cusps of X0(N): sum of phi(gcd(d, N/d)) over d | N."""
    total = 0
    d = 1
    while d * d <= N:
        if N % d == 0:
            total += euler_phi(gcd(d, N // d))
            if d != N // d:
                total += euler_phi(gcd(N // d, d))
        d += 1
    return total


@memoise
def genus_x0(N: int) -> int:
    """Genus of X0(N) by the standard index/elliptic-point/cusp formula."""
    val = 12 + psi(N) - 3 * nu2(N) - 4 * nu3(N) - 6 * cusp_count(N)
    if val % 12:
        raise IntegrityError(f"genus formula non-integral at N={N}")
    return val // 12


def cusp_count_plus(N: int) -> int:
    """Number of cusp classes of X0(N) up to the star involution p/q -> -p/q:
    sum of ceil(phi(gcd(d, N/d)) / 2) over d | N.  The involution sends the
    class (d, u) to (d, -u), and u = -u only where gcd(d, N/d) <= 2."""
    total = 0
    for d in range(1, N + 1):
        if N % d == 0:
            total += (euler_phi(gcd(d, N // d)) + 1) // 2
    return total
