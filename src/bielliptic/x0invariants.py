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


def _cusp_phis(N: int):
    """phi(gcd(d, N/d)) for each d | N, pairing d with N/d up to sqrt(N)."""
    d = 1
    while d * d <= N:
        if N % d == 0:
            phi = euler_phi(gcd(d, N // d))
            yield phi
            if d != N // d:
                yield phi
        d += 1


def cusp_count(N: int) -> int:
    """Number of cusps of X0(N): sum of phi(gcd(d, N/d)) over d | N."""
    return sum(_cusp_phis(N))


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
    return sum((phi + 1) // 2 for phi in _cusp_phis(N))
