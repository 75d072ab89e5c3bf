from math import gcd

from bielliptic.ntheory import psi
from bielliptic.x0invariants import cusp_count, cusp_count_plus, genus_x0, nu2, nu3

from oracles import cusp_equiv


def test_cusp_count_examples():
    assert cusp_count(1) == 1
    assert cusp_count(4) == 3
    assert cusp_count(60) == 12


def test_nu_examples():
    assert nu2(1) == 1
    assert nu2(44) == 0
    assert nu3(63) == 0
    assert nu2(5) == 2
    assert nu3(7) == 2


def test_genus_examples():
    assert genus_x0(60) == 7
    assert genus_x0(176) == 19
    assert genus_x0(15) == 1
    assert genus_x0(88) == 9
    assert genus_x0(120) == 17
    assert genus_x0(252) == 37
    assert genus_x0(558) == 89


def test_genus_formula_identity():
    # 12(g-1) + 3 nu2 + 4 nu3 + 6 nu_inf = psi(N), exactly
    for N in range(1, 601):
        lhs = 12 * (genus_x0(N) - 1) + 3 * nu2(N) + 4 * nu3(N) + 6 * cusp_count(N)
        assert lhs == psi(N)


def test_cusp_count_plus_matches_brute_force():
    # the cusps p/d, d | N, 0 <= p < d, gcd(p, d) = 1 meet every class; the
    # classes are found with the pairwise criterion, then grouped into
    # orbits of p/q -> -p/q
    for N in range(1, 301):
        classes = []
        for d in range(1, N + 1):
            if N % d:
                continue
            for p in range(d):
                if gcd(p, d) == 1 and not any(cusp_equiv(N, (p, d), c) for c in classes):
                    classes.append((p, d))
        orbits = []
        for p, q in classes:
            if not any(cusp_equiv(N, (-p, q), c) for c in orbits):
                orbits.append((p, q))
        assert len(classes) == cusp_count(N), N
        assert len(orbits) == cusp_count_plus(N), N
    assert cusp_count_plus(60) == cusp_count(60) == 12
    assert (cusp_count_plus(1000), cusp_count(1000)) == (24, 40)
