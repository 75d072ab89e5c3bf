from bielliptic.ntheory import psi
from bielliptic.x0invariants import cusp_count, genus_x0, nu2, nu3


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
