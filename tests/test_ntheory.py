import importlib
import inspect
import random
import sys
import threading
from math import gcd

import pytest
from hypothesis import given, strategies as st

from bielliptic import modsym
from bielliptic.atlas import scope_levels
from bielliptic.errors import IntegrityError
from bielliptic.involutions import fix_al
from bielliptic.ntheory import (
    _MEMO_TABLES,
    ALSubgroup,
    Factorization,
    _subgroup_lattice,
    _subspace_bases,
    all_subgroups,
    class_number,
    egcd,
    factor,
    hall_divisors,
    hall_product,
    kronecker,
    psi,
)
from bielliptic.screening import gate_levels
from bielliptic.x0invariants import genus_x0

from oracles import class_number_oracle, extend_subgroup, subgroup_lattice_by_growth


def test_factor_examples():
    assert factor(1).factors == ()
    assert factor(252).factors == ((2, 2), (3, 2), (7, 1))
    assert factor(558).factors == ((2, 1), (3, 2), (31, 1))
    with pytest.raises(ValueError):
        factor(0)


def test_factorization_that_does_not_multiply_out():
    # an internal arithmetic check, not bad input: IntegrityError (exit 1)
    with pytest.raises(IntegrityError, match="factorization of 12 does not multiply out"):
        Factorization(12, ((2, 1),))


def test_factor_roundtrip_small():
    for n in range(1, 2000):
        f = factor(n)
        prod = 1
        for p, e in f.factors:
            prod *= p**e
        assert prod == n


def test_psi_examples():
    assert psi(1) == 1
    assert psi(120) == 288
    assert psi(284) == 432


def test_psi_multiplicative():
    for m in range(1, 1001):
        for n in range(1, 1000 // m + 1):
            if gcd(m, n) == 1:
                assert psi(m * n) == psi(m) * psi(n)


def test_hall_divisors():
    assert hall_divisors(60) == [1, 3, 4, 5, 12, 15, 20, 60]
    assert hall_divisors(7) == [1, 7]
    assert hall_divisors(252) == [1, 4, 7, 9, 28, 36, 63, 252]
    for n in range(1, 1001):
        assert len(hall_divisors(n)) == 2 ** factor(n).omega


def test_hall_product_group_law():
    for n in (60, 120, 252):
        divs = hall_divisors(n)
        for d in divs:
            assert hall_product(d, d) == 1
            for e in divs:
                assert hall_product(d, e) in divs


def test_kronecker_examples():
    assert kronecker(1, 11) == 1
    assert kronecker(-4, 11) == -1
    assert kronecker(-3, 7) == 1
    assert kronecker(12, 3) == 0
    assert (kronecker(0, -1), kronecker(-3, -1)) == (1, -1)
    # (a | 0) is 1 exactly for a = 1 and a = -1
    assert [kronecker(a, 0) for a in (1, -1, 0, 2, -3)] == [1, 1, 0, 0, 0]


def test_kronecker_multiplicative_in_bottom():
    primes = [p for p in range(2, 100) if factor(p).omega == 1 and factor(p).factors[0][1] == 1]
    for D in range(-100, 101):
        for p in primes[:10]:
            for q in primes[:10]:
                assert kronecker(D, p * q) == kronecker(D, p) * kronecker(D, q)


def test_egcd():
    for a in range(-30, 31):
        for b in range(-30, 31):
            g, x, y = egcd(a, b)
            assert g == gcd(a, b)
            assert a * x + b * y == g


def test_class_number_examples():
    assert class_number(-3) == 1
    assert class_number(-4) == 1
    assert class_number(-15) == 2
    assert class_number(-60) == 2
    assert class_number(-44) == 3
    with pytest.raises(ValueError):
        class_number(-5)
    with pytest.raises(ValueError):
        class_number(4)
    with pytest.raises(ValueError):
        class_number(0)


def test_class_number_small_oracle():
    for D in range(-400, 0):
        if D % 4 in (0, 1):
            assert class_number(D) == class_number_oracle(D), D


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=400))
def test_kronecker_bottom_one(a, b):
    assert kronecker(a, 1) == 1
    # (a|2) vanishes exactly on even a
    assert (kronecker(a, 2) == 0) == (a % 2 == 0)


class TestALSubgroup:
    def test_closure_and_order(self):
        sub = ALSubgroup(60, (4, 3))
        assert sorted(sub.elements) == [1, 3, 4, 12]
        assert sub.order == 4
        assert 12 in sub and 5 not in sub

    def test_rejects_non_hall(self):
        with pytest.raises(ValueError):
            ALSubgroup(60, (2,))
        with pytest.raises(ValueError):
            ALSubgroup(120, (7,))

    def test_generators_are_ints(self):
        # int() once read "6_0" as 60 and " 12" as 12
        with pytest.raises(ValueError, match="not an Atkin-Lehner involution"):
            ALSubgroup(60, ["6_0", " 12"])
        with pytest.raises(ValueError, match="not an Atkin-Lehner involution"):
            ALSubgroup(60, (4.0,))

    def test_fricke_and_full(self):
        assert ALSubgroup(60, (60,)).is_fricke
        assert not ALSubgroup(60, (4,)).is_fricke
        assert ALSubgroup.full(60).order == 8
        assert not ALSubgroup(1).is_fricke

    def test_generators_canonical(self):
        # <w15, w40> at 120 equals <w24, w40>; canonical generators are by mask
        a = ALSubgroup(120, (15, 40))
        b = ALSubgroup(120, (24, 40))
        assert a == b
        assert a.generators() == (24, 40)
        assert a.label() == "<w24,w40>"

    def test_all_subgroups_counts(self):
        assert len(all_subgroups(60)) == 16  # 1 + 7 + 7 + 1
        assert len(all_subgroups(44)) == 5   # 1 + 3 + 1
        labels = [s.label() for s in all_subgroups(60)]
        assert labels[0] == "1"
        assert labels[1:4] == ["<w4>", "<w3>", "<w5>"]
        assert labels[-1] == "<w4,w3,w5>"

    def test_of_validates_the_level(self):
        sub = ALSubgroup(60, (4,))
        assert ALSubgroup.of(60, sub) is sub
        assert ALSubgroup.of(60, (4, 3)) == ALSubgroup(60, (3, 4))
        with pytest.raises(ValueError, match="level 180 used at level 60"):
            ALSubgroup.of(60, ALSubgroup(180, (4,)))

    def test_extend_doubles(self):
        # the growth step of the oracle lattice
        sub = ALSubgroup(420, (4, 3))
        assert extend_subgroup(sub, 35).order == 8
        assert extend_subgroup(sub, 12) == sub


# Every level a classification or the genus-large benchmark asks about.
_SUBGROUP_LEVELS = [*scope_levels(), 720, 756, 792, 840, 1000, 1088]


def _constants(sub):
    return sub.label(), sub.sort_key(), sub.is_full


def test_subgroup_constants_equal_a_recomputation():
    for N in _SUBGROUP_LEVELS:
        omega = len(factor(N).factors)
        for sub in all_subgroups(N):
            masked = sub._masked_generators()
            names = ",".join(f"w{d}" for _, d in masked)
            masks = sorted(m for m, _ in masked)
            want = (
                f"<{names}>" if sub.order > 1 else "1",
                (sub.order, tuple(sorted(bin(m).count("1") for m in masks)), tuple(masks)),
                sub.order == 2**omega,
            )
            assert _constants(sub) == want, (N, want[0])
            # kept in the instance: a second call returns the same object
            assert sub.label() is sub.label() and sub.sort_key() is sub.sort_key()


@pytest.mark.parametrize("first", ["label", "sort_key", "is_full", "hash"])
def test_subgroup_constants_agree_across_constructions(first):
    # a lattice subgroup, the group of its generators in reverse, and the
    # group its label parses to, each asked one value before the others
    ask = {
        "label": ALSubgroup.label,
        "sort_key": ALSubgroup.sort_key,
        "is_full": lambda s: s.is_full,
        "hash": hash,
    }[first]
    for N in _SUBGROUP_LEVELS:
        for shared, fresh in zip(all_subgroups(N), _subgroup_lattice.__wrapped__(N)):
            label = shared.label()
            parsed = ALSubgroup.parse(N, label[1:-1]) if shared.order > 1 else ALSubgroup(N)
            subs = (fresh, ALSubgroup(N, reversed(shared.generators())), parsed)
            assert len({ask(s) for s in subs}) == 1, (N, label)
            for s in subs:
                assert _constants(s) == _constants(shared), (N, label)
                assert s == shared and hash(s) == hash(shared), (N, label)


def test_factorization_constants_equal_a_recomputation():
    # omega and squarefreeness by a sieve, against the values each
    # factorization keeps once computed
    top = 3000
    omega = [0] * (top + 1)
    squarefree = [True] * (top + 1)
    for p in range(2, top + 1):
        if omega[p]:
            continue
        for m in range(p, top + 1, p):
            omega[m] += 1
        for m in range(p * p, top + 1, p * p):
            squarefree[m] = False
    for n in range(1, top + 1):
        f = factor(n)
        assert (f.omega, f.is_squarefree) == (omega[n], squarefree[n]), n
        assert (vars(f)["omega"], vars(f)["is_squarefree"]) == (omega[n], squarefree[n]), n


def test_all_subgroups_is_the_subgroup_lattice():
    # distinct, closed under the group law, and as many as an F2-space of
    # dimension omega has subspaces
    for N in range(1, 2001):
        subs = all_subgroups(N)
        assert len(subs) == (1, 2, 5, 16, 67)[factor(N).omega], N
        assert len({s.elements for s in subs}) == len(subs), N
        for s in subs:
            assert {hall_product(a, b) for a in s.elements for b in s.elements} == s.elements


def test_subspace_tables_count_every_subspace():
    # the number of subspaces of F2^omega, one table per omega; the growth
    # oracle below checks that they are distinct and in order
    assert [len(_subspace_bases(w)) for w in range(6)] == [1, 2, 5, 16, 67, 374]


def test_all_subgroups_equals_the_growth_oracle():
    # subgroup by subgroup, in order, with the label and generators that a
    # subgroup grown from its elements finds for itself
    for N in [*range(1, 2001), 2310]:
        want = subgroup_lattice_by_growth(N)
        got = all_subgroups(N)
        assert len(got) == len(want), N
        for s, t in zip(got, want):
            assert s == t, (N, t.label())
            assert (s.label(), s.generators()) == (t.label(), t.generators()), N


# -- memoised per-level functions ------------------------------------------


def _table(fn):
    return _MEMO_TABLES[f"{fn.__module__}.{fn.__qualname__}"]


def test_memoised_functions_stay_traceable():
    # perfbench/tracer.py wraps a module attribute only when it is a plain
    # function defined in that module; a functools.cache object is neither,
    # and would silently drop out of the per-layer metrics.
    importlib.import_module("bielliptic.atlas")  # registers the atlas tables
    public = {}
    for name in _MEMO_TABLES:
        module, attr = name.rsplit(".", 1)
        if not attr.startswith("_"):
            public[name] = (module, getattr(importlib.import_module(module), attr))
    assert set(public) == {
        "bielliptic.ntheory.factor",
        "bielliptic.x0invariants.genus_x0",
        "bielliptic.atlas.hyperelliptic_pairs",
        "bielliptic.atlas.witness_annotations",
    }
    for name, (module, fn) in public.items():
        assert inspect.isfunction(fn), name
        assert fn.__module__ == module, name


def test_memoised_values_equal_the_undecorated_functions():
    for n in range(1, 3001):
        assert factor(n) == factor.__wrapped__(n)
        assert genus_x0(n) == genus_x0.__wrapped__(n)
    for N in gate_levels():
        assert all_subgroups(N) == list(_subgroup_lattice.__wrapped__(N))


def test_all_subgroups_returns_a_fresh_list():
    first = all_subgroups(420)
    expected = list(first)
    random.Random(0).shuffle(first)
    assert first != expected
    assert all_subgroups(420) == expected


def test_failed_calls_store_nothing():
    for fn, args in ((factor, (0,)), (genus_x0, (0,))):
        with pytest.raises(ValueError):
            fn(*args)
        assert args not in _table(fn)


def test_concurrent_first_calls_agree(monkeypatch):
    # every table and a private space cache start empty, so each thread's
    # calls race to be the first at level 90
    monkeypatch.setattr(modsym, "_CACHE", {})
    modsym.clear_cache()
    calls = ((factor, (90,)), (genus_x0, (90,)), (fix_al, (90, 9)), (all_subgroups, (90,)))
    results = {fn: [] for fn, _ in calls}

    def work():
        for fn, args in calls:
            results[fn].append(fn(*args))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results[factor] == [factor.__wrapped__(90)] * 8
    assert results[genus_x0] == [genus_x0.__wrapped__(90)] * 8
    assert results[fix_al] == [2 - modsym.ModSymSpace(90).al_trace_cuspidal(9)] * 8
    assert results[all_subgroups] == [list(_subgroup_lattice.__wrapped__(90))] * 8
    assert list(_table(genus_x0)) == [(90,)]
