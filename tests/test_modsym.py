import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bielliptic import modsym
from bielliptic.modsym import (
    ModSymSpace,
    al_operator,
    build_space,
    cusp_equiv,
    invariant_genus,
    invariant_genus_eigenspace,
    p1_normalize,
)
from bielliptic.involutions import fix_al
from bielliptic.ntheory import _MEMO_TABLES, all_subgroups, hall_divisors, hall_product, psi
from bielliptic.screening import gate_levels
from bielliptic.x0invariants import cusp_count, genus_x0


def test_p1_sizes():
    assert len(build_space(1).reps) == 1
    assert len(build_space(6).reps) == 12
    assert len(build_space(558).reps) == 1152
    for N in (2, 11, 24, 49, 90):
        assert len(build_space(N).reps) == psi(N)


def test_p1_normalize_idempotent_and_total():
    space = build_space(24)
    for c, d in space.reps:
        assert p1_normalize(24, c, d) == (c, d)
        assert space.p1_index(c, d) == space.p1_index(5 * c % 24, 5 * d % 24)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([7, 12, 30, 45]), st.integers(0, 100), st.integers(0, 100),
       st.integers(1, 100))
def test_p1_normalize_orbit_invariance(N, c, d, u):
    if gcd(gcd(c, d), N) != 1 or gcd(u, N) != 1:
        return
    assert p1_normalize(N, c, d) == p1_normalize(N, u * c, u * d)


def _units(N):
    return [u for u in range(1, N) if gcd(u, N) == 1]


def _p1_oracle(N, c, d):
    """Brute force: the lexicographic minimum over every unit scaling of (c : d)."""
    return min((u * c % N, u * d % N) for u in _units(N))


def _p1_oracle_reps(N):
    """The sorted orbit minima of P^1(Z/N), each orbit found by a full pair scan."""
    units = _units(N)
    seen = set()
    minima = []
    for c in range(N):
        for d in range(N):
            if (c, d) in seen or gcd(gcd(c, d), N) != 1:
                continue
            orbit = [(u * c % N, u * d % N) for u in units]
            seen.update(orbit)
            minima.append(min(orbit))
    return sorted(minima)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 8, 12, 30, 45, 72, 360, 840]),
       st.integers(-5000, 5000), st.integers(-5000, 5000))
def test_p1_normalize_matches_unit_scan(N, c, d):
    assume(gcd(gcd(c, d), N) == 1)
    assert p1_normalize(N, c, d) == _p1_oracle(N, c, d)
    space = build_space(N)
    assert space.reps[space.p1_index(c, d)] == _p1_oracle(N, c, d)


def test_p1_normalize_rejects_non_points():
    for c, d in ((2, 4), (0, 6), (3, 0)):
        with pytest.raises(ValueError):
            p1_normalize(12, c, d)


def test_reps_are_the_sorted_orbit_minima():
    for N in range(2, 201):
        assert list(build_space(N).reps) == _p1_oracle_reps(N), N


def _primitive(rref):
    """Rows scaled to coprime integers with a positive pivot."""
    out = {}
    for col, row in rref.items():
        den = lcm(*(Fraction(v).denominator for v in row.values()))
        ints = {k: int(v * den) for k, v in row.items() if v}
        g = gcd(*ints.values())
        sign = 1 if ints[col] > 0 else -1
        out[col] = {k: sign * v // g for k, v in ints.items()}
    return out


def _fraction_rref(rows, ncols):
    """Dense Gauss-Jordan over the rationals: {pivot column: row with pivot 1}."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    out = {}
    r = 0
    for col in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][col]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        out[col] = r
        r += 1
    return {col: {j: x for j, x in enumerate(m[i]) if x} for col, i in out.items()}


_MATRICES = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols),
        min_size=1, max_size=5,
    ).map(lambda dense: (ncols, [{j: v for j, v in enumerate(r) if v} for r in dense]))
)


@settings(max_examples=300, deadline=None)
@given(_MATRICES)
@example((3, [{0: 1, 1: 1}, {1: 2, 2: 1}]))  # back-substitution through pivot 2
def test_int_rref_matches_fraction_gauss_jordan(matrix):
    # entries in [-6, 6] make pivots other than 1 common, a branch no
    # production level reaches
    ncols, rows = matrix
    got = modsym._int_rref(rows)
    assert got == _primitive(got) == _primitive(_fraction_rref(rows, ncols))


def _reordered(matrix):
    """The rows permuted, with every zero entry written out and empty rows added."""
    ncols, rows = matrix
    dense = [{j: row.get(j, 0) for j in range(ncols)} for row in rows]
    return st.integers(0, 2).flatmap(
        lambda empty: st.permutations(dense + [{}] * empty)
    ).map(lambda shuffled: (rows, shuffled))


@settings(max_examples=300, deadline=None)
@given(_MATRICES.flatmap(_reordered))
@example(([{}], [{}]))
@example(([{}], [{0: 0, 1: 0}, {}]))
@example(([{0: 1, 1: 1}, {1: 2, 2: 1}], [{0: 0, 1: 2, 2: 1}, {}, {0: 1, 1: 1, 2: 0}]))
def test_int_rref_ignores_row_order(case):
    rows, shuffled = case
    copy = [dict(row) for row in shuffled]
    assert modsym._int_rref(shuffled) == modsym._int_rref(rows)
    assert shuffled == copy


def test_build_memory_stays_small():
    # about 3 MB; a build that keeps an index map over all (c, d) pairs
    # peaks at about 16 MB here
    build_space(420)  # imports and level invariants outside the measurement
    tracemalloc.start()
    try:
        ModSymSpace(420)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_build_fill_in_stays_small(monkeypatch):
    # 1 532 row operations; the three-term relations eliminated in
    # Manin-symbol order take 40 373
    calls = []
    eliminate = modsym._eliminate

    def counting_eliminate(row, piv, col):
        calls.append(col)
        eliminate(row, piv, col)

    monkeypatch.setattr(modsym, "_eliminate", counting_eliminate)
    ModSymSpace(840)
    assert len(calls) < 4000, len(calls)


def test_dimensions_small():
    assert len(build_space(11).cuspidal_basis) == 2
    assert len(build_space(60).cuspidal_basis) == 14
    assert len(build_space(120).cuspidal_basis) == 34


def test_cusp_classes():
    assert build_space(1).cusps == ((1, 0),)
    assert len(build_space(4).cusps) == 3
    cusps = build_space(126).cusps
    assert len(cusps) == cusp_count(126) and cusps[0] == (1, 0)
    assert not any(
        cusp_equiv(126, a, b) for i, a in enumerate(cusps) for b in cusps[:i]
    )


def test_path_vector_roundtrip():
    space = build_space(30)
    # {0, oo} is the class of the identity Manin symbol (0:1)
    vec = space.path_vector((0, 1), (1, 0))
    want = dict(space.expr[space.p1_index(0, 1)])
    assert vec == {k: Fraction(v) for k, v in want.items() if v}
    # every generator's own path converts back to its expression
    for i in (0, 3, 7, 11):
        start, end = space._manin_path(i)
        assert space.path_vector(start, end) == {
            k: v for k, v in space.expr[i].items() if v
        }


def test_al_witness_shape():
    space = build_space(120)
    for Q in hall_divisors(120)[1:]:
        a, b, c, d = space.al_matrix(Q)
        assert a * d - b * c == Q
        assert a % Q == 0 and d % Q == 0 and c % 120 == 0
    assert space.al_matrix(120) == (0, -1, 120, 0)
    with pytest.raises(ValueError):
        space.al_matrix(7)


@pytest.mark.parametrize("N", [35, 40, 54, 60, 63, 90])
def test_al_operator_involution_and_commutation(N):
    space = build_space(N)
    divs = hall_divisors(N)[1:]
    ops = {Q: al_operator(space, Q) for Q in divs}  # al_operator asserts op^2 = 1
    k = len(space.cuspidal_basis)

    def mul(A, B):
        return tuple(
            tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(k))
            for i in range(k)
        )

    for Q1 in divs:
        for Q2 in divs:
            prod = mul(ops[Q1].action, ops[Q2].action)
            prod2 = mul(ops[Q2].action, ops[Q1].action)
            assert prod == prod2
            Q3 = hall_product(Q1, Q2)
            if Q3 == 1:
                assert all(
                    prod[i][j] == (1 if i == j else 0)
                    for i in range(k) for j in range(k)
                )
            else:
                assert prod == ops[Q3].action


def test_full_matrix_trace_matches_restricted_route():
    # the trace route (diagonal on M2 minus the fixed cusp classes) against
    # the trace of the full matrix on the cuspidal basis
    pairs = [(N, Q) for N in gate_levels() if N <= 100 for Q in hall_divisors(N)[1:]]
    assert len(pairs) == 99
    for N, Q in pairs:
        space = build_space(N)
        assert al_operator(space, Q).trace() == space.al_trace_cuspidal(Q), (N, Q)


def test_cancelled_trace_matches_full_diagonal():
    # the trace drops the Manin symbols both endpoint chains share; the
    # reference sums the uncancelled diagonal of w_Q through path_vector
    count = 0
    for N in range(2, 151):
        space = build_space(N)
        for Q in hall_divisors(N)[1:]:
            cols = space._al_columns(Q)
            diag = sum(cols[c].get(c, 0) for c in space.free)
            mat = space.al_matrix(Q)
            fixed = sum(
                cusp_equiv(N, space._moebius(mat, cusp), cusp) for cusp in space.cusps
            )
            assert space.al_trace_cuspidal(Q) == diag - (fixed - 1), (N, Q)
            count += 1
    assert count == 427


def test_trace_route_needs_one_elimination_and_no_basis(monkeypatch):
    calls = []
    rref = modsym._int_rref

    def counting_rref(rows):
        calls.append(1)
        return rref(rows)

    monkeypatch.setattr(modsym, "_int_rref", counting_rref)
    for N in (60, 90, 126):
        calls.clear()
        space = ModSymSpace(N)
        assert len(calls) == 1
        for Q in hall_divisors(N)[1:]:
            space.al_trace_cuspidal(Q)
        assert "cuspidal_basis" not in vars(space)


def test_identity_operator():
    op = al_operator(40, 1)
    k = len(op.action)
    assert all(op.action[i][j] == (1 if i == j else 0) for i in range(k) for j in range(k))


def test_fricke_11():
    # X0(11)+ has genus 0: the +1-eigenspace of w11 is trivial
    assert invariant_genus(11, (11,)) == 0
    assert build_space(11).al_trace_cuspidal(11) == -2


def test_eigenspace_dimension_120_15():
    space = build_space(120)
    # +1-eigenspace dimension = g + trace/... = (2g + tr)/2 = 2 * 5
    tr = space.al_trace_cuspidal(15)
    assert (2 * space.genus + tr) // 2 == 10


def test_invariant_genus_examples():
    assert invariant_genus(60, (4,)) == 3
    assert invariant_genus(120, (15,)) == 5
    assert invariant_genus(40, (40,)) == 1
    assert invariant_genus(60) == genus_x0(60)


def test_invariant_genus_monotone():
    for N in (60, 84, 120):
        gtop = invariant_genus(N, (hall_divisors(N)[1],))
        assert invariant_genus(N, hall_divisors(N)[1:2] + hall_divisors(N)[2:3]) <= gtop


@pytest.mark.parametrize("N,W", [(60, (4, 3)), (88, (8,)), (126, (9,)), (120, (8, 15))])
def test_trace_route_matches_eigenspace_route(N, W):
    assert invariant_genus(N, W) == invariant_genus_eigenspace(N, W)


def test_invariant_dims_even():
    for N in (44, 60, 90, 126):
        for Q in hall_divisors(N)[1:]:
            tr = build_space(N).al_trace_cuspidal(Q)
            assert (2 * genus_x0(N) + tr) % 2 == 0


def test_space_report():
    space = build_space(60)
    assert len(space.reps) == 144
    assert space.dim == 2 * 7 + 12 - 1
    assert len(space.cusps) == 12
    assert len(space.cuspidal_basis) == 14
    assert space.al_trace_cuspidal(4) == 4 * 3 - 2 * 7


def test_build_rejects_bad_level():
    with pytest.raises(ValueError):
        build_space(0)


def test_concurrent_builds_and_traces(monkeypatch):
    # distinct levels build in parallel; duplicate builds of one level are
    # idempotent; trace fills race safely.  The cache is the test's own, so
    # the spaces other tests built stay cached.
    import threading

    monkeypatch.setattr(modsym, "_CACHE", {})
    results = {}

    def work(N):
        space = build_space(N)
        results[(N, threading.get_ident())] = (
            space.dim,
            space.al_trace_cuspidal(hall_divisors(N)[-1]),
        )

    threads = [threading.Thread(target=work, args=(N,)) for N in (77, 77, 78, 78, 79)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    by_level = {}
    for (N, _), val in results.items():
        by_level.setdefault(N, set()).add(val)
    assert all(len(vals) == 1 for vals in by_level.values())
    assert build_space(77) is build_space(77)


def test_clear_cache_is_the_one_reset(monkeypatch):
    # the reset empties the space cache and every per-level memo table; a
    # private space cache keeps the session's spaces built
    cache = {11: ModSymSpace(11)}
    monkeypatch.setattr(modsym, "_CACHE", cache)
    fix_al(11, 11)
    all_subgroups(12)
    assert all(_MEMO_TABLES.values())
    modsym.clear_cache()
    assert cache == {}
    assert not any(_MEMO_TABLES.values())
    assert genus_x0(11) == 1
    assert list(_MEMO_TABLES["bielliptic.x0invariants.genus_x0"]) == [(11,)]


def test_rebuild_is_identical():
    # two independent builds give the same basis, expressions and traces
    a = ModSymSpace(90)
    b = ModSymSpace(90)
    assert a.free == b.free
    assert a.expr == b.expr
    assert a.cuspidal_basis == b.cuspidal_basis
    for Q in hall_divisors(90)[1:]:
        assert a.al_trace_cuspidal(Q) == b.al_trace_cuspidal(Q)
