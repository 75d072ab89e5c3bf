import copy
import gc
import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bielliptic
from bielliptic import atlas, cli, modsym
from bielliptic.modsym import ModSymSpace, build_space, invariant_genus
from bielliptic.involutions import fix_al, group_closure, quotient_genus_hurwitz
from bielliptic.ntheory import (
    _MEMO_TABLES, ALSubgroup, all_subgroups, hall_divisors, hall_product, psi,
)
from bielliptic.screening import gate_levels, star_gate
from bielliptic.x0invariants import cusp_count, cusp_count_plus, genus_x0

import oracles
from oracles import FullSpace


def test_p1_sizes():
    assert len(build_space(1).rep_g) == 1
    assert len(build_space(6).rep_g) == 12
    assert len(build_space(558).rep_g) == 1152
    for N in (2, 11, 24, 49, 90):
        assert len(build_space(N).rep_g) == len(build_space(N).rep_v) == psi(N)


def test_p1_normalize_idempotent_and_total():
    space = build_space(24)
    reps = oracles.reps(space)
    for c, d in reps:
        assert reps[space.p1_index(c, d)] == (c, d)
        assert space.p1_index(c, d) == space.p1_index(5 * c % 24, 5 * d % 24)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([7, 12, 30, 45]), st.integers(0, 100), st.integers(0, 100),
       st.integers(1, 100))
def test_p1_normalize_orbit_invariance(N, c, d, u):
    if gcd(gcd(c, d), N) != 1 or gcd(u, N) != 1:
        return
    space = build_space(N)
    assert space.p1_index(c, d) == space.p1_index(u * c, u * d)


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
@given(st.sampled_from([2, 8, 12, 30, 45, 72, 360, 840, 1000, 1088, 2310]),
       st.integers(-5000, 5000), st.integers(-5000, 5000))
def test_p1_normalize_matches_unit_scan(N, c, d):
    # 1000 and 1088 have divisors g that share primes with N/g; 2310 has
    # the most residue tables, one per divisor
    assume(gcd(gcd(c, d), N) == 1)
    space = build_space(N)
    i = space.p1_index(c, d)
    assert (space.rep_g[i], space.rep_v[i]) == _p1_oracle(N, c, d)


def test_p1_normalize_rejects_non_points():
    space = build_space(12)
    for c, d in ((2, 4), (0, 6), (3, 0)):
        with pytest.raises(ValueError):
            space.p1_index(c, d)


def test_reps_are_the_sorted_orbit_minima():
    for N in range(2, 201):
        assert oracles.reps(build_space(N)) == _p1_oracle_reps(N), N


# every level to 60, the genus-large pool and the level with the most divisors
WALK_LEVELS = [*range(1, 61), 720, 756, 792, 840, 1000, 1088, 2310]


def _unbounded_walk(N):
    """The P^1 points in the walk's order, with every v in 0..N-1 walked for
    every divisor g < N instead of stopping at g's last slot."""
    reps = [(0, 1)]
    for g in range(1, N):
        if N % g:
            continue
        M = N // g
        seen = [False] * M
        for v in range(N):
            if not seen[v % M] and gcd(v, g) == 1:
                seen[v % M] = True
                reps.append((g, v))
    return reps


def test_bounded_walk_keeps_the_unbounded_order():
    for N in WALK_LEVELS:
        rep_g, rep_v, *_ = modsym._p1_points(N)
        assert list(zip(rep_g, rep_v)) == _unbounded_walk(N), N


def test_lookup_list_holds_gcd_cofactor_and_inverse():
    # entry g of a divisor g < N, and entry 0 for g = N, is g's own table
    for N in WALK_LEVELS:
        space = build_space(N)
        tables, mods, invs = space._p1_table, space._p1_mod, space._p1_inv
        assert len(tables) == len(mods) == len(invs) == N
        for c in range(N):
            g = gcd(c, N)
            assert (mods[c], invs[c]) == (N // g, pow(c // g, -1, N // g)), (N, c)
            assert tables[c] is tables[g % N], (N, c)
            assert len(tables[c]) == N // g, (N, c)


def test_walk_stopped_one_slot_early_names_level_and_divisor(monkeypatch):
    # divisor 8 of 1088 has M = 136, h = 8 and (136/8) * phi(8) = 68 slots
    walk = modsym._p1_walk

    def short_walk(N, g, slots, rep_g, rep_v):
        return walk(N, g, slots - 1 if g == 8 else slots, rep_g, rep_v)

    monkeypatch.setattr(modsym, "_p1_walk", short_walk)
    with pytest.raises(modsym.IntegrityError, match=r"P1\(Z/1088\): divisor 8 filled 67 of"):
        ModSymSpace(1088)


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
    copies = [dict(row) for row in rows], [dict(row) for row in shuffled]
    assert modsym._int_rref(shuffled) == modsym._int_rref(rows)
    assert (rows, shuffled) == copies


_NONZERO_ROWS = st.dictionaries(
    st.integers(0, 20), st.integers(-10**6, 10**6).filter(bool), min_size=1, max_size=8
)


@settings(max_examples=300, deadline=None)
@given(_NONZERO_ROWS)
@example({3: -4, 5: 6})  # gcd 2 and a negative lead: one division folds both
@example({0: -1, 2: 1})  # primitive, negative lead
@example({1: 2})
def test_reduce_int_row_with_its_lead(row):
    lead = min(row)
    copy = dict(row)
    got = modsym._reduce_int_row(row, lead)
    assert row == copy
    assert gcd(*got.values()) == 1 and got[lead] > 0
    assert got.keys() == row.keys()
    assert all(got[k] * row[lead] == row[k] * got[lead] for k in row)


def _relation_sum(*exprs):
    total = {}
    for expr in exprs:
        for k, v in expr.items():
            total[k] = total.get(k, 0) + v
    return {k: v for k, v in total.items() if v}


def test_stored_rows_satisfy_every_relation():
    # read straight from `points` and `rows`, with no trace: every point's
    # expression obeys the two-term, star and three-term relations, and a
    # free generator's point is that generator
    for N in [*range(1, 201), 720, 756, 792, 840, 1000, 1088, 2310]:
        space = build_space(N)
        look = space.p1_index
        expr = [oracles.point_expression(space, i) for i in range(len(space.rep_g))]
        for i, (c, d) in enumerate(oracles.reps(space)):
            x = expr[i]
            assert not _relation_sum(x, expr[look(d, -c)]), (N, i, "sigma")
            assert x == expr[look(-c, d)], (N, i, "eta")
            assert not _relation_sum(x, expr[look(d, -c - d)], expr[look(-c - d, c)]), (
                N, i, "tau",
            )
        for f in space.free:
            assert expr[f] == {f: 1}, (N, f)


def test_build_hands_the_elimination_zero_free_rows(monkeypatch):
    # the build drops a three-term row's entries that cancel, and a row
    # that cancels to nothing: 2, 2, 8, 4 and 32 of them at these levels,
    # and at N = 90 one row loses a zero entry and is kept
    rref = modsym._int_rref
    passed = []

    def spy(rows):
        passed[:] = rows
        return rref(rows)

    monkeypatch.setattr(modsym, "_int_rref", spy)
    counts = {}
    for N in (3, 11, 60, 90, 840):
        ModSymSpace(N)
        assert all(row and 0 not in row.values() for row in passed), N
        counts[N] = len(passed)
    assert counts == {3: 0, 11: 1, 60: 20, 90: 34, 840: 368}


def test_pivots_other_than_one_keep_every_expression(monkeypatch):
    # no level to 300, in the genus-large pool or 2310 has a pivot other
    # than 1; doubling every reduced row sends each pivot row through the
    # build's scaling to the common denominator, here 2
    rref = modsym._int_rref

    def doubled_rref(rows):
        return {col: {k: 2 * v for k, v in row.items()} for col, row in rref(rows).items()}

    wants = {N: build_space(N) for N in (11, 60, 90, 126)}
    monkeypatch.setattr(modsym, "_int_rref", doubled_rref)
    for N, want in wants.items():
        space = ModSymSpace(N)
        assert (space.den, want.den) == (2, 1), N
        for i in range(len(space.rep_g)):
            assert oracles.point_expression(space, i) == oracles.point_expression(want, i), (N, i)
        assert [space.al_trace_cuspidal(Q) for Q in hall_divisors(N)] == [
            want.al_trace_cuspidal(Q) for Q in hall_divisors(N)
        ]


def test_build_divides_by_a_pivot_other_than_one_exactly(monkeypatch):
    # tripling only the pivot entry of a reduced row divides its pivot
    # column's stored row by 3: the build must keep the true quotient over
    # den = 3, which is not integral where an entry is prime to 3.  Tripling
    # every pivot gives one pivot 3; tripling every other one mixes pivots 1
    # and 3, so the rows of pivot 1 are scaled to den.
    rref = modsym._int_rref
    wants = {N: build_space(N) for N in (11, 60, 90, 126)}
    for step in (1, 2):
        tripled = set()

        def tripled_pivots(rows):
            reduced = rref(rows)
            tripled.update(sorted(reduced)[::step])
            return {
                col: {k: 3 * v if k == col and col in tripled else v for k, v in row.items()}
                for col, row in reduced.items()
            }

        monkeypatch.setattr(modsym, "_int_rref", tripled_pivots)
        mixed = 0
        for N, want in wants.items():
            tripled.clear()
            space = ModSymSpace(N)
            assert (space.den, want.den) == (3, 1), (N, step)
            for col, row in want.rows.items():
                got = space.rows[col]
                assert all(type(v) is int for v in got.values()), (N, col)
                if col in want.free:
                    assert row == {col: -1} and got == {col: -3}, (N, col)
                    continue
                p = 3 if col in tripled else 1
                assert {k: Fraction(v, space.den) for k, v in got.items()} == {
                    k: Fraction(v, p) for k, v in row.items()
                }, (N, col, step)
            assert any(
                v % 3
                for col, row in space.rows.items()
                if col in tripled
                for v in row.values()
            ), (N, step)
            mixed += len(tripled) < len(space.rows) - space.dim
        assert mixed == (0 if step == 1 else 3), step  # all but N = 11 mix


def test_build_memory_stays_small():
    # about 0.57 MB (0.95 MB for all of M2); a build that keeps an index map
    # over all (c, d) pairs peaks at about 16 MB here
    build_space(420)  # imports and level invariants outside the measurement
    tracemalloc.start()
    try:
        ModSymSpace(420)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_space_retains_one_expression_per_column():
    # about 3.4 MB at 2310 on M2+, with the points and the lookup as flat int
    # lists; a (g, v) tuple per point, a (sign, column) pair per point and a
    # (table, M, inv) tuple per residue kept 3.9 MB, all of M2 kept 5.9 MB,
    # and one expression per point, half of them stored negated, 9.6 MB
    build_space(11)  # imports and level invariants outside the measurement
    tracemalloc.start()
    try:
        space = ModSymSpace(2310)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert space.dim and retained < 3.7 * 2**20, retained


def test_build_allocates_few_gc_tracked_objects():
    # 820 to 990 net allocations of GC-tracked objects at 840: the lists,
    # row dicts, lifts and cusps.  A tuple per P^1 point, per (sign, column)
    # pair and per lookup entry made 5 200 to 5 300, and each 700 of them set
    # off a collection.  The collector is paused so that the count is not
    # reset.
    build_space(840)  # imports and level invariants outside the measurement
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        space = ModSymSpace(840)  # kept: a freed object takes back its count
        made = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert space.dim and made < 1500, made


def test_traces_read_the_stored_lifts(monkeypatch):
    # the free generators' SL2(Z) lifts are computed once, by the build
    space = ModSymSpace(420)
    calls = []
    sl2_lift = modsym._sl2_lift

    def counting_sl2_lift(c, d):
        calls.append((c, d))
        return sl2_lift(c, d)

    monkeypatch.setattr(modsym, "_sl2_lift", counting_sl2_lift)
    for Q in hall_divisors(420)[1:]:
        space.al_trace_cuspidal(Q)
    assert calls == []
    assert space.lifts == tuple(sl2_lift(space.rep_g[c], space.rep_v[c]) for c in space.free)


def test_build_fill_in_stays_small(monkeypatch):
    # 357 row operations on the sign +1 quotient; all of M2 takes 1 532, and
    # 40 373 with its three-term relations in Manin-symbol order
    calls = []
    eliminate = modsym._eliminate

    def counting_eliminate(row, piv, col):
        calls.append(col)
        eliminate(row, piv, col)

    monkeypatch.setattr(modsym, "_eliminate", counting_eliminate)
    ModSymSpace(840)
    assert len(calls) < 1000, len(calls)


def test_dimensions_small():
    # 2g on all of M2, g on the sign +1 quotient
    for N, g in ((11, 1), (60, 7), (120, 17)):
        assert len(oracles.cuspidal_basis(FullSpace(N))) == 2 * g
        assert len(oracles.cuspidal_basis(build_space(N))) == g


def _plus_equiv(N, a, b):
    return oracles.cusp_equiv(N, a, b) or oracles.cusp_equiv(N, (-a[0], a[1]), b)


def test_cusp_classes():
    # the space keeps one cusp per orbit of the star involution p/q -> -p/q;
    # all of M2 keeps one per class
    assert build_space(1).cusps == ((1, 0),)
    assert len(build_space(4).cusps) == 3
    for N in (126, 1000, 2310):
        cusps = build_space(N).cusps
        assert len(cusps) == cusp_count_plus(N) and cusps[0] == (1, 0)
        assert not any(
            _plus_equiv(N, a, b) for i, a in enumerate(cusps) for b in cusps[:i]
        ), N
    cusps = FullSpace(126).cusps
    assert len(cusps) == cusp_count(126) > cusp_count_plus(126)
    assert not any(
        oracles.cusp_equiv(126, a, b) for i, a in enumerate(cusps) for b in cusps[:i]
    )


def test_stored_cusps_are_normalized():
    # the build keys a lift's endpoints as they are, and stores the first
    # one of each orbit: every stored cusp must be reduced with q >= 0, and
    # oo only as the seeded 1/0
    for N in [*range(1, 301), 720, 756, 792, 840, 1000, 1088, 2310]:
        cusps = build_space(N).cusps
        assert cusps[0] == (1, 0), N
        assert all(q > 0 and gcd(p, q) == 1 for p, q in cusps[1:]), N


def test_cusp_orbit_key_matches_pairwise_criterion():
    # equal orbit keys exactly for cusps equivalent up to p/q -> -p/q
    rng = random.Random(2026)
    for N in [*range(1, 201), 1000, 1088, 2310]:
        firsts = {}
        for cusp in _cusp_sample(N, rng, 80):
            first = firsts.setdefault(modsym._cusp_orbit(N, cusp), cusp)
            assert _plus_equiv(N, cusp, first), (N, cusp, first)
        firsts = list(firsts.values())
        assert not any(
            _plus_equiv(N, a, b) for i, a in enumerate(firsts) for b in firsts[:i]
        ), N


def _cusp_sample(N, rng, count):
    """oo, 0, -1 and `count` random reduced p/q, q >= 0, over every gcd(q, N)."""
    divisors = [d for d in range(1, N + 1) if N % d == 0]
    cusps = [(1, 0), (-1, 0), (0, 1), (-1, 1)]
    while len(cusps) < count:
        q = rng.choice(divisors) * rng.randrange(1, 2 * N)
        p = rng.randrange(-4 * N, 4 * N)
        if gcd(p, q) == 1:
            cusps.append((p, q))
    return cusps


def test_cusp_class_matches_pairwise_criterion():
    # equal keys exactly for Cremona-equivalent cusps.  Equivalence is
    # transitive, so checking each cusp against the first one drawn with its
    # key, and those firsts pairwise, covers every pair.
    rng = random.Random(2022)
    for N in [*range(1, 201), 1000, 1088, 2310]:
        firsts = {}
        for cusp in _cusp_sample(N, rng, 80):
            first = firsts.setdefault(modsym._cusp_class(N, cusp), cusp)
            assert oracles.cusp_equiv(N, cusp, first), (N, cusp, first)
        firsts = list(firsts.values())
        assert not any(
            oracles.cusp_equiv(N, a, b) for i, a in enumerate(firsts) for b in firsts[:i]
        ), N


def test_path_vector_roundtrip():
    space = build_space(30)
    # {0, oo} is the class of the identity Manin symbol (0:1)
    vec = oracles.path_vector(space, (0, 1), (1, 0))
    want = oracles.point_expression(space, space.p1_index(0, 1))
    assert vec == {k: Fraction(v) for k, v in want.items() if v}
    # every generator's own path converts back to its expression
    for i in (0, 3, 7, 11):
        start, end = oracles.manin_path(space, i)
        assert oracles.path_vector(space, start, end) == {
            k: v for k, v in oracles.point_expression(space, i).items() if v
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
    # on all of M2 and on the sign +1 quotient
    divs = hall_divisors(N)[1:]
    for space in (FullSpace(N), build_space(N)):
        ops = {Q: oracles.al_operator(space, Q) for Q in divs}  # asserts op^2 = 1
        k = len(oracles.cuspidal_basis(space))
        assert k == oracles.cuspidal_dim(space)
        # exact products in integers: each op scaled by a common denominator
        den = lcm(1, *(x.denominator for op in ops.values() for row in op for x in row))
        ints = {
            Q: tuple(tuple(int(x * den) for x in row) for row in op)
            for Q, op in ops.items()
        }

        def mul(A, B):
            return tuple(
                tuple(sum(A[i][t] * B[t][j] for t in range(k)) for j in range(k))
                for i in range(k)
            )

        for Q1 in divs:
            for Q2 in divs:
                prod = mul(ints[Q1], ints[Q2])
                prod2 = mul(ints[Q2], ints[Q1])
                assert prod == prod2
                Q3 = hall_product(Q1, Q2)
                if Q3 == 1:
                    assert all(
                        prod[i][j] == (den * den if i == j else 0)
                        for i in range(k) for j in range(k)
                    )
                else:
                    assert prod == tuple(tuple(den * x for x in row) for row in ints[Q3])


def test_full_matrix_trace_matches_restricted_route():
    # the production trace (twice the diagonal on M2+ minus the fixed cusp
    # orbits) against the trace of the full matrix on the cuspidal basis of
    # all of M2, and against twice the full matrix's trace on M2+
    pairs = [(N, Q) for N in gate_levels() if N <= 100 for Q in hall_divisors(N)[1:]]
    assert len(pairs) == 99
    for N, Q in pairs:
        tr = build_space(N).al_trace_cuspidal(Q)
        for space, halves in ((FullSpace(N), 1), (build_space(N), 2)):
            op = oracles.al_operator(space, Q)
            assert halves * sum(op[i][i] for i in range(len(op))) == tr, (N, Q, halves)


def test_cancelled_trace_matches_full_diagonal():
    # the trace splits each image by its Hermite form and works on M2+; the
    # references sum the diagonal of w_Q from the mapped endpoints through
    # path_vector, on all of M2 and on M2+
    count = 0
    for N in [*range(2, 151), 840]:
        full = FullSpace(N)
        space = build_space(N)
        for Q in hall_divisors(N)[1:]:
            tr = space.al_trace_cuspidal(Q)
            assert tr == oracles.full_trace(full, Q) == 2 * oracles.full_trace(space, Q), (N, Q)
            count += 1
    assert count == 427 + 15


def test_trace_matches_full_diagonal_at_benchmark_levels():
    # the genus-large pool's levels, where images have the longest chains
    count = 0
    for N in (720, 756, 792, 1000, 1088, 2310):
        space = build_space(N)
        for Q in hall_divisors(N)[1:]:
            assert space.al_trace_cuspidal(Q) == 2 * oracles.full_trace(space, Q), (N, Q)
            count += 1
    assert count == 7 + 7 + 7 + 3 + 3 + 31


def test_eta_image_has_the_same_sign_and_row():
    # the trace drops the chain's alternating sign, so it reads a symbol
    # (c : -d) at (c : d): on M2+ the two are eta-images of each other, so
    # they must share the orbit's sign and the row object
    for N in [*range(1, 201), 840]:
        space = build_space(N)
        sign, row_of = space.sign, space.row_of
        for i, (c, d) in enumerate(oracles.reps(space)):
            j = space.p1_index(c, -d)
            assert sign[j] == sign[i] and row_of[j] is row_of[i], (N, c, d)


def _assert_split(M):
    A, B, C, D = M
    (g11, g12, g21, g22), a, b, e = oracles.hermite_split(*M)
    assert g11 * g22 - g12 * g21 == 1
    assert a * e == A * D - B * C and a > 0 and 0 <= b < e
    assert (g11 * a, g11 * b + g12 * e, g21 * a, g21 * b + g22 * e) == M


def _times(W, g):
    (p, q, r, s), (a, b, c, d) = W, g
    return (p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d)


def _split_column(space, M):
    """The class of M{0, oo} in free coordinates, from M's image symbols."""
    column = {}
    for u, v in oracles._image_symbols(M):
        for k, x in oracles.point_expression(space, space.p1_index(u, v)).items():
            column[k] = column.get(k, 0) - x
    return {k: x for k, x in column.items() if x}


def test_hermite_split_of_every_generator_image():
    # gamma * [[a, b], [0, e]] is W_Q * g exactly, and the image symbols sum
    # to the whole column the mapped endpoints give, not only its diagonal.
    # All of M2 tells (c : d) from (c : -d), which M2+ identifies, so it
    # checks the signs of the symbols too.
    spaces = [build_space(N) for N in [*range(2, 61), 840]]
    for space in spaces + [FullSpace(N) for N in range(2, 61)]:
        N = space.N
        for Q in hall_divisors(N)[1:]:
            W = space.al_matrix(Q)
            for f in space.free:
                M = _times(W, modsym._sl2_lift(space.rep_g[f], space.rep_v[f]))
                _assert_split(M)
                start, end = oracles.manin_path(space, f)
                assert _split_column(space, M) == oracles.path_vector(
                    space, space._moebius(W, start), space._moebius(W, end)
                ), (N, Q, f)


_SL2 = st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)).filter(
    lambda cd: gcd(*cd) == 1
).map(lambda cd: modsym._sl2_lift(*cd))


@settings(max_examples=300, deadline=None)
@given(_SL2, st.sampled_from([(840, Q) for Q in hall_divisors(840)[1:]]
                             + [(2310, 2310), (1088, 17), (1000, 8)]))
@example((1, 0, 0, 1), (840, 840))
def test_hermite_split_of_random_sl2_images(g, level_q):
    # W_Q * g for random g in SL2(Z): the split is exact, and its symbols
    # give the image column the mapped endpoints give
    N, Q = level_q
    space = build_space(N)
    W = space.al_matrix(Q)
    M = _times(W, g)
    _assert_split(M)
    a, b, c, d = g
    assert _split_column(space, M) == oracles.path_vector(
        space, space._moebius(W, (b, d)), space._moebius(W, (a, c))
    )


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(-10**4, 10**4)] * 4))
@example((-3, 5, 0, -7))  # C = 0 with A < 0
@example((2, 1, 0, 3))  # C = 0 with A > 0
@example((4, 1, 4, 3))  # C/a = 1
@example((2, 0, -2, 1))  # C/a = -1
def test_hermite_split_of_any_positive_determinant(M):
    A, B, C, D = M
    assume(A * D - B * C > 0)
    _assert_split(M)


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
        built = dict(vars(space))
        for Q in hall_divisors(N)[1:]:
            space.al_trace_cuspidal(Q)
        assert len(calls) == 1
        after = dict(vars(space))
        assert after.pop("_trace_cache") is built.pop("_trace_cache")
        assert after.keys() == built.keys()
        assert all(after[k] is built[k] for k in built)


@pytest.mark.parametrize("dups,den,tr", [(0, 3, "-7/3"), (1, 1, "-2"), (8, 1, "-9")])
def test_trace_checks_raise(dups, den, tr):
    # at N = 60, w_4 has diagonal 2 on M2+ and fixes 4 of the 12 cusp orbits,
    # so tr+ = -1 with genus 7.  Each case breaks one check: the rows read
    # over den = 3 give a diagonal of 2/3 and no integer, one more fixed
    # orbit gives -2 (the wrong parity), eight more give -9 (parity right,
    # size above the genus).
    space = ModSymSpace(60)
    mat = space.al_matrix(4)
    fixed = [
        c for c in space.cusps
        if modsym._cusp_orbit(60, space._moebius(mat, c)) == modsym._cusp_orbit(60, c)
    ]
    assert len(fixed) == 4 and space.genus == 7
    space.cusps += (fixed[0],) * dups
    space.den = den
    with pytest.raises(modsym.IntegrityError, match=f"trace {tr} of w_4"):
        space.al_trace_cuspidal(4)
    assert space._trace_cache == {}


def test_trace_compares_only_cusps_w_q_can_fix():
    # w_Q sends a cusp p/q of level d = gcd(q, N) to one of level
    # d*Q/gcd(d, Q)^2, so only orbits with gcd(q, N, Q)^2 = Q can be fixed.
    # The orbits fixed by the full scan must lie there, agree in number with
    # the pairwise criterion, and be the only cusps a trace maps.
    orbit = modsym._cusp_orbit
    count = 0
    for N in [*range(1, 301), 720, 756, 792, 840, 1000, 1088, 2310]:
        space = build_space(N)
        for Q in hall_divisors(N)[1:]:
            mat = space.al_matrix(Q)
            images = [space._moebius(mat, c) for c in space.cusps]
            fixed = [c for c, im in zip(space.cusps, images) if orbit(N, im) == orbit(N, c)]
            assert all(gcd(q, N, Q) ** 2 == Q for _, q in fixed), (N, Q)
            if isqrt(Q) ** 2 != Q:
                assert not fixed, (N, Q)
            assert len(fixed) == sum(
                _plus_equiv(N, im, c) for c, im in zip(space.cusps, images)
            ), (N, Q)
            count += len(fixed)
            # a copy with an empty trace cache and a recording Moebius map
            fresh = copy.copy(space)
            fresh._trace_cache = {}
            mapped = []
            fresh._moebius = lambda m, c: mapped.append(c) or ModSymSpace._moebius(m, c)
            assert fresh.al_trace_cuspidal(Q) == space.al_trace_cuspidal(Q), (N, Q)
            assert mapped == [c for c in space.cusps if gcd(c[1], N, Q) ** 2 == Q], (N, Q)
    assert count > 0


def test_build_and_traces_read_the_lookup_list_inline(monkeypatch):
    calls = []
    look = ModSymSpace.p1_index

    def counting_look(self, c, d):
        calls.append((c, d))
        return look(self, c, d)

    for N in (420, 840):
        monkeypatch.setattr(ModSymSpace, "p1_index", counting_look)
        space = ModSymSpace(N)
        for Q in hall_divisors(N)[1:]:
            space.al_trace_cuspidal(Q)
        assert calls == [], N
        monkeypatch.undo()
        for i, (c, d) in enumerate(oracles.reps(space)):
            assert space.p1_index(c, d) == i, (N, i)
        with pytest.raises(ValueError):
            space.p1_index(2, 4)


def test_identity_operator():
    for space in (FullSpace(40), build_space(40)):
        op = oracles.al_operator(space, 1)
        k = len(op)
        assert k == oracles.cuspidal_dim(space)
        assert all(op[i][j] == (1 if i == j else 0) for i in range(k) for j in range(k))


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
    # int() once read the generator 4.5 as 4, so this returned 3
    with pytest.raises(ValueError, match="w4.5 is not an Atkin-Lehner involution"):
        invariant_genus(60, (4.5,))
    assert invariant_genus(120, (15,)) == 5
    assert invariant_genus(40, (40,)) == 1
    assert invariant_genus(60) == genus_x0(60)


def test_invariant_genus_monotone():
    for N in (60, 84, 120):
        gtop = invariant_genus(N, (hall_divisors(N)[1],))
        assert invariant_genus(N, hall_divisors(N)[1:2] + hall_divisors(N)[2:3]) <= gtop


@pytest.mark.parametrize("N,W", [(60, (4, 3)), (88, (8,)), (126, (9,)), (120, (8, 15))])
def test_trace_route_matches_eigenspace_route(N, W):
    # the +1-eigenspaces on all of M2 and on M2+ give the same genus
    g = invariant_genus(N, W)
    assert g == oracles.invariant_genus_eigenspace(FullSpace(N), W)
    assert g == oracles.invariant_genus_eigenspace(build_space(N), W)


def test_invariant_dims_even():
    for N in (44, 60, 90, 126):
        for Q in hall_divisors(N)[1:]:
            tr = build_space(N).al_trace_cuspidal(Q)
            assert (2 * genus_x0(N) + tr) % 2 == 0


def test_space_report():
    full = FullSpace(60)
    assert len(full.rep_g) == 144
    assert full.dim == 2 * 7 + 12 - 1
    assert len(full.cusps) == 12
    assert len(oracles.cuspidal_basis(full)) == 14
    space = build_space(60)
    assert oracles.reps(space) == oracles.reps(full)
    assert cusp_count_plus(60) == 12
    assert space.dim == 7 + cusp_count_plus(60) - 1
    assert len(space.cusps) == cusp_count_plus(60)
    assert len(oracles.cuspidal_basis(space)) == 7
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
    # private space cache keeps the session's spaces built.  The package
    # exports it, under a second name only
    assert bielliptic.clear_caches is modsym.clear_cache
    cache = {11: ModSymSpace(11)}
    monkeypatch.setattr(modsym, "_CACHE", cache)
    fix_al(11, 11)
    all_subgroups(12)
    quotient_genus_hurwitz(12, group_closure(12, [4]))
    quotient_genus_hurwitz(12, ALSubgroup(12, [4]))
    atlas._search(12, ALSubgroup(12, [4]))
    atlas.hyperelliptic_pairs()
    atlas.witness_annotations()
    atlas.default_ec_table()
    atlas.default_adjudications()
    atlas.enumerate_pairs()
    star_gate(12)
    cli._parser()
    assert all(_MEMO_TABLES.values())
    modsym.clear_cache()
    assert cache == {}
    assert not any(_MEMO_TABLES.values())
    assert genus_x0(11) == 1
    assert list(_MEMO_TABLES["bielliptic.x0invariants.genus_x0"]) == [(11,)]


def test_rebuild_is_identical():
    # two independent builds give the same basis, expressions and traces,
    # on M2+ and on all of M2
    for build in (ModSymSpace, FullSpace):
        a = build(90)
        b = build(90)
        assert a.free == b.free
        assert [oracles.point_expression(a, i) for i in range(len(a.rep_g))] == [
            oracles.point_expression(b, i) for i in range(len(b.rep_g))
        ]
        assert oracles.cuspidal_basis(a) == oracles.cuspidal_basis(b)
        for Q in hall_divisors(90)[1:]:
            assert oracles.full_trace(a, Q) == oracles.full_trace(b, Q)
    for Q in hall_divisors(90)[1:]:
        assert ModSymSpace(90).al_trace_cuspidal(Q) == build_space(90).al_trace_cuspidal(Q)
