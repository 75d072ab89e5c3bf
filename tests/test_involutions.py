from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bielliptic import atlas, cli, involutions, modsym, screening
from bielliptic.errors import OrderViolation
from bielliptic.involutions import (
    ExtInvolution,
    _involution_table,
    fix_al,
    fix_count,
    fix_table_tsv,
    group_closure,
    level_involutions,
    parse_element,
    quotient_genus_hurwitz,
)
from bielliptic.modsym import invariant_genus
from bielliptic.ntheory import _MEMO_TABLES, ALSubgroup, all_subgroups, hall_divisors
from bielliptic.x0invariants import genus_x0

from oracles import (
    closure_by_compose, cm_fix_oracle, compose_reference, hurwitz_genus_reference,
)


def test_fix_al_examples():
    assert fix_al(120, 15) == 16
    assert fix_al(252, 63) == 24
    assert fix_al(176, 176) == 12
    assert fix_al(126, 9) == 0
    with pytest.raises(ValueError):
        fix_al(120, 7)
    with pytest.raises(ValueError):
        fix_al(120, 1)


def _fix_s2(N):
    """#(S2, X0(N)) from the genera: (2g(N) - 2) - 2(2g(N/2) - 2)."""
    return (2 * genus_x0(N) - 2) - 2 * (2 * genus_x0(N // 2) - 2)


def test_fix_s2_examples():
    assert fix_count(ExtInvolution.s2(120)) == _fix_s2(120) == 8
    assert fix_count(ExtInvolution.s2(44)) == _fix_s2(44) == 2
    assert fix_count(ExtInvolution.s2(60)) == _fix_s2(60) == 4
    with pytest.raises(ValueError):
        ExtInvolution.s2(30)


def test_fix_s2_wr_examples():
    s2 = ExtInvolution.s2
    assert fix_count(s2(120, 15)) == 2 * fix_al(60, 15) - fix_al(120, 15) == 8
    assert fix_count(s2(44, 11)) == 2 * fix_al(22, 11) - fix_al(44, 11)
    assert fix_count(s2(120, 1)) == fix_count(s2(120))
    with pytest.raises(ValueError):
        s2(120, 8)


def test_fix_v2_examples():
    v2 = ExtInvolution.v2
    assert fix_count(v2(120, 1)) == 0
    assert fix_count(v2(120, 3)) == 8
    assert fix_count(v2(176, 11)) == 12
    assert fix_count(v2(120, 15)) == fix_al(120, 120)


def test_fix_v2_w2a_examples():
    v2 = ExtInvolution.v2
    assert fix_count(v2(120, 40)) == 16
    assert fix_count(v2(120, 8)) == 0
    assert fix_count(v2(176, 16)) == 4
    with pytest.raises(OrderViolation):
        v2(60, 4)  # 4 || 60, so V2*w4 has order 3


def test_fix_v3_examples():
    v3 = ExtInvolution.v3
    assert fix_count(v3(252, 7)) == 24
    assert fix_count(v3(252, 4)) == fix_al(252, 36) == 0
    assert fix_count(v3(126, 7)) == 16
    assert fix_count(v3(126, 63)) == 16
    assert fix_count(v3(126, 9)) == fix_count(v3(126, 1)) == 0
    with pytest.raises(OrderViolation):
        v3(126, 2)  # 2 = 2 mod 3
    with pytest.raises(ValueError):
        v3(120, 1)  # 9 does not divide 120


def test_conjugate_counts_match():
    # S2 and w_{2^a} S2 w_{2^a} have the same counts; V3 multiples of w9 too
    for N in (88, 120, 176):
        s2 = ExtInvolution.s2(N)
        s2c = ExtInvolution.s2_conj(N)
        assert fix_count(s2) == fix_count(s2c) == _fix_s2(N)
    v3 = ExtInvolution.v3
    assert fix_count(v3(126, 9)) == fix_count(v3(126, 1))
    assert fix_count(v3(252, 63)) == fix_count(v3(252, 7))


def _table_product(N, a, b):
    """The entry of a*b in the level's involution table, for two names: the
    product, or the (rule, message) of its refusal."""
    table = _involution_table(N)
    entry = table.products[table.position(a)][table.position(b)]
    return table.elements[entry] if type(entry) is int else entry


def test_compose_al():
    assert _table_product(60, "w4", "w12").name == "w3"
    assert _table_product(60, "w4", "w4").is_identity


def test_compose_v3_rules():
    assert _table_product(126, "V3", "w9").name == "V3*w9"
    assert _table_product(126, "V3", "w2") == (
        "v3-tail-2-mod-3", "V3 * w2 has order 4 at level 126",
    )
    assert _table_product(126, "w2", "V3") == (
        "v3-tail-2-mod-3", "w2 * V3 has order 4 at level 126",
    )


def test_compose_s2_family():
    # S2 w8 has order 4
    assert _table_product(120, "S2", "w8") == (
        "two-part-rotation", "S2 * w8 has order > 2 at level 120",
    )
    assert _table_product(120, "V2", "w8").name == "V2*w8"
    assert _table_product(120, "S2", "S2C").name == "V2*w8"
    # at 2^2 || N the group <S2, w4> is not abelian
    assert _table_product(60, "V2", "w4") == (
        "two-part-rotation", "V2 * w4 has order > 2 at level 60",
    )
    # S2 and V3 together have no rule
    assert _table_product(72, "V3", "S2") == (
        "s2-v3-mix", "no composition rule for S2 across V3 (level 72)",
    )


def test_s2_conj_collapses_at_alpha_2():
    # w4 S2 w4 = S2 w4 S2 = V2 when 4 exactly divides N
    assert ExtInvolution.s2_conj(60) == ExtInvolution.v2(60)


def test_parse_element():
    assert parse_element(120, "V2*w40").name == "V2*w40"
    assert parse_element(120, "S2").name == "S2"
    assert parse_element(252, "V3*w7").name == "V3*w7"
    assert parse_element(120, "w15").name == "w15"
    with pytest.raises(ValueError):
        parse_element(120, "V9*w2")
    # w tokens are decimal digits only, as in ALSubgroup.parse
    for text in ("w1_2", "w+4", "S2*w+3", "w", "S2*3", "w 15"):
        with pytest.raises(ValueError, match="bad Atkin-Lehner token"):
            parse_element(60, text)
    with pytest.raises(ValueError, match="level 0 is not positive"):
        parse_element(0, "w1")


def _names(group):
    return tuple(e.name for e in group)


def test_group_closure_examples():
    # the closed group's elements in table order, identity first
    G = group_closure(126, ["w9", "V3*w7"])
    assert _names(G) == ("id", "w9", "V3*w7", "V3*w63")
    G = group_closure(120, ["w15", "S2"])
    assert _names(G) == ("id", "w15", "S2", "S2*w15")
    G = group_closure(252, ["w4", "w63", "V3"])
    assert _names(G) == ("id", "w4", "w63", "w252", "V3", "V3*w4", "V3*w63", "V3*w252")
    assert group_closure(12, ["w12", "w4"]) == group_closure(12, ["w3", "w4"])
    assert _names(group_closure(12, ["w12", "w4"])) == ("id", "w3", "w4", "w12")


def test_group_closure_rejections():
    with pytest.raises(OrderViolation):
        group_closure(60, ["S2", "w4"])
    with pytest.raises(OrderViolation):
        group_closure(126, ["V3", "w2"])
    with pytest.raises(OrderViolation):
        group_closure(252, ["S2", "V3"])


def test_group_closure_rejects_a_float_generator():
    # it once reached the generator's missing .level: AttributeError
    with pytest.raises(ValueError, match="w4.0 is not an Atkin-Lehner involution"):
        group_closure(60, [4.0])


@pytest.mark.parametrize("make", [
    ExtInvolution.al, ExtInvolution.s2, ExtInvolution.v2, ExtInvolution.v3,
])
def test_constructors_reject_a_float_tail(make):
    # V2 once shifted the float 72.0 and raised TypeError
    with pytest.raises(ValueError, match="72.0"):
        make(360, 72.0)


def _saturation_closure(N, generators):
    """Closure by saturation: multiply every pair of elements with
    `compose_reference` and repeat until nothing new appears.  Reference for
    the doubling in group_closure."""
    elems = {ExtInvolution.identity(N), *generators}
    changed = True
    while changed:
        changed = False
        for a in list(elems):
            for b in list(elems):
                c = compose_reference(a, b)
                if c not in elems:
                    elems.add(c)
                    changed = True
    return frozenset(elems)


def _closure_outcome(closure, N, generators):
    try:
        return closure(N, generators)
    except OrderViolation:
        return "order-violation"


def _product(a, b):
    try:
        return compose_reference(a, b)
    except OrderViolation:
        return None


@pytest.mark.parametrize("N", [0, -4])
@pytest.mark.parametrize("make", [
    ExtInvolution.identity,
    lambda N: ExtInvolution.al(N, 1),
    ExtInvolution.s2,
    ExtInvolution.s2_conj,
    ExtInvolution.v2,
    ExtInvolution.v3,
    lambda N: group_closure(N, [1]),
    lambda N: group_closure(N, []),
])
def test_level_below_one_is_rejected(N, make):
    # level 0 once sent _two_alpha into an endless loop, so the call runs in
    # a worker thread that must finish within the timeout
    import threading

    outcome = []

    def work():
        try:
            make(N)
        except ValueError as exc:
            outcome.append(str(exc))

    worker = threading.Thread(target=work, daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive(), f"level {N} still running after 5 s"
    assert outcome == [f"level {N} is not positive"]


def test_group_closure_matches_saturation():
    # doubling and saturation agree on every witness-search input: each
    # subgroup's generators plus one candidate, and every pair of candidates
    from bielliptic.atlas import scope_levels

    def doubling(N, gens):
        return frozenset(group_closure(N, gens))

    cases = 0
    for N in scope_levels():
        cands = level_involutions(N)
        inputs = [
            [ExtInvolution.al(N, d) for d in sub.generators()] + [v]
            for sub in all_subgroups(N)
            for v in cands
        ]
        inputs += [[u, v] for i, u in enumerate(cands) for v in cands[i + 1:]]
        for gens in inputs:
            assert _closure_outcome(doubling, N, gens) == _closure_outcome(
                _saturation_closure, N, gens
            ), (N, [g.name for g in gens])
        cases += len(inputs)
    assert cases == 16689


# the scope levels plus 2-power and 3-power levels the classification skips
TABLE_LEVELS = sorted({*atlas.scope_levels(), 8, 16, 32, 36, 72, 144})


def _accepted_elements(N):
    """Every element a public constructor or `parse_element` accepts at N,
    with any Hall divisor as the tail."""
    halls = hall_divisors(N)
    attempts = [lambda: ExtInvolution.identity(N), lambda: parse_element(N, "id")]
    for d in halls:
        for make in (ExtInvolution.al, ExtInvolution.s2, ExtInvolution.s2_conj,
                     ExtInvolution.v2, ExtInvolution.v3):
            attempts.append(lambda make=make, d=d: make(N, d))
        for text in (f"w{d}", f"S2*w{d}", f"S2C*w{d}", f"V2*w{d}", f"V3*w{d}"):
            attempts.append(lambda text=text: parse_element(N, text))
    for text in ("S2", "S2C", "V2", "V3"):
        attempts.append(lambda text=text: parse_element(N, text))
    accepted = []
    for attempt in attempts:
        try:
            accepted.append(attempt())
        except ValueError:  # OrderViolation included
            pass
    return accepted


def _table_outcomes(table):
    """Check every ordered entry of a level's table against the reference
    compose: the entry holds the product's index, or the rule and message of
    the reference's OrderViolation.  Counts the outcomes."""
    outcomes = Counter()
    elems = table.elements
    N = table.level
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            entry = table.products[i][j]
            try:
                c = compose_reference(a, b)
            except OrderViolation as exc:
                assert entry == (exc.rule, str(exc)), (N, a.name, b.name)
                outcomes[exc.rule] += 1
            else:
                assert type(entry) is int and elems[entry] == c, (N, a.name, b.name)
                outcomes["product"] += 1
    return outcomes


def test_involution_table_matches_compose():
    # every ordered pair of the identity and level_involutions(N): the table
    # holds the reference compose's product, or the rule and message of its
    # OrderViolation
    products = accepted = 0
    for N in TABLE_LEVELS:
        table = _involution_table(N)
        elems = table.elements
        assert list(elems) == [ExtInvolution.identity(N), *level_involutions(N)]
        products += sum(_table_outcomes(table).values())
        for e in _accepted_elements(N):
            assert elems[table.position(e)] == e, (N, e.name)
            accepted += 1
    assert (products, accepted) == (14980, 2828)


def test_involution_table_at_its_largest_levels():
    # 8 | N and 9 || N, so S2, S2C, V2 and V3 words all occur: the table is
    # filled once per unordered pair, and each ordered entry still holds the
    # reference compose's product or the rule and message of its own
    # OrderViolation
    outcomes = Counter()
    for N in (360, 720, 1008, 2520):
        table = _involution_table(N)
        assert {e.kind for e in table.elements} == {"id", "al", "s2", "s2c", "v2", "v3"}, N
        outcomes += _table_outcomes(table)
    assert outcomes == {
        "product": 3616, "two-part-rotation": 1024, "s2-v3-mix": 896, "v3-tail-2-mod-3": 192,
    }


def _cold_classify():
    """A classification from empty caches; returns the memo tables of the
    levels' involution tables and of the witness searches it filled."""
    modsym.clear_cache()
    atlas.classify_all()
    return (
        _MEMO_TABLES["bielliptic.involutions._involution_table"],
        _MEMO_TABLES["bielliptic.atlas._search"],
    )


def test_classify_tables_match_compose_reference():
    # each table a classification builds, squarefree w4-reduction levels
    # included, agrees entry by entry with the reference compose
    tables, _ = _cold_classify()
    assert len(tables) == 67
    outcomes = Counter()
    for table in tables.values():
        outcomes += _table_outcomes(table)
    assert outcomes == {
        "product": 6592, "two-part-rotation": 2176, "v3-tail-2-mod-3": 192, "s2-v3-mix": 176,
    }


def test_search_matches_compose_doubling():
    # each witness search of a classification, which closes W once and adds
    # one coset per candidate, lists the candidates outside W in order with
    # the mask of the group that doubling with the reference compose gives
    # and the genus the written-out Hurwitz equation gives, and refuses
    # exactly where that doubling raises
    _, searches = _cold_classify()
    assert len(searches) == 337
    outcomes = Counter()
    for (N, sub), found in searches.items():
        table = _involution_table(N)
        gens = list(sub.generators())
        want = []
        for v in level_involutions(N):
            if v.kind == "al" and v._al_part() in sub:
                continue
            try:
                G = closure_by_compose(N, gens + [v])
            except OrderViolation as exc:
                want.append((v, None, None))
                outcomes[exc.rule] += 1
                continue
            want.append((v, G, hurwitz_genus_reference(N, G)))
            outcomes["closed"] += 1
        got = [
            (v, None if mask is None else frozenset(table.members(mask)), h)
            for v, mask, h in found
        ]
        assert got == want, (N, sub.label())
    assert outcomes == {"closed": 2427, "two-part-rotation": 1060, "v3-tail-2-mod-3": 216}


def test_group_closure_matches_compose_doubling():
    # every candidate group of the witness search: the table and bitmask
    # closure spans the same elements, or raises the same OrderViolation
    outcomes = Counter()
    for N, sub in atlas.enumerate_pairs():
        for v in level_involutions(N):
            if v.kind == "al" and v._al_part() in sub:
                continue
            gens = list(sub.generators()) + [v]
            try:
                want = closure_by_compose(N, gens)
            except OrderViolation as exc:
                with pytest.raises(OrderViolation) as got:
                    group_closure(N, gens)
                assert (got.value.rule, str(got.value)) == (exc.rule, str(exc))
                outcomes[exc.rule] += 1
                continue
            assert frozenset(group_closure(N, gens)) == want, (N, sub.label(), v.name)
            outcomes["closed"] += 1
    assert outcomes == {"closed": 4354, "two-part-rotation": 1832, "v3-tail-2-mod-3": 384}


def test_group_closure_counts_each_mask_once(monkeypatch):
    # a closed group is its mask on the level's table, and the table keeps
    # each mask's Hurwitz genus: fix_count runs once per nontrivial element,
    # and the members of a closed group span that group again
    monkeypatch.setattr(modsym, "_CACHE", {})
    modsym.clear_cache()
    counted = []
    real_fix_count = involutions.fix_count

    def counting_fix_count(elem):
        counted.append(elem)
        return real_fix_count(elem)

    monkeypatch.setattr(involutions, "fix_count", counting_fix_count)
    G = group_closure(126, ["w9", "V3*w7"])
    assert group_closure(126, ["V3*w7", "w9"]) == group_closure(126, G) == G
    assert quotient_genus_hurwitz(126, G) == 1
    assert counted == list(G[1:]) and len(counted) == 3
    assert quotient_genus_hurwitz(126, ["w9", "V3*w7"]) == 1
    assert quotient_genus_hurwitz(126, G) == 1
    assert len(counted) == 3
    modsym.clear_cache()
    assert group_closure(126, ["w9", "V3*w7"]) == G


def _core_calls(table):
    """n(n+1)/2 runs of the rules for the pairs i <= j, plus one reverse run
    for each pair i < j whose product was refused."""
    n = len(table.elements)
    raised = sum(
        type(table.products[i][j]) is not int for i in range(n) for j in range(i + 1, n)
    )
    return n * (n + 1) // 2 + raised


def test_classify_composes_only_to_build_tables(monkeypatch):
    # a cold classify runs the composition rules on each unordered pair of
    # each level's table, diagonal included, and again in the reverse order
    # only where the first run refuses; a warm one runs them not at all.
    # Each witness search closes W once and
    # extends it by one coset per candidate; a refused candidate raises no
    # OrderViolation.  The searches are memoised, so the warm pass closes
    # and extends nothing, and clear_cache() drops the tables.  The cold
    # pass builds 115 spaces and caches 491 traces and the warm one adds
    # none: the state perfbench's classify guards assume.  The tables count
    # each element's fixed points at most once, and a warm pass not at all.
    # A witness keeps its group as a mask on its level's table: a closed
    # mask of genus 1, which its members close to again.
    ruled = []
    fixed = []
    closes = []
    extensions = []
    refusals = Counter()
    closing = []
    table_cls = involutions._InvolutionTable
    real_core = involutions._compose_fields
    real_close, real_extend = table_cls.close, table_cls.extend

    def counting_core(rules, a, b):
        ruled.append(rules[0])
        return real_core(rules, a, b)

    def counting_close(table, gens):
        closes.append(table.level)
        closing.append(table.level)
        try:
            return real_close(table, gens)
        finally:
            closing.pop()

    def counting_extend(table, elems, mask, g):
        grown = real_extend(table, elems, mask, g)
        if not closing:
            extensions.append(table.level)
            if type(grown[0]) is str:
                refusals[grown[0]] += 1
        return grown

    real_fix_count = involutions.fix_count

    def counting_fix_count(elem):
        fixed.append(elem)
        return real_fix_count(elem)

    monkeypatch.setattr(involutions, "_compose_fields", counting_core)
    monkeypatch.setattr(involutions, "fix_count", counting_fix_count)
    monkeypatch.setattr(table_cls, "close", counting_close)
    monkeypatch.setattr(table_cls, "extend", counting_extend)
    tables = _MEMO_TABLES["bielliptic.involutions._involution_table"]
    traces = []
    real_trace = modsym.ModSymSpace.al_trace_cuspidal

    def counting_trace(space, Q):
        traces.append((space.N, Q))
        return real_trace(space, Q)

    monkeypatch.setattr(modsym.ModSymSpace, "al_trace_cuspidal", counting_trace)

    def cached():
        spaces = modsym._CACHE.values()
        return len(spaces), sum(len(space._trace_cache) for space in spaces)

    modsym.clear_cache()
    records = atlas.classify_all()
    assert len(ruled) == sum(map(_core_calls, tables.values()))
    assert sum(len(table.elements) - 1 for table in tables.values()) == 645
    assert len(set(fixed)) == len(fixed) == 621
    assert (len(tables), len(ruled)) == (67, 6196)
    assert len(closes) == len(_MEMO_TABLES["bielliptic.atlas._search"]) == 337
    assert len(extensions) == 3703
    assert refusals == {"two-part-rotation": 1060, "v3-tail-2-mod-3": 216}
    assert cached() == (115, 491)
    # the space's trace cache is the one store of a trace
    assert len(set(traces)) == 491
    for site in (atlas, screening, cli):
        assert not hasattr(site, "modsym"), site.__name__
        assert not any(
            getattr(value, "__module__", None) == modsym.__name__
            for value in vars(site).values()
        ), site.__name__
    witnesses = [rec.witness for rec in records if rec.witness]
    assert (len(witnesses), sum(bool(w.chain) for w in witnesses)) == (124, 4)
    for w in witnesses:
        table = tables[(w.level,)]
        assert table.genera[w.mask] == 1, (w.level, w.mask)
        assert table.close([table.position(e) for e in w.group])[1] == w.mask

    for counts in (ruled, closes, extensions, refusals, traces, fixed):
        counts.clear()
    atlas.classify_all()
    assert ruled == []
    assert fixed == []
    assert closes == []
    assert extensions == []
    assert refusals == {}
    # every trace the warm pass reads is a cache hit: no space, no trace added
    assert cached() == (115, 491)

    modsym.clear_cache()
    for name in ("_involution_table", "_subgroup_genus"):
        assert _MEMO_TABLES[f"bielliptic.involutions.{name}"] == {}, name
    assert _MEMO_TABLES["bielliptic.atlas._search"] == {}


def test_table_and_subgroup_genus_stores_agree():
    # two stores hold a Hurwitz genus: each level's involution table by
    # closed mask, and `_subgroup_genus` by Atkin-Lehner subgroup, each summed
    # from fix_al on its own.  After a cold classify, 286 table masks span
    # only w_d's and 223 of those groups are also memo keys; both stores
    # must give each of them the same genus.
    modsym.clear_cache()
    atlas.classify_all()
    tables = _MEMO_TABLES["bielliptic.involutions._involution_table"]
    memo = {key[0]: h for key, h in _MEMO_TABLES["bielliptic.involutions._subgroup_genus"].items()}
    al_only = shared = 0
    for (N,), table in tables.items():
        for mask, h in table.genera.items():
            elems = [e for i, e in enumerate(table.elements) if mask >> i & 1]
            if any(e.kind not in ("id", "al") for e in elems):
                continue
            al_only += 1
            sub = ALSubgroup(N, [e._al_part() for e in elems])
            assert sub.order == len(elems), (N, sub.label())
            if sub in memo:
                shared += 1
                assert memo[sub] == h, (N, sub.label())
    assert (al_only, shared) == (286, 223)


def test_compose_is_commutative_and_associative():
    # what doubling relies on: uv = vu, and (uv)w = u(vw) whenever both sides
    # exist, over every involution the search tries plus the identity
    from bielliptic.atlas import scope_levels

    pairs = triples = 0
    for N in scope_levels():
        cands = level_involutions(N)
        elems = [ExtInvolution.identity(N)] + cands
        products = {(u, v): _product(u, v) for u in elems for v in elems}
        for u in cands:
            for v in cands:
                assert products[u, v] == products[v, u], (N, u.name, v.name)
        pairs += len(cands) ** 2
        for (u, v), uv in products.items():
            if uv is None:
                continue
            for w in elems:
                vw = products[v, w]
                if vw is None:
                    continue
                left, right = _product(uv, w), _product(u, vw)
                if left is None or right is None:
                    continue
                assert left == right, (N, u.name, v.name, w.name)
                triples += 1
    assert (pairs, triples) == (12814, 111632)


def test_level_involutions_are_distinct_and_ordered():
    # w_d first, then the S2 family, then V3; 4 || 60 folds S2C into V2
    names = [e.name for e in level_involutions(60)]
    assert names == [
        "w3", "w4", "w5", "w12", "w15", "w20", "w60",
        "S2", "S2*w3", "S2*w5", "S2*w15", "V2", "V2*w3", "V2*w5", "V2*w15",
    ]
    for N in (120, 126, 252, 360, 558):
        elems = level_involutions(N)
        assert len(set(elems)) == len(elems)
        assert all(not e.is_identity for e in elems)


def test_quotient_genus_examples():
    assert quotient_genus_hurwitz(126, ["w9", "V3*w7"]) == 1
    assert quotient_genus_hurwitz(120, ["w15", "S2"]) == 1
    assert quotient_genus_hurwitz(252, ["w4", "w63", "V3"]) == 1
    assert quotient_genus_hurwitz(126, ["w63", "V3"]) == 1
    assert quotient_genus_hurwitz(126, ["w9", "V3"]) == 5


def test_quotient_genus_refuses_a_foreign_generator():
    # a generator must be an involution of the level's table; a closed
    # group's members, identity first, span that group again
    G = group_closure(60, ["w4", "w3"])
    assert quotient_genus_hurwitz(60, G) == quotient_genus_hurwitz(60, ["w4", "w3"])
    assert quotient_genus_hurwitz(60, group_closure(60, ["w4"])) == 3
    identity = ExtInvolution.identity(60)
    with pytest.raises(ValueError, match="is not an involution of level 60"):
        quotient_genus_hurwitz(60, [identity, ExtInvolution(60, (0, 0), 0, 7)])
    for gens in ([identity, ExtInvolution.al(120, 3)], group_closure(120, ["w8"])):
        with pytest.raises(ValueError, match="generator level mismatch"):
            quotient_genus_hurwitz(60, gens)
    with pytest.raises(ValueError, match="w7 is not an Atkin-Lehner involution"):
        quotient_genus_hurwitz(60, [3, 7])


def test_hurwitz_matches_modsym_on_al_groups(classification):
    # Hurwitz route equals the invariant-dimension route on every Atkin-Lehner
    # subgroup of every level in scope, closed as an involution group (the
    # caches are warm at this point); and, taken over an ALSubgroup, on every
    # subgroup at every N <= 300 and at N = 840, squarefree and out-of-scope
    # levels included
    from bielliptic.atlas import scope_levels
    from bielliptic.ntheory import ALSubgroup, all_subgroups

    checked = 0
    for N in scope_levels():
        if genus_x0(N) < 2:
            continue
        for sub in all_subgroups(N):
            if sub.is_trivial:
                continue
            gens = [f"w{d}" for d in sub.generators()]
            assert quotient_genus_hurwitz(N, gens) == invariant_genus(N, sub), (
                N, sub.label(),
            )
            checked += 1
    assert checked > 700

    checked = 0
    for N in [*range(1, 301), 840]:
        for sub in all_subgroups(N):
            assert quotient_genus_hurwitz(N, sub) == invariant_genus(N, sub), (
                N, sub.label(),
            )
            checked += 1
    assert checked == 2015
    with pytest.raises(ValueError):
        quotient_genus_hurwitz(60, ALSubgroup(120, [8]))


def test_commuting_product_identity():
    # #(uv, X) = 2 #(u, X/v) - #(u, X) on the S2/V2 recursion, both sides
    # computed independently
    for N in (88, 104, 120, 176):
        for r in [r for r in hall_divisors(N) if r % 2 == 1 and r > 1]:
            lhs = fix_count(ExtInvolution.s2(N, r))
            assert lhs == 2 * fix_al(N // 2, r) - fix_al(N, r)


def test_fix_table_tsv():
    text = fix_table_tsv(252)
    lines = text.splitlines()
    assert lines[0] == "element\tcount"
    table = dict(line.split("\t") for line in lines[1:])
    assert table["V3*w7"] == "24"
    assert table["w63"] == "24"
    assert table["S2"] == str(_fix_s2(252))


def test_fix_counts_against_cm_oracle(classification):
    # the modular-symbols route agrees with the class-number route on every
    # Atkin-Lehner involution of every squarefree level up to 200
    from bielliptic.ntheory import factor

    checked = 0
    for N in range(5, 201):
        if not factor(N).is_squarefree:
            continue
        for Q in hall_divisors(N)[1:]:
            assert fix_al(N, Q) == cm_fix_oracle(N, Q), (N, Q)
            checked += 1
    assert checked == 345


def test_fricke_crosscheck_examples():
    # the CM count at Q = N is h(-4N), plus h(-N) when N = 3 (mod 4)
    assert cm_fix_oracle(15, 15) == 4 == fix_al(15, 15)
    assert cm_fix_oracle(11, 11) == 4 == fix_al(11, 11)
    assert cm_fix_oracle(21, 21) == fix_al(21, 21)
    with pytest.raises(ValueError):
        cm_fix_oracle(12, 12)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([44, 60, 88, 90, 120, 126, 176, 252]),
    st.data(),
)
def test_hurwitz_always_integral(N, data):
    # random valid generator sets always give an exact integer genus
    pool = [f"w{d}" for d in hall_divisors(N)[1:]]
    if N % 4 == 0:
        pool += ["S2", "V2"]
    if N % 9 == 0 and (N // 9) % 3:
        pool += ["V3"]
    gens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    try:
        G = group_closure(N, gens)
    except OrderViolation:
        return
    h = quotient_genus_hurwitz(N, G)  # raises IntegrityError on non-integrality
    assert h >= 0


def _closed_masks(table):
    """The bitmask of every group of commuting involutions in a level's table:
    from the trivial group, each group grows by one coset for every element
    outside it, and a coset with a refused product spans no group."""
    masks = {1}
    todo = [([0], 1)]
    while todo:
        elems, mask = todo.pop()
        for g in range(len(table.elements)):
            if mask >> g & 1:
                continue
            grown = table.extend(elems, mask, g)
            if type(grown[0]) is not str and grown[1] not in masks:
                masks.add(grown[1])
                todo.append(grown)
    return masks


def test_every_involution_group_of_the_scope_levels_has_a_hurwitz_genus():
    # every elementary abelian group of each scope level's involution table
    # that holds an element outside the Atkin-Lehner ones (S2*w_r, V2*w_r or
    # V3*w_d): its Hurwitz count, from `fix_count`, must be an integer
    # h >= 0 (`_hurwitz` raises otherwise), and the table's per-mask genus
    # must equal the written-out equation's.  A cold classify reaches about
    # a quarter of these groups, so a wrong count has more equations to break.
    levels = groups = genus2 = 0
    for N in atlas.scope_levels():
        table = _involution_table(N)
        al = sum(1 << i for i, e in enumerate(table.elements) if e.kind in ("id", "al"))
        other = [mask for mask in _closed_masks(table) if mask & ~al]
        levels += bool(other)
        groups += len(other)
        for mask in other:
            h = table.genus(mask)
            elements = [e for i, e in enumerate(table.elements) if mask >> i & 1]
            assert h == hurwitz_genus_reference(N, elements) >= 0, (N, mask)
            genus2 += h >= 2
    assert (levels, groups, genus2) == (82, 1802, 1500)
