import ast
import hashlib
import inspect

import pytest

from bielliptic import screening
from bielliptic.atlas import classify_pair
from bielliptic.modsym import invariant_genus
from bielliptic.ntheory import ALSubgroup
from bielliptic.screening import (
    GATE_BIELLIPTIC,
    GATE_GENUS0,
    GATE_GENUS1,
    GATE_GENUS2,
    GATE_HYPERELLIPTIC,
    iso_reduce_w4,
    rule_castelnuovo,
    rule_fixed_point_closure,
    rule_many_fixed_points,
    rule_ogg_bound,
    rule_two_group,
    rule_unramified_cover,
    star_gate,
)

from oracles import iso_reduce_v3


def test_star_gate_examples():
    assert star_gate(56).kind == "genus0"
    assert star_gate(120).kind == "genus1"
    gate = star_gate(176)
    assert gate.kind == "hyperelliptic" and gate.star_genus == 4
    gate = star_gate(88)
    assert gate.kind == "hyperelliptic" and gate.star_genus == 2 and 88 in GATE_BIELLIPTIC
    assert star_gate(558).kind == "bielliptic"
    assert star_gate(244).kind == "fails-gate"


def test_star_gate_standing_hypothesis():
    with pytest.raises(ValueError):
        star_gate(30)  # squarefree
    with pytest.raises(ValueError):
        star_gate(64)  # prime power


def test_star_gate_checksum():
    # guard the embedded level lists against accidental edits
    blob = "|".join([
        ",".join(map(str, sorted(GATE_GENUS0))),
        ",".join(map(str, sorted(GATE_GENUS1))),
        ",".join(map(str, sorted(GATE_GENUS2))),
        ",".join(f"{k}:{v}" for k, v in sorted(GATE_HYPERELLIPTIC.items())),
        ",".join(f"{k}:{v}" for k, v in sorted(GATE_BIELLIPTIC.items())),
    ]).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "68fb73aa36bfb3d19fc21cdccb532d7c3ba35f08f5fd5e1320a76a1ec8858d24"
    )


def test_star_gate_genera_match_engine(classification):
    # every gate level's full-quotient genus is recomputed exactly
    from bielliptic.screening import gate_levels

    for N in gate_levels():
        if N == 420:
            continue
        gate = star_gate(N)
        assert invariant_genus(N, ALSubgroup.full(N)) == gate.star_genus, N


def test_rule_castelnuovo():
    assert rule_castelnuovo(5, 2, 0).verdict == "must-factor"
    assert rule_castelnuovo(11, 4, 1).verdict == "must-factor"
    assert rule_castelnuovo(9, 4, 1).verdict == "consistent"


def test_rule_many_fixed_points():
    assert rule_many_fixed_points(16, False).verdict == "excludes"
    assert rule_many_fixed_points(8, False).verdict == "inconclusive"
    assert rule_many_fixed_points(24, True).verdict == "inconclusive"


def test_rule_unramified_cover():
    assert rule_unramified_cover(6, 2, 2, False).verdict == "excludes"
    assert rule_unramified_cover(9, 4, 3, False).verdict == "inconclusive"
    assert rule_unramified_cover(7, 2, 3, True).verdict == "inconclusive"
    with pytest.raises(ValueError):
        rule_unramified_cover(7, 2, 1, False)


def test_rule_two_group():
    assert rule_two_group(14, 4).verdict == "excludes"
    assert rule_two_group(5, 4).verdict == "inconclusive"
    assert rule_two_group(9, 4).verdict == "inconclusive"


def test_rule_ogg_bound():
    assert rule_ogg_bound(284, 2, 3).verdict == "excludes"
    assert rule_ogg_bound(220, 2, 3).verdict == "excludes"
    assert rule_ogg_bound(40, 2, 3).verdict == "inconclusive"
    with pytest.raises(ValueError):
        rule_ogg_bound(284, 2, 2)  # 2 | 284


def test_rule_boundaries():
    # each rule at the edge of its inequality: equality is not exclusion
    ogg = rule_ogg_bound(122, 1, 3)  # psi(122) (3 - 1) = 372 = 12 (2 * 16 - 1)
    assert ogg.verdict == "inconclusive"
    assert ogg.detail == "psi/|W|=186/1, bound=372/2"
    assert rule_two_group(6, 4).verdict == "excludes"  # 4 does not divide 10
    assert rule_two_group(6, 1).verdict == "inconclusive"  # the trivial group
    assert rule_castelnuovo(0, 2, 0).verdict == "consistent"  # 0 <= 2 * 0 + 3


def test_rule_fixed_point_closure():
    # at 420-free levels with a non-subhyperelliptic full quotient, any proper
    # subgroup missing a fixed-point-bearing involution is excluded; the
    # rule is the first trace entry of the pair at a bielliptic-gate level
    res = classify_pair(225, ALSubgroup(225, (9,))).rule_trace[0]
    assert (res.rule_id, res.verdict) == ("fixed-point-closure", "excludes")
    assert res.detail == "w225 has fixed points but is outside W"
    # the two published survivors pass to the reduction stage
    for N, W in ((260, (4, 65)), (300, (4, 75))):
        res = classify_pair(N, ALSubgroup(N, W)).rule_trace[0]
        assert (res.rule_id, res.verdict) == ("fixed-point-closure", "inconclusive"), N


def test_rule_fixed_point_closure_arithmetic():
    # unramified exactly when g - 1 = index * (star_genus - 1): 6 = 2 * 3
    # at (260, <w4,w65>), which has g = 7, index 2 and star genus 4
    res = rule_fixed_point_closure(260, "<w4,w65>", 7, 2, 4, None)
    assert res.verdict == "inconclusive"
    assert res.inputs == (260, "<w4,w65>") and res.detail == ""
    for g in (6, 8):
        res = rule_fixed_point_closure(260, "<w4,w65>", g, 2, 4, None)
        assert res.verdict == "excludes", g
        assert res.detail == f"covering not unramified: {g - 1} != 2*(4-1)"
    # an involution with fixed points outside W excludes even where the
    # genus matches, and is named in the detail
    res = rule_fixed_point_closure(260, "<w4,w65>", 7, 2, 4, 13)
    assert res.verdict == "excludes"
    assert res.detail == "w13 has fixed points but is outside W"


def test_screening_imports_only_ntheory():
    # the rules are pure predicates: screening reads no genus, trace or
    # fixed-point count, so it imports nothing from the package but ntheory
    tree = ast.parse(inspect.getsource(screening))
    imported = [
        node.module if node.level == 0 else f"bielliptic.{node.module}"
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ]
    imported += [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ]
    assert [name for name in imported if name.startswith("bielliptic")] == [
        "bielliptic.ntheory"
    ]


def test_iso_reduce_w4_examples():
    assert iso_reduce_w4(44, ALSubgroup(44, (4,)))[0] == 22
    N2, W2 = iso_reduce_w4(60, ALSubgroup(60, (4, 3)))
    assert (N2, sorted(W2.elements)) == (30, [1, 3])
    N2, W2 = iso_reduce_w4(180, ALSubgroup(180, (4, 9)))
    assert (N2, sorted(W2.elements)) == (90, [1, 9])
    # not applicable: w4 absent, or 8 | N
    assert iso_reduce_w4(60, ALSubgroup(60, (12,))) is None
    assert iso_reduce_w4(120, ALSubgroup(120, (8,))) is None


def test_iso_reduce_w4_preserves_genus():
    for N, gens in [(44, (4,)), (60, (3, 4)), (100, (4,)), (180, (4, 9)), (252, (4, 9))]:
        sub = ALSubgroup(N, gens)
        N2, sub2 = iso_reduce_w4(N, sub)
        assert invariant_genus(N, sub) == invariant_genus(N2, sub2)


def test_iso_reduce_v3_examples():
    assert sorted(iso_reduce_v3(126, ALSubgroup(126, (14,))).elements) == [1, 126]
    assert sorted(iso_reduce_v3(153, ALSubgroup(153, (17,))).elements) == [1, 153]
    assert sorted(iso_reduce_v3(90, ALSubgroup(90, (5,))).elements) == [1, 45]
    with pytest.raises(ValueError):
        iso_reduce_v3(120, ALSubgroup(120, (8,)))
    with pytest.raises(ValueError):
        iso_reduce_v3(54, ALSubgroup(54, (2,)))  # 27 | 54


def test_iso_reductions_reject_a_subgroup_of_another_level():
    with pytest.raises(ValueError, match="level 180"):
        iso_reduce_w4(60, ALSubgroup(180, (4,)))
    with pytest.raises(ValueError, match="level 180"):
        iso_reduce_v3(90, ALSubgroup(180, (9,)))


def test_iso_reduce_v3_involutive_and_genus_preserving():
    for N in (90, 117, 126, 153, 171, 198, 252, 315):
        from bielliptic.ntheory import all_subgroups

        for sub in all_subgroups(N):
            if sub.is_trivial:
                continue
            twisted = iso_reduce_v3(N, sub)
            assert iso_reduce_v3(N, twisted) == sub
            assert invariant_genus(N, sub) == invariant_genus(N, twisted)


def test_trace_serialization():
    res = rule_two_group(14, 4)
    line = res.line()
    assert line.startswith("two-group(14,4) -> excludes")
