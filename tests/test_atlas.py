import dataclasses
import hashlib
import json

import pytest

from bielliptic import _data, atlas
from bielliptic._data import GENUS_TABLE_3P, PRINTED_DEVIATIONS
from bielliptic.errors import DataError, IntegrityError
from bielliptic.involutions import quotient_genus_hurwitz
from bielliptic.modsym import build_space, invariant_genus
from bielliptic.ntheory import ALSubgroup, all_subgroups, factor
from bielliptic.screening import GATE_GENUS1

import oracles


def _by_key(records):
    return {r.key(): r for r in records}


class TestEnumeration:
    def test_level_40(self):
        pairs = [sub.label() for N, sub in atlas.enumerate_pairs() if N == 40]
        assert pairs == ["<w8>", "<w5>"]

    def test_level_12_and_60(self):
        by_level = {}
        for N, sub in atlas.enumerate_pairs():
            by_level.setdefault(N, []).append(sub)
        assert 12 not in by_level
        assert len(by_level[60]) == 7
        # the Fricke subgroup never appears even when its genus is >= 2
        assert all(not sub.is_fricke for subs in by_level.values() for sub in subs)
        assert all(not sub.is_full for subs in by_level.values() for sub in subs)

    def test_genus_filter(self):
        for N, sub in atlas.enumerate_pairs():
            assert invariant_genus(N, sub) >= 2


class TestECTable:
    def test_parse_line(self):
        table = atlas.ingest_ec_table("99a 99 1")
        rec = table["99a"]
        assert (rec.label, rec.conductor, rec.rank) == ("99a", 99, 1)

    def test_duplicate_label(self):
        with pytest.raises(DataError):
            atlas.ingest_ec_table("15a 15 0\n15a 15 0")

    def test_malformed(self):
        with pytest.raises(DataError) as err:
            atlas.ingest_ec_table("ok 15 0\nbroken line")
        assert err.value.line == 2

    @pytest.mark.parametrize("row", [
        "99a 9_9 1", "99a +99 1", "99a 99 +1", "99a 99 -1",
        "99a 99 1 4",
    ])
    def test_fields_are_decimal_digits(self, row):
        # int() would read 9_9 as 99 and +1 as 1; a fourth field is malformed
        with pytest.raises(DataError) as err:
            atlas.ingest_ec_table(f"15a 15 0\n{row}")
        assert err.value.line == 2

    def test_default_table_parses(self, ec_table):
        assert ec_table["99a"].rank == 1
        assert all(rec.conductor >= 11 for rec in ec_table.values())

    def test_rows_are_the_witness_curves(self):
        # every row is a curve some verdict reads, and every curve read has a row
        named = {label for _, labels in _data.WITNESS_TABLE.values() for label in labels}
        assert set(atlas.default_ec_table()) == named
        assert len(named) == 37


class TestAdjudications:
    def test_default_parse(self):
        adj = atlas.default_adjudications()
        key = (84, ALSubgroup(84, (3,)).elements)
        verdict, citation = adj[key]
        assert verdict == "not-bielliptic"
        assert "Petri" in citation

    def test_bad_verdict(self):
        with pytest.raises(DataError):
            atlas.ingest_adjudications("84;w3;maybe;because")

    @pytest.mark.parametrize("level", ["0", "-84"])
    def test_level_below_one(self, level):
        with pytest.raises(DataError, match="not positive") as err:
            atlas.ingest_adjudications(f"84;w3;not-bielliptic;x\n{level};w1;not-bielliptic;x")
        assert err.value.line == 2


    @pytest.mark.parametrize("level", ["8_4", "+90", "8 4", "84.0", ""])
    def test_level_is_decimal_digits(self, level):
        # int() would read 8_4 as 84 and +90 as 90
        with pytest.raises(DataError, match="decimal digits") as err:
            atlas.ingest_adjudications(f"84;w3;not-bielliptic;x\n{level};w1;not-bielliptic;x")
        assert err.value.line == 2


class TestConfirm:
    def test_90_w9(self):
        w = atlas.classify_pair(90, (9,)).witness
        assert w.element.name == "V3*w10"
        assert w.field == "Q"
        names = w.group.names()
        assert "V3*w90" in names

    def test_126_w63_field(self):
        w = atlas.classify_pair(126, (63,)).witness
        assert w.element.kind == "v3"
        assert w.field == "Q(sqrt(-3))"

    def test_104_w8_family(self):
        w = atlas.classify_pair(104, (8,)).witness
        assert w.element.kind == "v2"
        assert "V2*w104" in w.group.names()

    def test_44_reduction(self):
        w = atlas.classify_pair(44, (4,)).witness
        assert w.chain and w.level == 22
        assert w.element.kind == "al"

    def test_none_found(self):
        assert atlas.classify_pair(54, (2,)).witness is None


class TestClassification:
    def test_every_pair_terminal(self, classification):
        assert all(
            r.status in ("bielliptic-confirmed", "excluded", "adjudicated")
            for r in classification
        )
        # `enumerate_pairs` yields the records in report order already
        assert classification == sorted(classification, key=atlas.PairRecord.sort_key)

    def test_regression(self, classification):
        stats = atlas.verify_classification(classification)
        assert stats["bielliptic"] == 124
        assert stats["adjudicated"] > 0

    def test_published_list_structure(self):
        # degree-2 families: where the full quotient is elliptic, every
        # index-2, non-Fricke subgroup of genus >= 2 is a published pair,
        # 16 two-prime levels x 2 subgroups and 9 three-prime levels x 7
        # subgroups; 29 sporadic pairs make the 124
        published = atlas.witness_annotations().keys()
        two_prime = {N for N in GATE_GENUS1 if factor(N).omega == 2}
        assert len(two_prime) == 16
        assert len({N for N in GATE_GENUS1 if factor(N).omega == 3}) == 9
        degree_two = {
            (N, sub.elements)
            for N in GATE_GENUS1
            for sub in all_subgroups(N)
            if sub.order * 2 == 1 << factor(N).omega and not sub.is_fricke
            and quotient_genus_hurwitz(N, sub) >= 2
        }
        assert degree_two <= published
        assert sum(1 for (N, _) in degree_two if N in two_prime) == 32
        assert len(degree_two) == 32 + 63
        assert len(published) == 32 + 63 + 29

    def test_examples(self, classification):
        recs = _by_key(classification)
        r = recs[(284, ALSubgroup(284, (4,)).elements)]
        assert r.status == "excluded"
        assert any(res.rule_id == "ogg-bound" for res in r.rule_trace)
        r = recs[(92, ALSubgroup(92, (4,)).elements)]
        assert r.status == "excluded"
        assert r.rule_trace[-1].rule_id == "castelnuovo"
        r = recs[(84, ALSubgroup(84, (3,)).elements)]
        assert r.status == "adjudicated"

    def test_gate_path(self):
        # the level gate's result is the first trace entry; 244 fails the
        # gate, 300 and 260 are bielliptic-gate levels
        r = atlas.classify_pair(244, (4,))
        assert (r.status, r.genus) == ("excluded", 14)
        assert [res.line() for res in r.rule_trace] == [
            "star-gate(244) -> excludes "
            "[the full quotient is neither subhyperelliptic nor bielliptic]"
        ]
        r = atlas.classify_pair(300, (4, 75))
        assert r.status == "excluded" and len(r.rule_trace) == 3
        assert r.rule_trace[0].line().startswith(
            "fixed-point-closure(300,<w4,w75>) -> inconclusive"
        )
        r = atlas.classify_pair(260, (4, 65))
        assert r.status == "adjudicated"
        assert [res.rule_id for res in r.rule_trace] == [
            "fixed-point-closure", "w4-reduction"
        ]

    def test_every_adjudication_entry_consumed(self, classification):
        # the adjudication table contains exactly the pairs the rules leave open
        used = {r.key() for r in classification if r.status == "adjudicated"}
        assert used == set(atlas.default_adjudications())

    def test_rule_preconditions_in_traces(self, classification):
        # no trace cites a rule whose stated preconditions were unmet
        for rec in classification:
            for res in rec.rule_trace:
                if res.rule_id == "ogg-bound":
                    N, order, p = res.inputs
                    assert N % p != 0
                if res.rule_id == "unramified-cover":
                    g, order, h, y_hyp = res.inputs
                    assert h >= 2 and not y_hyp
                if res.rule_id == "two-group":
                    g, order = res.inputs
                    assert g >= 6 and order & (order - 1) == 0
                if res.rule_id == "castelnuovo":
                    g, d, gy = res.inputs
                    assert d >= 2

    def test_non_rational_pairs(self, classification):
        recs = _by_key(classification)
        for N, gens in [(126, (63,)), (252, (4, 63))]:
            r = recs[(N, ALSubgroup(N, gens).elements)]
            assert r.field == "Q(sqrt(-3))"
            assert r.quadratic_points == "finite"

    @pytest.mark.parametrize("N,gens,field", [
        (126, (63,), "Q"),
        (90, (9,), "Q(sqrt(-3))"),
    ])
    def test_verify_rejects_a_flipped_field(self, classification, N, gens, field):
        # the records' quadratic points are left as they are, so only the
        # published list of bielliptic-over-an-extension pairs catches the flip
        key = (N, ALSubgroup(N, gens).elements)
        flipped = [
            dataclasses.replace(r, field=field) if r.key() == key else r
            for r in classification
        ]
        assert [r for r in flipped if r.key() == key][0].bielliptic
        with pytest.raises(IntegrityError, match="field mismatch"):
            atlas.verify_classification(flipped)

    @pytest.mark.parametrize("pairs, missing", [
        ([(40, (8,))], "(40,<w8>)"),
        ([(52, (13,)), (40, (5,)), (48, (3,)), (40, (8,)), (48, (16,))],
         "(40,<w8>), (40,<w5>), (48,<w16>), (48,<w3>), …"),
    ], ids=["one-pair", "five-pairs-cut"])
    def test_verify_names_the_missing_pairs(self, classification, pairs, missing):
        # report order, and "…" only when the list was cut
        keys = {(N, ALSubgroup(N, gens).elements) for N, gens in pairs}
        cleared = [
            dataclasses.replace(r, field=None) if r.key() in keys else r
            for r in classification
        ]
        with pytest.raises(IntegrityError) as excinfo:
            atlas.verify_classification(cleared)
        assert str(excinfo.value).endswith(f"missing {missing}, extra none")

    @pytest.mark.parametrize("N,gens,label", [
        (40, (8,), "<w8>"),
        (176, (16,), "<w16>"),
    ])
    def test_verify_rejects_a_flipped_genus(self, classification, N, gens, label):
        # the expected genus is the pair's cell of the published genus tables
        key = (N, ALSubgroup(N, gens).elements)
        flipped = [
            dataclasses.replace(r, genus=r.genus + 1) if r.key() == key else r
            for r in classification
        ]
        with pytest.raises(IntegrityError, match=rf"genus mismatch .*\({N},{label}\)"):
            atlas.verify_classification(flipped)

    def test_verify_needs_a_genus_cell_for_every_published_pair(
        self, classification, monkeypatch
    ):
        rows = {N: row for N, row in _data.GENUS_TABLE_2P.items() if N != 40}
        monkeypatch.setattr(_data, "GENUS_TABLE_2P", rows)
        with pytest.raises(IntegrityError, match=r"no published genus .*\(40,<w8>\)"):
            atlas.verify_classification(classification)

    def test_witness_families_match_annotations(self, classification):
        annotations = atlas.witness_annotations()
        for rec in classification:
            if rec.witness is None:
                continue
            ann = annotations.get(rec.key())
            assert ann is not None, rec.key()
            assert rec.witness.family in ann[0], (
                rec.N, rec.subgroup.label(), rec.witness.family, ann[0],
            )

    def test_witness_groups_reverify(self, classification):
        from bielliptic.involutions import quotient_genus_hurwitz

        for rec in classification:
            if rec.witness is not None:
                assert quotient_genus_hurwitz(rec.witness.level, rec.witness.group) == 1
                if all(e.kind in ("id", "al") for e in rec.witness.group):
                    # the averaged trace is the Hurwitz count rearranged; the
                    # +1-eigenspace genus is the independent route
                    divisors = [
                        e._al_part() for e in rec.witness.group.nontrivial()
                    ]
                    assert invariant_genus(rec.witness.level, divisors) == 1
                    space = build_space(rec.witness.level)
                    assert oracles.invariant_genus_eigenspace(space, divisors) == 1


def test_rule_battery_matches_its_closure_loops():
    # the 2-group and hyperelliptic-factoring rules read the groups B(N) forms
    # with the normalizer involutions from the full group's search; the
    # references close those groups themselves, by compose
    pairs = extended = factored = 0
    for N in atlas.scope_levels():
        for sub in all_subgroups(N):
            g = quotient_genus_hurwitz(N, sub)
            if g < 6:
                continue
            found = atlas._search(N, sub)
            options = list(atlas._two_group_options(N, sub, g, found))
            assert options == oracles.two_group_options(N, sub, g, found), (N, sub.label())
            result = atlas._hyperelliptic_factoring(N, sub, g)
            assert result == oracles.hyperelliptic_factoring(N, sub, g), (N, sub.label())
            pairs += 1
            extended += sum("extended" in tag for _, tag in options)
            factored += result is not None
    assert (pairs, extended, factored) == (548, 150, 43)


class TestQuadraticPoints:
    def test_examples(self, classification):
        recs = _by_key(classification)
        assert recs[(40, ALSubgroup(40, (8,)).elements)].quadratic_points == (
            "infinite(hyperelliptic)"
        )
        qp = recs[(99, ALSubgroup(99, (9,)).elements)].quadratic_points
        assert qp.startswith("infinite(bielliptic:99a")
        assert recs[(171, ALSubgroup(171, (9,)).elements)].quadratic_points == "finite"

    def test_missing_rank_data(self, classification):
        # a bielliptic pair that is not hyperelliptic must consult the table
        rec = next(
            r for r in classification
            if r.bielliptic and not r.hyperelliptic and r.field == "Q"
        )
        with pytest.raises(DataError):
            atlas.quadratic_points(rec, {})

    def test_hyperelliptic_records_are_table_rows(self, classification):
        # quadratic_points reads record.hyperelliptic; in scope that is the
        # hyperelliptic table, genus-2 pairs included
        table = atlas.hyperelliptic_pairs()
        hyper = {r.key() for r in classification if r.hyperelliptic}
        assert hyper == {r.key() for r in classification if r.key() in table}
        assert sum(r.genus == 2 for r in classification) == 28

    def test_hyperelliptic_table_genus_column(self):
        for (N, gens), g in _data.HYPERELLIPTIC_TABLE.items():
            assert quotient_genus_hurwitz(N, ALSubgroup(N, gens)) == g, (N, gens)

    @pytest.mark.parametrize("N, genus, hyperelliptic_involutions", [
        (92, 4, ["w4", "w23"]),
        (104, 3, ["V2*w13", "V2*w8"]),
    ])
    def test_fricke_quotients_missing_from_the_table(self, N, genus, hyperelliptic_involutions):
        # X0(N)/<wN> is hyperelliptic: an involution of it has a genus-0
        # quotient.  `_quotient_hyperelliptic` does not know this yet (it
        # answers False for both; ROADMAP item 11), so it is not asserted.
        sub = ALSubgroup(N, (N,))
        assert quotient_genus_hurwitz(N, sub) == genus
        found = [v.name for v, _, g in atlas._search(N, sub) if g == 0]
        assert found == hyperelliptic_involutions


class TestReports:
    def test_csv_252_row(self, classification):
        text = atlas.emit_report([r for r in classification if r.N == 252], "csv")
        row = next(line for line in text.splitlines() if line.startswith("252,"))
        assert row == "252," + ",".join(map(str, GENUS_TABLE_3P[252]))

    def test_json_deterministic(self, classification):
        sample = [r for r in classification if r.N in (44, 120)]
        assert atlas.emit_report(sample, "json") == atlas.emit_report(sample, "json")
        json.loads(atlas.emit_report(sample, "json"))

    def test_markdown(self, classification):
        sample = [r for r in classification if r.N == 126]
        text = atlas.emit_report(sample, "markdown")
        assert "| 126 | <w9> | 9 |" in text

    def test_unknown_format(self, classification):
        with pytest.raises(ValueError):
            atlas.emit_report(classification[:1], "xml")

    @pytest.mark.parametrize("fmt, sha256, size", [
        ("json", "1371addcd21c7983d543133e6a463f5366703078089afe05e3c68930b5e9b0b0", 200580),
        ("markdown", "4c4ed94f22976148408ab4116dbc1c8927b65b2eeccb960dee4f7121d10d16db", 46608),
        ("csv", "f3b59f0f2774c80cdb381e290bed119dcb2383a46a607b74078abf64b09bcd95", 20888),
    ], ids=["json", "markdown", "csv"])
    def test_report_bytes(self, classification, fmt, sha256, size):
        # the full report, byte for byte, in each format
        blob = atlas.emit_report(classification, fmt).encode()
        assert (hashlib.sha256(blob).hexdigest(), len(blob)) == (sha256, size)


class TestGoldenTables:
    def test_genus_table_spot_levels(self):
        assert atlas.verify_genus_tables({60, 120, 252}) == 48

    def test_fix_tables(self):
        assert atlas.verify_fix_tables() == 37

    def test_printed_deviation_cells_are_provably_misprints(self):
        # the published 294 row contradicts its own Hurwitz identity; see the
        # acceptance module for the full argument
        assert set(PRINTED_DEVIATIONS) == {
            (294, (3,)), (294, (6,)), (294, (147,)), (294, (294,)),
        }
