import hashlib
import json

import pytest

from bielliptic import _data, atlas
from bielliptic.errors import DataError, IntegrityError
from bielliptic.involutions import ExtInvolution, quotient_genus_hurwitz
from bielliptic.modsym import build_space, invariant_genus
from bielliptic.ntheory import _MEMO_TABLES, ALSubgroup, all_subgroups, factor, replace
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

    def test_hash_after_the_first_field_is_data(self):
        # '#' opens a comment only as a line's first non-blank character, so
        # a trailing note makes two more fields
        assert list(atlas.ingest_ec_table("  # label conductor rank\n15a 15 0")) == ["15a"]
        with pytest.raises(DataError, match="expected 3 fields, got 5") as err:
            atlas.ingest_ec_table("15a 15 0\n99a 99 1 # note")
        assert err.value.line == 2

    def test_default_table_parses(self, ec_table):
        assert ec_table["99a"].rank == 1
        assert all(rec.conductor >= 11 for rec in ec_table.values())

    def test_rows_are_the_witness_curves(self):
        # every row is a curve some verdict reads, and every curve read has a row
        named = {label for _, labels in atlas.witness_annotations().values() for label in labels}
        assert set(atlas.default_ec_table()) == named
        assert len(named) == 37


class TestAdjudications:
    def test_default_parse(self):
        adj = atlas.default_adjudications()
        key = (84, ALSubgroup(84, (3,)).elements)
        verdict, citation = adj[key]
        assert verdict == "not-bielliptic"
        assert "Petri" in citation

    def test_hash_in_a_citation_is_kept(self):
        adj = atlas.ingest_adjudications(
            "# N;generators;verdict;citation\n84;w3;not-bielliptic;see Prop. #4"
        )
        assert adj == {(84, ALSubgroup(84, (3,)).elements): ("not-bielliptic", "see Prop. #4")}

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
        assert "V3*w90" in [e.name for e in w.group]

    def test_126_w63_field(self):
        w = atlas.classify_pair(126, (63,)).witness
        assert w.element.kind == "v3"
        assert w.field == "Q(sqrt(-3))"

    def test_104_w8_family(self):
        w = atlas.classify_pair(104, (8,)).witness
        assert w.element.kind == "v2"
        assert "V2*w104" in [e.name for e in w.group]

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
        assert stats == {
            "pairs": 547,
            "bielliptic": 124,
            "adjudicated": 46,
            "excluded": 377,
            "infinite_quadratic": 40,
        }

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
        # published list of bielliptic-over-an-extension pairs catches the
        # flip, and the message names the flipped pair alone
        sub = ALSubgroup(N, gens)
        key = (N, sub.elements)
        flipped = [
            replace(r, field=field) if r.key() == key else r
            for r in classification
        ]
        assert [r for r in flipped if r.key() == key][0].bielliptic
        with pytest.raises(IntegrityError) as excinfo:
            atlas.verify_classification(flipped)
        assert str(excinfo.value) == (
            f"field mismatch for bielliptic pairs: ({N},{sub.label()}) over {field}"
        )

    @pytest.mark.parametrize("pairs, missing", [
        ([(40, (8,))], "(40,<w8>)"),
        ([(52, (13,)), (40, (5,)), (48, (3,)), (40, (8,)), (48, (16,))],
         "(40,<w8>), (40,<w5>), (48,<w16>), (48,<w3>), …"),
    ], ids=["one-pair", "five-pairs-cut"])
    def test_verify_names_the_missing_pairs(self, classification, pairs, missing):
        # report order, and "…" only when the list was cut
        keys = {(N, ALSubgroup(N, gens).elements) for N, gens in pairs}
        cleared = [
            replace(r, field=None) if r.key() in keys else r
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
            replace(r, genus=r.genus + 1) if r.key() == key else r
            for r in classification
        ]
        with pytest.raises(IntegrityError, match=rf"genus mismatch .*\({N},{label}\)"):
            atlas.verify_classification(flipped)

    def test_verify_needs_a_genus_cell_for_every_published_pair(
        self, classification, monkeypatch
    ):
        rows = _data.GENUS_TABLE_2P_TEXT.splitlines()
        monkeypatch.setattr(
            _data, "GENUS_TABLE_2P_TEXT", "\n".join(r for r in rows if not r.startswith("40 "))
        )
        with pytest.raises(IntegrityError, match=r"no published genus .*\(40,<w8>\)"):
            atlas.verify_classification(classification)

    def test_witness_families_match_annotations(self, classification):
        annotations = atlas.witness_annotations()
        for rec in classification:
            if rec.witness is None:
                continue
            ann = annotations.get(rec.key())
            assert ann is not None, rec.key()
            family = oracles.witness_family(rec.witness)
            assert family in ann[0], (rec.N, rec.subgroup.label(), family, ann[0])

    def test_witness_groups_reverify(self, classification):
        from bielliptic.involutions import quotient_genus_hurwitz

        for rec in classification:
            if rec.witness is not None:
                assert quotient_genus_hurwitz(rec.witness.level, rec.witness.group) == 1
                if all(e.kind in ("id", "al") for e in rec.witness.group):
                    # the averaged trace is the Hurwitz count rearranged; the
                    # +1-eigenspace genus is the independent route
                    divisors = [e._al_part() for e in rec.witness.group[1:]]
                    assert invariant_genus(rec.witness.level, divisors) == 1
                    space = build_space(rec.witness.level)
                    assert oracles.invariant_genus_eigenspace(space, divisors) == 1


def test_rule_battery_matches_its_closure_loops():
    # the 2-group and hyperelliptic-factoring rules read the groups B(N) forms
    # with the normalizer involutions from the full group's search; the
    # references close those groups themselves, by the reference compose
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


class TestRuleBattery:
    # the boundaries of the battery's own guards, on synthetic `found` lists
    # where the pinned reports do not reach them
    W = ALSubgroup(120, (8,))

    def _rule_ids(self, g):
        return [r.rule_id for r in atlas._exclusions(120, self.W, g, [])]

    def test_ogg_bound_needs_genus_6(self):
        assert "ogg-bound" not in self._rule_ids(5)
        assert self._rule_ids(6).count("ogg-bound") == 1

    def test_unramified_covers_over_proper_supergroups_of_genus_2_up(self):
        # the supergroups of <w8> at 120 are <w8,w3>, <w8,w5>, <w8,w15> of
        # genera 4, 5, 2 and B(120) of genus 1; W itself is not one
        covers = [
            r.inputs for r in atlas._exclusions(120, self.W, 9, [])
            if r.rule_id == "unramified-cover"
        ]
        assert covers == [(9, 2, 4, False), (9, 2, 5, False), (9, 2, 2, True)]

    def test_two_group_options_need_genera_below_g(self):
        # B(120)'s image needs every w_d outside W below g, and B(120) with
        # V2 (8 | 120) needs each of its elements in `found` below g
        w3, v2 = ExtInvolution.al(120, 3), ExtInvolution.v2(120)
        image = (4, "image of the full Atkin-Lehner group")
        extended = (8, "image of the Atkin-Lehner group extended by V2")

        def options(v, h):
            return list(atlas._two_group_options(120, self.W, 6, [(v, None, h)]))

        assert options(w3, 5) == [image, extended]
        assert options(w3, 6) == []
        assert options(v2, 5) == [image, extended]
        assert options(v2, 6) == [image]

    def test_pair_names(self):
        keys = [(60, frozenset({1, 3})), (40, frozenset({1, 8})), (90, frozenset({1, 9})),
                (44, frozenset({1, 4})), (60, frozenset({1, 4}))]
        assert atlas._pair_names(keys) == "(40,<w8>), (44,<w4>), (60,<w4>), (60,<w3>), …"
        assert atlas._pair_names(keys[:4]) == "(40,<w8>), (44,<w4>), (60,<w3>), (90,<w9>)"
        assert atlas._pair_names([]) == "none"


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
        for (N, elements), g in atlas.hyperelliptic_pairs().items():
            assert quotient_genus_hurwitz(N, ALSubgroup(N, elements)) == g, (N, elements)

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
        assert row == "252," + ",".join(map(str, atlas.published_genus_table(3)[252]))

    def test_json_deterministic(self, classification):
        sample = [r for r in classification if r.N in (44, 120)]
        assert atlas.emit_report(sample, "json") == atlas.emit_report(sample, "json")
        json.loads(atlas.emit_report(sample, "json"))

    def test_json_equals_the_reference(self, classification):
        # the template writer against json.dumps of the records as dicts:
        # the whole classification, each level alone, and no records
        assert atlas.emit_report(classification, "json") == (
            oracles.report_json_reference(classification)
        )
        for N in sorted({r.N for r in classification}):
            level = [r for r in classification if r.N == N]
            assert atlas.emit_report(level, "json") == oracles.report_json_reference(level), N
        assert atlas.emit_report([], "json") == oracles.report_json_reference([]) == "[]"

    def test_json_synthetic_records_equal_the_reference(self, classification):
        # every value a record's fields may hold: each optional field None,
        # no quadratic points (classify_pair alone), a reduction-chain
        # witness, a trace of several entries, both booleans, and strings
        # that need escaping, outside the BMP too
        by_key = _by_key(classification)
        reduced = by_key[(44, ALSubgroup(44, (4,)).elements)]
        assert reduced.witness.chain
        adjudicated = next(r for r in classification if r.adjudication)
        trace = tuple(res for r in classification for res in r.rule_trace)[:4]
        records = [
            atlas.PairRecord(60, ALSubgroup(60, (4,)), 3, "excluded", False),
            atlas.PairRecord(60, ALSubgroup(60, (3, 5)), 2, "genus-too-small", True),
            atlas.classify_pair(44, (4,)),
            replace(reduced, quadratic_points=None, rule_trace=trace),
            replace(adjudicated, quadratic_points=None),
            replace(
                adjudicated, N=61, adjudication=("not-bielliptic", 'é — "q" \\ \t 𝔽'),
                field="Q(\u221a-3)", status="st\x7fatus",
            ),
        ]
        assert records[2].quadratic_points is None and len(trace) == 4
        for r in records:
            assert atlas.emit_report([r], "json") == oracles.report_json_reference([r])
        assert atlas.emit_report(records, "json") == oracles.report_json_reference(records)

    def test_json_report_does_not_call_json_dumps(self, classification, monkeypatch):
        # the report is a template per record: neither json.dumps nor the
        # pure-Python encoder that indent selects is on its path
        want = oracles.report_json_reference(classification)

        def refuse(*args, **kwargs):
            raise AssertionError("the JSON report called the json module's encoder")

        monkeypatch.setattr(json, "dumps", refuse)
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert atlas.emit_report(classification, "json") == want

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


class TestEmbeddedTables:
    # row count and sha256 of repr(sorted(rows)) of each table, taken from
    # the Python literals the tables were written in before they became text
    PINS = {
        "genus 2P": (54, "c2907664a51577d42d8654bbd2af555687c1456d4f2096396b09e23199316c33"),
        "genus 3P": (35, "1393dcc277884cdc14c57cb1c6e97e5d81730d3a1a929588605a97a05ddae254"),
        "printed deviations": (
            4, "c2de8cfc5091a245bdf5f2ef914c2cdecf2d336dab903bdef7079e865fe8d6da"),
        "non-rational": (2, "1fabd5569fd14ee3844f7c802188fcc409d0434d52c7a72c6c75a72384f1259a"),
        "hyperelliptic": (
            39, "9c633064a8f5048bb0237da03e37000232edfee94570327e06d0a1de75e26a48"),
        "fix 120": (15, "639ef070b1c266e9a4cb38d3eee95c5341eaceb19ac6fa8e00bedc681c93fb6d"),
        "fix 252": (15, "18a246b54748c5771a5e7e5f05cc9f0aa32ca46ab931682749fd0e0f87627f83"),
        "fix 176": (7, "9073a9b374f4d7ae85d58962c0cada2d8d0af0d993e88e347d61eb89efe398f2"),
        "witness": (124, "902f9a09ec7bd69ff093efc11dec5134c70448c714f7d81f20ec01834a2324a5"),
    }

    def test_tables_read_back_unchanged(self):
        # the pair tables pinned as printed, keyed by generator tuple, and
        # the library's reading of each keyed by subgroup
        fix = atlas.published_fix_tables()
        printed = {
            "non-rational": oracles.printed_pair_rows(
                _data.NON_RATIONAL_BIELLIPTIC_TEXT, 2, lambda: None),
            "hyperelliptic": oracles.printed_pair_rows(
                _data.HYPERELLIPTIC_TABLE_TEXT, 3, int),
            "witness": oracles.printed_pair_rows(
                _data.WITNESS_TABLE_TEXT, 4,
                lambda families, curves: (tuple(families.split(",")),
                                          tuple(curves.split(",")))),
        }
        rows = {
            "genus 2P": atlas.published_genus_table(2).items(),
            "genus 3P": atlas.published_genus_table(3).items(),
            "printed deviations": oracles.printed_deviations().items(),
            "non-rational": printed["non-rational"].keys(),
            "hyperelliptic": printed["hyperelliptic"].items(),
            "fix 120": fix[120].items(),
            "fix 252": fix[252].items(),
            "fix 176": fix[176].items(),
            "witness": printed["witness"].items(),
        }
        got = {
            name: (len(r), hashlib.sha256(repr(sorted(r)).encode()).hexdigest())
            for name, r in rows.items()
        }
        assert got == self.PINS
        assert list(fix) == [120, 252, 176]
        keyed = {
            name: {(N, ALSubgroup(N, gens).elements): value
                   for (N, gens), value in table.items()}
            for name, table in printed.items()
        }
        assert atlas.non_rational_pairs() == keyed["non-rational"].keys()
        assert atlas.hyperelliptic_pairs() == keyed["hyperelliptic"]
        assert atlas.witness_annotations() == keyed["witness"]

    @pytest.fixture
    def fresh_pair_tables(self):
        """The memoised pair tables emptied for one test, restored after it."""
        memos = [_MEMO_TABLES[f"bielliptic.atlas.{read.__name__}"]
                 for read in (atlas.hyperelliptic_pairs, atlas.witness_annotations)]
        saved = [dict(memo) for memo in memos]
        for memo in memos:
            memo.clear()
        yield
        for memo, entries in zip(memos, saved):
            memo.clear()
            memo.update(entries)

    def _appended_row_fails(self, monkeypatch, name, read, row):
        """The DataError `read` raises once `row` ends the text block `name`;
        it names that last line."""
        monkeypatch.setattr(_data, name, getattr(_data, name) + row + "\n")
        with pytest.raises(DataError) as err:
            read()
        assert err.value.line == len(getattr(_data, name).splitlines())
        return err.value

    @pytest.mark.parametrize("name, read, row", [
        ("WITNESS_TABLE_TEXT", atlas.witness_annotations, "40 w8 al"),
        ("HYPERELLIPTIC_TABLE_TEXT", atlas.hyperelliptic_pairs, "40 w8 two"),
        ("GENUS_TABLE_3P_TEXT", lambda: atlas.published_genus_table(3), "60 7 3 4"),
        ("FIX_TABLES_TEXT", atlas.published_fix_tables, "120 w8 0 # note"),
        ("NON_RATIONAL_BIELLIPTIC_TEXT", atlas.non_rational_pairs, "126 63"),
        # w7 is no Atkin-Lehner involution at level 60
        ("HYPERELLIPTIC_TABLE_TEXT", atlas.hyperelliptic_pairs, "60 w7 5"),
        ("WITNESS_TABLE_TEXT", atlas.witness_annotations, "60 w7 al 15a"),
    ])
    def test_malformed_row_names_its_line(self, monkeypatch, fresh_pair_tables, name, read,
                                          row):
        self._appended_row_fails(monkeypatch, name, read, row)

    @pytest.mark.parametrize("name, read, row", [
        ("HYPERELLIPTIC_TABLE_TEXT", atlas.hyperelliptic_pairs, "60 w4,w3 5"),
        ("WITNESS_TABLE_TEXT", atlas.witness_annotations, "60 w4,w3 red 15a"),
    ])
    def test_pair_repeated_in_another_generator_order(self, monkeypatch, fresh_pair_tables,
                                                      name, read, row):
        # keyed by subgroup as it is read, the row repeats the row of 60 w3,w4
        err = self._appended_row_fails(monkeypatch, name, read, row)
        assert f"{row!r} repeats an earlier entry" in str(err)
        assert _MEMO_TABLES[f"bielliptic.atlas.{read.__name__}"] == {}


class TestGoldenTables:
    def test_genus_table_spot_levels(self):
        assert atlas.verify_genus_tables({60, 120, 252}) == 48

    def test_fix_tables(self):
        assert atlas.verify_fix_tables() == 37

    def test_printed_deviation_cells_are_provably_misprints(self):
        # the published 294 row contradicts its own Hurwitz identity; see the
        # acceptance module for the full argument
        assert set(oracles.printed_deviations()) == {
            (294, (3,)), (294, (6,)), (294, (147,)), (294, (294,)),
        }
