"""Metamorphic tests of the shared memo tables.

A classification shares its memos across pairs and levels: the subgroup
lattices, the involution tables with their per-class outcomes and lazily
filled rows, the per-modulus inverse lists behind the P^1 lookups, the
spaces and their traces.  None of that sharing may change a record: a pair
classified alone from empty caches, or in another order, must come out as
it does in one `classify_all`, and a warm pass must find everything it asks
for already stored.  The per-process inputs are memoised too (the CLI
parser, the default curve and adjudication tables, the pair list and the
level gate's verdicts): a warm `classify` makes none of them again, and
none of them may change while it is shared.
"""

import random

import pytest

from bielliptic import _data, atlas, cli, modsym, screening
from bielliptic.ntheory import _MEMO_TABLES


def _memo_state():
    """Every memo key, every space and trace, and each involution table's
    filled rows, fixed-point counts and genera, as comparable sets."""
    state = {name: set(table) for name, table in _MEMO_TABLES.items()}
    state["spaces"] = {(N, Q) for N, space in modsym._CACHE.items() for Q in space._trace_cache}
    for (N,), table in _MEMO_TABLES["bielliptic.involutions._involution_table"].items():
        state[f"table {N}"] = (
            {i for i, row in enumerate(table.products) if row is not None},
            {i for i, count in enumerate(table.fixed) if count is not None},
            set(table.genera),
        )
    return state


def test_each_pair_alone_equals_its_classify_all_record(classification, ec_table):
    # from empty caches, with the subgroup rebuilt from its generators
    assert len(classification) == 547
    for want in classification:
        modsym.clear_cache()
        got = atlas.classify_pair(want.N, want.subgroup.generators())
        got.quadratic_points = atlas.quadratic_points(got, ec_table)
        assert got == want, (want.N, want.subgroup.label())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_classify_all_in_a_shuffled_order(classification, monkeypatch, seed):
    # each run starts cold and shares its caches across the pairs, which it
    # meets in a shuffled order; a second, warm run finds everything it asks
    # for stored and adds no memo entry
    pairs = atlas.enumerate_pairs()
    random.Random(seed).shuffle(pairs)
    monkeypatch.setattr(atlas, "enumerate_pairs", lambda: list(pairs))
    modsym.clear_cache()
    for run in ("cold", "warm"):
        got = {rec.key(): rec for rec in atlas.classify_all()}
        assert len(got) == len(classification)
        for want in classification:
            assert got[want.key()] == want, (run, want.N, want.subgroup.label())
        if run == "cold":
            cold = _memo_state()
    assert _memo_state() == cold


def test_a_warm_classify_makes_no_input_again(capsys, monkeypatch):
    # the second in-process `classify` builds no parser, reads no table,
    # lists no level and builds no gate verdict, and prints the same bytes
    assert cli.main(["classify", "--format", "json"]) == 0
    first = capsys.readouterr().out
    made = []

    def counting(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: made.append(name) or real(*args))

    counting(cli, "build_parser")
    counting(atlas, "_read_table")
    counting(atlas, "scope_levels")
    counting(screening, "StarGate")
    assert cli.main(["classify", "--format", "json"]) == 0
    assert made == []
    assert capsys.readouterr().out == first


def test_enumerate_pairs_returns_a_fresh_list():
    first = atlas.enumerate_pairs()
    expected = list(first)
    random.Random(0).shuffle(first)
    assert first != expected
    assert atlas.enumerate_pairs() == expected


def test_default_tables_stay_as_read():
    # a classification shares the memoised tables with every later caller
    atlas.classify_all()
    assert atlas.default_ec_table() == atlas.ingest_ec_table(_data.EC_TABLE_TEXT)
    assert atlas.default_adjudications() == atlas.ingest_adjudications(
        _data.ADJUDICATIONS_TEXT
    )
