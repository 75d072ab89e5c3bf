import json
import re
import shlex
from pathlib import Path

import pytest

from bielliptic import _data, atlas, cli
from bielliptic.involutions import quotient_genus_hurwitz
from bielliptic.ntheory import ALSubgroup, all_subgroups
from bielliptic.screening import star_gate

import oracles

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_genus(capsys):
    code, out, _ = run(capsys, "genus", "120", "--w", "w15")
    assert (code, out.strip()) == (0, "5")


def test_genus_trivial_subgroup(capsys):
    code, out, _ = run(capsys, "genus", "60")
    assert (code, out.strip()) == (0, "7")


def test_genus_usage_error(capsys):
    code, _, err = run(capsys, "genus", "120", "--w", "w7")
    assert code == 2
    assert "w7" in err


def test_group_genus(capsys):
    for N, gens in (("126", "w9,V3*w7"), ("120", "w15,S2")):
        code, out, _ = run(capsys, "genus", N, "--w", gens)
        assert (code, out.strip()) == (0, "1")


def test_genus_of_non_group_usage_error(capsys):
    # w8 and S2 do not commute at level 120 (the OrderViolation `close` raises)
    code, out, err = run(capsys, "genus", "120", "--w", "w8,S2")
    assert (code, out) == (2, "")
    assert "<w8, S2> is not an involution group: w8 * S2 has order > 2 at level 120" in err


def test_genus_of_every_subgroup_in_scope(capsys):
    # `genus N --w <generators>` answers through the involution closure; it
    # must agree with the Atkin-Lehner subgroup route on every subgroup
    for N in atlas.scope_levels():
        for sub in all_subgroups(N):
            argv = ["genus", str(N)]
            if not sub.is_trivial:
                argv += ["--w", ",".join(f"w{d}" for d in sub.generators())]
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (0, f"{quotient_genus_hurwitz(N, sub)}\n"), argv


@pytest.mark.parametrize("gens", [",", "w9,", ",w9", "w9,,V3*w7"])
def test_group_genus_empty_generator_usage_error(capsys, gens):
    code, out, err = run(capsys, "genus", "126", "--w", gens)
    assert (code, out) == (2, "")
    assert "empty generator" in err


def test_fix_element(capsys):
    code, out, _ = run(capsys, "fix", "252", "V3*w7")
    assert (code, out.strip()) == (0, "24")


def test_fix_all(capsys):
    code, out, _ = run(capsys, "fix", "252")
    assert code == 0
    lines = dict(line.split("\t") for line in out.splitlines()[1:])
    assert lines["w63"] == "24"
    assert lines["V3*w252"] == "8"


def test_screen(capsys):
    code, out, _ = run(capsys, "screen", "92", "--w", "w4", "--trace")
    assert code == 0
    assert out.splitlines()[0] == "excluded"
    assert "castelnuovo" in out


def test_screen_prime_power_level(capsys):
    # a prime power is outside the standing hypothesis: the level gate
    # raises, so the full group's quotient has no hyperelliptic answer, and
    # a quotient of genus below 2 stops before the gate while one of genus
    # 2 or more reaches it, a usage error
    full = ALSubgroup.full(64)
    with pytest.raises(ValueError, match="outside the standing hypothesis"):
        star_gate(64)
    assert atlas._quotient_hyperelliptic(64, full, quotient_genus_hurwitz(64, full)) is None
    code, out, _ = run(capsys, "screen", "64", "--w", "w64")
    assert (code, out) == (0, "genus-too-small\n")
    code, out, err = run(capsys, "screen", "128", "--w", "w128")
    assert (code, out) == (2, "")
    assert "level 128 is outside the standing hypothesis" in err


def test_selftest_levels(capsys):
    code, out, _ = run(capsys, "selftest", "--genus-tables", "--levels", "60,120")
    assert code == 0
    assert "32 genus cells verified" in out


@pytest.mark.parametrize("levels,named", [("61", "[61]"), ("0", "[0]"), ("60,61,7", "[7, 61]")])
def test_selftest_level_without_genus_row_usage_error(capsys, levels, named):
    code, out, err = run(capsys, "selftest", "--genus-tables", "--levels", levels)
    assert (code, out) == (2, "")
    assert f"no published genus row for level(s) {named}" in err


@pytest.mark.parametrize("argv", [
    ("--fix-tables", "--levels", "61"),
    ("--classification", "--levels", "60"),
])
def test_selftest_levels_without_genus_tables_usage_error(capsys, monkeypatch, argv):
    # --levels restricts only the genus-table check; when other checks are
    # selected without --genus-tables it is refused before any check runs
    def no_check(*args):
        raise AssertionError("a check ran")

    for name in ("verify_fix_tables", "classify_all", "verify_genus_tables"):
        monkeypatch.setattr(cli.atlas, name, no_check)
    code, out, err = run(capsys, "selftest", *argv)
    assert (code, out) == (2, "")
    assert "--levels" in err


@pytest.mark.parametrize("argv,token", [
    (("fix", "60", "w1_2"), "'w1_2'"),
    (("fix", "60", "S2*w+3"), "'w+3'"),
    (("fix", "60", "w+4"), "'w+4'"),
    (("fix", "60", "w"), "'w'"),
    (("genus", "60", "--w", "S2,w1_2"), "'w1_2'"),
    (("genus", "60", "--w", "w1_2"), "'w1_2'"),
    (("selftest", "--genus-tables", "--levels", "6_0"), "'6_0'"),
    (("selftest", "--genus-tables", "--levels", "60,+120"), "'60,+120'"),
    (("genus", "6_0"), "'6_0'"),
    (("genus", "+60"), "'+60'"),
    (("fix", "2_52", "V3*w7"), "'2_52'"),
    (("screen", "9_2", "--w", "w4"), "'9_2'"),
    # an empty value is a token too, not an absent option
    (("genus", "60", "--w", ""), "''"),
    (("screen", "60", "--w", ""), "''"),
    (("selftest", "--genus-tables", "--levels", ""), "''"),
])
def test_non_decimal_number_usage_error(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert token in err and "int()" not in err


@pytest.mark.parametrize("argv", [
    ("genus", "0", "--w", "w1"),
    ("screen", "0", "--w", "w1"),
    ("fix", "0", "w1"),
    ("fix", "-4", "S2"),
    ("genus", "0", "--w", "w1,S2"),
])
def test_level_below_one_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"level {argv[1]} is not positive" in err


@pytest.mark.parametrize("argv,named", [
    # `fix` takes its element as a positional and `genus` its generators as --w
    (("fix", "252", "--element", "w7"), "--element"),
    (("genus", "126", "--gens", "w9,V3*w7"), "--gens"),
    (("screen", "84", "--w", "w3", "--ec", "/no/such/file"), "--ec"),
    (("selftest", "--fix-tables", "--ec", "/no/such/file"), "--ec"),
    (("selftest", "--genus-tables", "--adjudications", "/no/such/file"), "--adjudications"),
])
def test_option_read_or_refused(capsys, monkeypatch, argv, named):
    # an option the verb would not read is a usage error before any work
    def no_work(*args):
        raise AssertionError("the command ran")

    for name in ("verify_fix_tables", "classify_all", "verify_genus_tables", "classify_pair"):
        monkeypatch.setattr(cli.atlas, name, no_work)
    for name in ("fix_table_tsv", "group_closure"):
        monkeypatch.setattr(cli.involutions, name, no_work)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert named in err


def test_data_dir_resolves_relative_paths(capsys, monkeypatch, tmp_path):
    # BIELLIPTIC_DATA_DIR is where a relative data path is looked up when it
    # does not exist as given; an absolute path is taken as it is
    data, work = tmp_path / "data", tmp_path / "work"
    data.mkdir()
    work.mkdir()
    (data / "adjudications.txt").write_text("84;w3;not-bielliptic;from the data dir\n")
    monkeypatch.chdir(work)
    monkeypatch.setenv("BIELLIPTIC_DATA_DIR", str(data))
    code, out, _ = run(capsys, "screen", "84", "--w", "w3", "--adjudications", "adjudications.txt")
    assert (code, out) == (0, "adjudicated\nadjudication: from the data dir\n")
    missing = str(work / "adjudications.txt")
    code, out, err = run(capsys, "screen", "84", "--w", "w3", "--adjudications", missing)
    assert (code, out) == (3, "")
    assert "missing data file" in err and missing in err


def test_selftest_fix_tables(capsys):
    code, out, _ = run(capsys, "selftest", "--fix-tables")
    assert code == 0
    assert "37 fixed-point counts verified" in out


def test_selftest_without_selection_runs_every_check(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "genus-tables", "fix-tables", "classification",
    ]
    assert "classification: 547 pairs, 124 bielliptic," in out


def test_missing_data_file(capsys):
    code, _, err = run(capsys, "quadpoints", "--ec", "/no/such/file")
    assert code == 3
    assert "missing data file" in err


def test_data_path_is_a_directory(capsys, tmp_path):
    code, out, err = run(capsys, "quadpoints", "--ec", str(tmp_path))
    assert (code, out) == (3, "")
    assert "unreadable data file" in err and str(tmp_path) in err


def test_data_file_not_utf8(capsys, tmp_path):
    bad = tmp_path / "curves.txt"
    bad.write_bytes(b"15a 15 0\n99a 99 \xff\n")
    code, out, err = run(capsys, "quadpoints", "--ec", str(bad))
    assert (code, out) == (1, "")
    assert "line 2:" in err and "utf-8" in err


def test_data_files_with_a_byte_order_mark(capsys, tmp_path):
    # an editor may save UTF-8 with a byte-order mark; the header comment
    # of each table is then still a comment
    ec = tmp_path / "curves.txt"
    ec.write_text(_data.EC_TABLE_TEXT, encoding="utf-8-sig")
    adjudications = tmp_path / "adjudications.txt"
    adjudications.write_text(_data.ADJUDICATIONS_TEXT, encoding="utf-8-sig")
    assert ec.read_bytes().startswith(b"\xef\xbb\xbf#")
    _, want, _ = run(capsys, "quadpoints")
    for option, path in (("--ec", ec), ("--adjudications", adjudications)):
        assert run(capsys, "quadpoints", option, str(path)) == (0, want, ""), option
    args = ("--ec", str(ec), "--adjudications", str(adjudications))
    assert run(capsys, "quadpoints", *args) == (0, want, "")


def test_malformed_data_file(capsys, tmp_path):
    bad = tmp_path / "curves.txt"
    bad.write_text("15a 15 0\nbroken row\n")
    code, _, err = run(capsys, "quadpoints", "--ec", str(bad))
    assert code == 1
    assert "integrity failure" in err


def test_non_decimal_curve_field(capsys, tmp_path):
    bad = tmp_path / "curves.txt"
    bad.write_text("15a 15 0\n99a 9_9 1\n")
    code, _, err = run(capsys, "quadpoints", "--ec", str(bad))
    assert code == 1
    assert "line 2:" in err and "'9_9'" in err


def test_curve_line_with_a_trailing_note(capsys, tmp_path):
    # '#' opens a comment only at the start of a line; here it is two fields more
    bad = tmp_path / "curves.txt"
    bad.write_text("# label conductor rank\n15a 15 0\n99a 99 1 # note\n")
    code, out, err = run(capsys, "quadpoints", "--ec", str(bad))
    assert (code, out) == (1, "")
    assert "line 3:" in err and "expected 3 fields, got 5" in err


@pytest.mark.parametrize("line", [
    "84;wx;not-bielliptic;cited",
    "x;w3;not-bielliptic;cited",
    "84;w5;not-bielliptic;cited",
    "0;w1;not-bielliptic;cited",
    "8_4;w3;not-bielliptic;cited",
    "+90;w9;not-bielliptic;cited",
])
def test_malformed_adjudication_line(capsys, tmp_path, line):
    bad = tmp_path / "adjudications.txt"
    bad.write_text(line + "\n")
    code, _, err = run(capsys, "screen", "84", "--w", "w3", "--adjudications", str(bad))
    assert code == 1
    assert "line 1:" in err


def test_malformed_subgroup_usage_error(capsys):
    code, _, err = run(capsys, "screen", "84", "--w", "wx")
    assert code == 2
    assert "'wx'" in err


def test_bad_verb(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_classify_json(capsys, classification):
    import json

    code, out, _ = run(capsys, "classify", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert len(blob) == len(classification)
    record = next(r for r in blob if r["level"] == 90 and r["subgroup"] == "<w9>")
    assert record["status"] == "bielliptic-confirmed"
    assert record["witness"].startswith("V3*w10")


def test_classify_json_escapes_a_users_citation(capsys, tmp_path):
    # the embedded tables are ASCII; a user's own table may hold any text,
    # and the report escapes it as json.dumps does
    citation = 'Petri test: é — "quoted" \\ back\tslash'
    text = _data.ADJUDICATIONS_TEXT.replace(
        "84;w3;not-bielliptic;Petri quadric symmetry test on the canonical model",
        f"84;w3;not-bielliptic;{citation}",
    )
    assert citation in text
    table = tmp_path / "adjudications.txt"
    table.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "classify", "--format", "json", "--adjudications", str(table))
    assert code == 0
    records = atlas.classify_all(adjudications=atlas.ingest_adjudications(text))
    assert out == oracles.report_json_reference(records)
    assert '"Petri test: \\u00e9 \\u2014 \\"quoted\\" \\\\ back\\tslash"' in out


def test_classify_json_keeps_a_hash_in_a_citation(capsys, tmp_path):
    text = _data.ADJUDICATIONS_TEXT.replace(
        "84;w3;not-bielliptic;Petri quadric symmetry test on the canonical model",
        "84;w3;not-bielliptic;see Prop. #4",
    )
    table = tmp_path / "adjudications.txt"
    table.write_text(text)
    code, out, _ = run(capsys, "classify", "--format", "json", "--adjudications", str(table))
    assert code == 0
    blob = json.loads(out)
    record = next(r for r in blob if r["level"] == 84 and r["subgroup"] == "<w3>")
    assert record["adjudication"] == ["not-bielliptic", "see Prop. #4"]


def test_quadpoints(capsys, classification):
    code, out, _ = run(capsys, "quadpoints")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(classification)
    assert "99 <w9> infinite(bielliptic:99a,rank 1)" in lines


def test_output_reproducible(capsys):
    code1, out1, _ = run(capsys, "fix", "120")
    code2, out2, _ = run(capsys, "fix", "120")
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def _readme_cli_lines():
    block = README.read_text(encoding="utf-8").split("## CLI\n", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("bielliptic ")]


@pytest.mark.parametrize(
    "line", _readme_cli_lines(), ids=lambda line: line.partition("#")[0].strip()
)
def test_readme_cli_examples(capsys, line):
    # every example in README's CLI block runs, and prints what its
    # "# -> X" comment says
    command, _, comment = line.partition("#")
    code, out, err = run(capsys, *shlex.split(command)[1:])
    assert code == 0, err
    expected = re.search(r"->\s*(\S+)\s*$", comment)
    if expected:
        assert out.strip() == expected.group(1)
