import pytest

from bielliptic import cli


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
    code, out, _ = run(capsys, "group-genus", "126", "--gens", "w9,V3*w7")
    assert (code, out.strip()) == (0, "1")


@pytest.mark.parametrize("gens", [",", "w9,", ",w9", "w9,,V3*w7"])
def test_group_genus_empty_generator_usage_error(capsys, gens):
    code, out, err = run(capsys, "group-genus", "126", "--gens", gens)
    assert (code, out) == (2, "")
    assert "empty generator" in err


def test_fix_element(capsys):
    code, out, _ = run(capsys, "fix", "252", "--element", "V3*w7")
    assert (code, out.strip()) == (0, "24")


def test_fix_all(capsys):
    code, out, _ = run(capsys, "fix", "252", "--all")
    assert code == 0
    lines = dict(line.split("\t") for line in out.splitlines()[1:])
    assert lines["w63"] == "24"
    assert lines["V3*w252"] == "8"


def test_fix_needs_argument(capsys):
    code, _, err = run(capsys, "fix", "252")
    assert code == 2


def test_screen(capsys):
    code, out, _ = run(capsys, "screen", "92", "--w", "w4", "--trace")
    assert code == 0
    assert out.splitlines()[0] == "excluded"
    assert "castelnuovo" in out


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
    # --levels restricts only the genus-table check; without --genus-tables
    # or --all it is refused before any check runs
    def no_check(*args):
        raise AssertionError("a check ran")

    for name in ("verify_fix_tables", "classify_all", "verify_genus_tables"):
        monkeypatch.setattr(cli.atlas, name, no_check)
    code, out, err = run(capsys, "selftest", *argv)
    assert (code, out) == (2, "")
    assert "--levels" in err


@pytest.mark.parametrize("argv,token", [
    (("fix", "60", "--element", "w1_2"), "'w1_2'"),
    (("fix", "60", "--element", "S2*w+3"), "'w+3'"),
    (("fix", "60", "--element", "w+4"), "'w+4'"),
    (("fix", "60", "--element", "w"), "'w'"),
    (("group-genus", "60", "--gens", "w1_2"), "'w1_2'"),
    (("genus", "60", "--w", "w1_2"), "'w1_2'"),
    (("selftest", "--genus-tables", "--levels", "6_0"), "'6_0'"),
    (("selftest", "--genus-tables", "--levels", "60,+120"), "'60,+120'"),
    (("genus", "6_0"), "'6_0'"),
    (("genus", "+60"), "'+60'"),
    (("fix", "2_52", "--element", "V3*w7"), "'2_52'"),
    (("screen", "9_2", "--w", "w4"), "'9_2'"),
])
def test_non_decimal_number_usage_error(capsys, argv, token):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert token in err and "int()" not in err


@pytest.mark.parametrize("argv", [
    ("genus", "0", "--w", "w1"),
    ("screen", "0", "--w", "w1"),
    ("fix", "0", "--element", "w1"),
    ("fix", "-4", "--element", "S2"),
    ("group-genus", "0", "--gens", "w1"),
])
def test_level_below_one_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"level {argv[1]} is not positive" in err


def test_selftest_fix_tables(capsys):
    code, out, _ = run(capsys, "selftest", "--fix-tables")
    assert code == 0
    assert "37 fixed-point counts verified" in out


def test_selftest_needs_selection(capsys):
    code, _, err = run(capsys, "selftest")
    assert code == 2


def test_missing_data_file(capsys):
    code, _, err = run(capsys, "screen", "84", "--w", "w3", "--ec", "/no/such/file")
    assert code == 3
    assert "missing data file" in err


def test_data_path_is_a_directory(capsys, tmp_path):
    code, out, err = run(capsys, "screen", "84", "--w", "w3", "--ec", str(tmp_path))
    assert (code, out) == (3, "")
    assert "unreadable data file" in err and str(tmp_path) in err


def test_data_file_not_utf8(capsys, tmp_path):
    bad = tmp_path / "curves.txt"
    bad.write_bytes(b"15a 15 0 -\n99a 99 \xff 4\n")
    code, out, err = run(capsys, "screen", "84", "--w", "w3", "--ec", str(bad))
    assert (code, out) == (1, "")
    assert "line 2:" in err and "utf-8" in err


def test_malformed_data_file(capsys, tmp_path):
    bad = tmp_path / "curves.txt"
    bad.write_text("15a 15 0 -\nbroken row\n")
    code, _, err = run(capsys, "screen", "84", "--w", "w3", "--ec", str(bad))
    assert code == 1
    assert "integrity failure" in err


def test_non_decimal_curve_field(capsys, tmp_path):
    bad = tmp_path / "curves.txt"
    bad.write_text("15a 15 0 -\n99a 9_9 1 4\n")
    code, _, err = run(capsys, "screen", "84", "--w", "w3", "--ec", str(bad))
    assert code == 1
    assert "line 2:" in err and "'9_9'" in err


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


def test_quadpoints(capsys, classification):
    code, out, _ = run(capsys, "quadpoints")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(classification)
    assert "99 <w9> infinite(bielliptic:99a,rank 1)" in lines


def test_output_reproducible(capsys):
    code1, out1, _ = run(capsys, "fix", "120", "--all")
    code2, out2, _ = run(capsys, "fix", "120", "--all")
    assert (code1, code2) == (0, 0)
    assert out1 == out2
