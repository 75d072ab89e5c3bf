"""Every text parser either parses or raises ValueError (DataError is one).

Each parser reads input from outside the program: data files, or subgroup
and involution arguments on the command line.  Any other exception would
escape the CLI's exit-code mapping.  Every number in that input is read by
one rule, `parse_decimal`.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from bielliptic import atlas, cli
from bielliptic.errors import DataError
from bielliptic.involutions import parse_element
from bielliptic.ntheory import ALSubgroup, parse_decimal, parse_w

# characters the parsers split on or test for, mixed into arbitrary text
_ALPHABET = st.sampled_from(list("wSCV23*,;#-_+ 0123456789\n\t")) | st.characters()
TEXT = st.text(_ALPHABET, max_size=60)
LEVEL = st.sampled_from([-12, 0, 1, 12, 60, 84, 120, 126, 252]) | st.integers(-50, 2000)


def _accepts(parse, *args) -> bool:
    try:
        parse(*args)
    except ValueError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(TEXT)
@example("15a 15 0\n99a 99 1")
@example("15a 15_0 0")
@example("99a 9_9 1")
@example("99a 99 +1")
def test_ec_table_parses_or_raises_data_error(text):
    try:
        atlas.ingest_ec_table(text)
    except DataError as exc:
        assert exc.line is not None


@settings(max_examples=200, deadline=None)
@given(TEXT)
@example("84;w3;not-bielliptic;x")
@example("0;w1;not-bielliptic;x")
@example("84;w3,w;not-bielliptic;x")
@example("8_4;w3;not-bielliptic;x")
@example("+90;w9;not-bielliptic;x")
def test_adjudications_parse_or_raise_data_error(text):
    try:
        atlas.ingest_adjudications(text)
    except DataError as exc:
        assert exc.line is not None


@settings(max_examples=200, deadline=None)
@given(LEVEL, TEXT)
def test_subgroup_and_element_parse_or_raise_value_error(level, text):
    _accepts(ALSubgroup.parse, level, text)
    _accepts(parse_element, level, text)


@settings(max_examples=300, deadline=None)
@given(
    LEVEL,
    st.sampled_from(["", " ", "\t"]),
    st.text(_ALPHABET.filter(lambda ch: ch != ","), max_size=8),
    st.sampled_from(["", " ", "\n"]),
)
@example(60, "", "12", "")
@example(60, "", "1_2", "")
@example(60, "", "+4", "")
@example(60, "", "", "")
@example(60, " ", "١٢", " ")
@example(0, "", "1", "")
def test_one_w_token_is_read_alike_by_both_parsers(level, lead, digits, trail):
    token = f"{lead}w{digits}{trail}"
    assert _accepts(ALSubgroup.parse, level, token) == _accepts(parse_element, level, token)


@pytest.mark.parametrize("token", ["w12", " w12 ", "w0012"])
def test_one_w_token_examples_agree(token):
    assert ALSubgroup.parse(60, token) == ALSubgroup(60, (12,))
    assert parse_element(60, token).name == "w12"


# a token as one whitespace-separated field carries it: no space, no '#'
TOKEN = st.text(_ALPHABET, max_size=6).filter(
    lambda t: "#" not in t and t == "".join(t.split())
)


def _cli_accepts_level(token) -> bool:
    # "--" keeps a token like "-h" from being read as an option
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(["genus", "--w", "w1", "--", token]) == 0


@settings(max_examples=200, deadline=None)
@given(TOKEN)
@example("60")
@example("0060")
@example("٦٠")
@example("6_0")
@example("+60")
@example("-4")
@example("0")
@example("")
def test_every_number_field_takes_the_decimal_tokens(token):
    decimal = _accepts(parse_decimal, token, "number")
    assert _accepts(parse_w, "w" + token) == decimal
    assert _accepts(atlas.ingest_ec_table, f"11a 11 {token}") == decimal
    assert _cli_accepts_level(token) == (decimal and parse_decimal(token, "level") >= 1)
