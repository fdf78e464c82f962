import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucw.core import MAX_UNIVERSE, Family, close_under_union, elements_of
from ucw.familyfile import (
    BAD_HEADER,
    BAD_SET_LINE,
    DUPLICATE_SET,
    ELEMENT_ORDER,
    ELEMENT_OUT_OF_RANGE,
    EMPTY_BODY,
    M_OUT_OF_RANGE,
    FamilyParseError,
    parse_family,
    serialize_family,
)


def test_parse_basic():
    fam = parse_family("ucs 1\nm=2\n-\n1\n1 2\n")
    assert fam == Family.from_lists(2, [[], [1], [1, 2]])


def test_parse_canonicalizes_input_order():
    fam = parse_family("ucs 1\nm=2\n1 2\n1\n-\n")
    assert fam.sets == (0, 1, 3)


def test_parse_comments_ignored():
    fam = parse_family("# leading\nucs 1\n# mid\nm=1\n1\n# trailing\n")
    assert fam == Family.from_lists(1, [[1]])


def test_serialize_example():
    fam = Family.from_lists(2, [[1, 2], [1], []])
    assert serialize_family(fam) == "ucs 1\nm=2\n-\n1\n1 2\n"


def test_serialize_power_set_order():
    fam = Family.from_sets(2, range(4))
    assert serialize_family(fam) == "ucs 1\nm=2\n-\n1\n2\n1 2\n"


@pytest.mark.parametrize(
    "text,code",
    [
        ("", BAD_HEADER),
        ("ucs 2\nm=1\n1\n", BAD_HEADER),
        ("ucs 1\nn=1\n1\n", BAD_HEADER),
        ("ucs 1\nm=zero\n1\n", BAD_HEADER),
        ("ucs 1\nm=0\n-\n", M_OUT_OF_RANGE),
        ("ucs 1\nm=65\n1\n", M_OUT_OF_RANGE),
        ("ucs 1\nm=2\n2 1\n", ELEMENT_ORDER),
        ("ucs 1\nm=2\n1 1\n", ELEMENT_ORDER),
        ("ucs 1\nm=2\n1 3\n", ELEMENT_OUT_OF_RANGE),
        ("ucs 1\nm=2\n1\n1\n", DUPLICATE_SET),
        ("ucs 1\nm=2\n-\n-\n", DUPLICATE_SET),
        ("ucs 1\nm=2\n", EMPTY_BODY),
        ("ucs 1\nm=2\n1  2\n", BAD_SET_LINE),
        ("ucs 1\nm=2\nx\n", BAD_SET_LINE),
        ("ucs 1\nm= 3\n1\n", BAD_HEADER),
        ("ucs 1\nm=+3\n1\n", BAD_HEADER),
        ("ucs 1\nm=\u0661\n1\n", BAD_HEADER),
        ("ucs 1\nm=3\r\n1\n", BAD_HEADER),
        ("ucs 1\nm=1_0\n1\n", BAD_HEADER),
        ("ucs 1\nm=3\n+1\n", BAD_SET_LINE),
        ("ucs 1\nm=3\n\u0661\n", BAD_SET_LINE),
        ("ucs 1\nm=3\n1\r\n", BAD_SET_LINE),
        ("ucs 1\nm=3\n-\r\n", BAD_SET_LINE),
        ("ucs 1\nm=12\n1_0\n", BAD_SET_LINE),
        ("ucs 1\nm=2\n0 1\n", ELEMENT_ORDER),
        ("ucs 1\nm=3 4\n1\n", BAD_HEADER),
        # more digits than int() converts by default: out of range by value
        pytest.param("ucs 1\nm=" + "9" * 5000 + "\n1\n", M_OUT_OF_RANGE, id="long-m"),
        pytest.param("ucs 1\nm=3\n" + "9" * 5000 + "\n", ELEMENT_OUT_OF_RANGE, id="long-element"),
    ],
)
def test_parse_error_codes(text, code):
    with pytest.raises(FamilyParseError) as err:
        parse_family(text)
    assert err.value.code == code


def test_roundtrip_parse_serialize_identity():
    text = "ucs 1\nm=3\n-\n2\n1 3\n1 2 3\n"
    fam = parse_family(text)
    assert serialize_family(fam) == text


@settings(max_examples=80, deadline=None)
@given(m=st.integers(min_value=1, max_value=8), data=st.data())
def test_roundtrip_random_families(m, data):
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << m) - 1), min_size=1, max_size=5)
    )
    fam = close_under_union(gens, m)
    assert parse_family(serialize_family(fam)) == fam


@settings(max_examples=80, deadline=None)
@given(m=st.integers(min_value=1, max_value=64), data=st.data())
def test_serialize_matches_per_element_rendering(m, data):
    # the per-byte text tables against one str(e) per element, on every
    # byte offset up to m = 64
    sets = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << m) - 1), min_size=1, max_size=8)
    )
    fam = Family.from_sets(m, sets)
    assert serialize_family(fam) == _per_element_rendering(fam)


def _per_element_rendering(fam: Family) -> str:
    lines = [" ".join(map(str, elements_of(s))) or "-" for s in fam.sets]
    return "\n".join(["ucs 1", f"m={fam.m}", *lines]) + "\n"


@pytest.mark.parametrize("m", [1, 7, 8, 9, 16, 17, 63, 64])
def test_serialize_block_edges_match_per_element_rendering(m):
    # ∅ and full masks, the end elements and every singleton, on either
    # side of each byte block's edge
    full = (1 << m) - 1
    singletons = [[1 << i] for i in range(m)]
    families = [
        Family.from_sets(m, sets)
        for sets in [[0], [full], [0, full], [1, 1 << (m - 1)], *singletons,
                     [1 << i for i in range(m)], [0, *(1 << i for i in range(m))]]
    ]
    for fam in families:
        assert serialize_family(fam) == _per_element_rendering(fam)
        assert parse_family(serialize_family(fam)) == fam
    assert serialize_family(Family(m, ())) == f"ucs 1\nm={m}\n"


@pytest.mark.parametrize(
    "text,sets",
    [
        ("ucs 1\nm=3\n01 3\n", (0b101,)),
        ("ucs 1\nm=12\n002 010 012\n-\n", (0, 0b101000000010)),
        # more digits than int() converts by default
        pytest.param("ucs 1\nm=" + "0" * 5000 + "3\n1\n", (0b1,), id="long-m-zeros"),
        pytest.param("ucs 1\nm=3\n" + "0" * 5000 + "1\n", (0b1,), id="long-element-zeros"),
    ],
)
def test_parse_accepts_leading_zeros(text, sets):
    assert parse_family(text).sets == sets


def test_long_numbers_read_alike_under_every_int_digit_limit(int_digit_limit):
    zeros, nines = "0" * 5000, "9" * 5000
    assert parse_family(f"ucs 1\nm={zeros}3\n{zeros}1 {zeros}3\n").sets == (0b101,)
    for text, message in [
        (f"ucs 1\nm={nines}\n1\n", f"m-out-of-range: m must be in 1..64, got {nines} (line 2)"),
        (f"ucs 1\nm=3\n1 {nines}\n", f"element-out-of-range: element {nines} > m=3 (line 3)"),
        (f"ucs 1\nm=3\n{zeros}3 {zeros}2\n",
         "element-order: elements must be strictly increasing, got 2 after 3 (line 3)"),
    ]:
        # a message names a number by its digits, which needs no str() of an int
        with pytest.raises(FamilyParseError) as err:
            parse_family(text)
        assert str(err.value) == message


@pytest.mark.parametrize(
    "text,code,line_no",
    [
        ("ucs 1\nm=3\n1\n\n2\n", BAD_SET_LINE, 4),
        ("ucs 1\nm=3\n1 2 \n", BAD_SET_LINE, 3),
        ("ucs 1\nm=3\n1 2\n# 1 2\n1 02\n", DUPLICATE_SET, 5),
        ("ucs 1\nm=3\n3\n1 3 2\n", ELEMENT_ORDER, 4),
        ("ucs 1\nm=3\n1 4\n", ELEMENT_OUT_OF_RANGE, 3),
        # a blank line stays a set line when only comments follow it
        ("ucs 1\nm=2\n1\n\n# c", BAD_SET_LINE, 4),
        ("ucs 1\nm=2\n\n# c", BAD_SET_LINE, 3),
        # header lines are numbered like set lines, comments counted
        ("# c\nucs 2\nm=2\n1\n", BAD_HEADER, 2),
        ("# x\nucs 1\n# y\nm=x\n1\n", BAD_HEADER, 4),
        ("# x\nucs 1\n# y", BAD_HEADER, 3),
        ("", BAD_HEADER, 1),
    ],
)
def test_parse_error_line_numbers(text, code, line_no):
    with pytest.raises(FamilyParseError) as err:
        parse_family(text)
    assert (err.value.code, err.value.line_no) == (code, line_no)


_REF_NUMBERS = re.compile(r"[0-9]+(?: [0-9]+)*")


def _reference_parse(text):
    """The element-by-element reader: every set line through the regex and
    one int() per element, so it reads only numbers int() converts."""

    def numbers(s):
        if not _REF_NUMBERS.fullmatch(s):
            return None
        return [int(token) for token in s.split(" ")]

    # the empty entry after a final LF is dropped from the raw split, before
    # comments are, so a blank line followed only by comments stays a line
    rows = text[:-1].split("\n") if text.endswith("\n") else text.split("\n")
    lines = [(i + 1, line) for i, line in enumerate(rows) if not line.startswith("#")]
    if not lines or lines[0][1] != "ucs 1":
        no, got = lines[0] if lines else (1, "<empty>")
        raise FamilyParseError(BAD_HEADER, f"expected {'ucs 1'!r}, got {got!r}", no)
    m_no, m_line = lines[1] if len(lines) > 1 else (lines[0][0] + 1, "")
    m_value = numbers(m_line[2:]) if m_line.startswith("m=") else None
    if m_value is None or len(m_value) != 1:
        raise FamilyParseError(BAD_HEADER, f"expected 'm=<int>', got {m_line!r}", m_no)
    m = m_value[0]
    if not 1 <= m <= MAX_UNIVERSE:
        raise FamilyParseError(M_OUT_OF_RANGE, f"m must be in 1..{MAX_UNIVERSE}, got {m}", m_no)
    seen = set()
    for line_no, line in lines[2:]:
        elements = [] if line == "-" else numbers(line)
        if elements is None:
            raise FamilyParseError(BAD_SET_LINE, f"bad set line {line!r}", line_no)
        mask = 0
        prev = 0
        for e in elements:
            if e <= prev:
                raise FamilyParseError(
                    ELEMENT_ORDER,
                    f"elements must be strictly increasing, got {e} after {prev}",
                    line_no,
                )
            if e > m:
                raise FamilyParseError(ELEMENT_OUT_OF_RANGE, f"element {e} > m={m}", line_no)
            mask |= 1 << (e - 1)
            prev = e
        if mask in seen:
            raise FamilyParseError(DUPLICATE_SET, f"set {line!r} repeated", line_no)
        seen.add(mask)
    if not seen:
        raise FamilyParseError(EMPTY_BODY, "no set lines")
    return Family.from_sets(m, seen)


def _outcome(parse, text):
    try:
        return parse(text)
    except FamilyParseError as err:
        return (err.code, err.line_no, str(err))


_MUTATIONS = [
    "leading-zero", "repeat", "swap", "above-m", "plus", "trailing-space",
    "blank", "cr", "dash-junk", "copy-line", "comment",
]


def _mutate(kind, tokens, m, data):
    """One set line, as tokens of a canonical line, broken by ``kind``."""
    i = data.draw(st.integers(min_value=0, max_value=max(len(tokens) - 1, 0)))
    if kind == "leading-zero" and tokens:
        tokens[i] = "0" * data.draw(st.integers(min_value=1, max_value=3)) + tokens[i]
    elif kind == "repeat" and tokens:
        tokens.insert(i, tokens[i])
    elif kind == "swap" and len(tokens) > 1:
        j = data.draw(st.integers(min_value=0, max_value=len(tokens) - 1))
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif kind == "above-m":
        tokens.insert(i, str(m + data.draw(st.integers(min_value=1, max_value=70))))
    elif kind == "plus" and tokens:
        tokens[i] = "+" + tokens[i]
    elif kind == "trailing-space":
        return " ".join(tokens) + " "
    elif kind == "blank":
        return ""
    elif kind == "cr":
        return (" ".join(tokens) or "-") + "\r"
    elif kind == "dash-junk":
        return "-" + data.draw(st.sampled_from(["-", " ", "x", " 1", "0", "\r"]))
    elif kind == "comment":
        return "# " + " ".join(tokens)
    return " ".join(tokens) or "-"


@settings(max_examples=400, deadline=None)
@given(m=st.integers(min_value=1, max_value=64), data=st.data())
def test_parse_matches_element_by_element_reference(m, data):
    masks = st.integers(min_value=0, max_value=(1 << m) - 1)
    # documents from almost all canonical lines to almost all mutated ones
    kinds = ["canonical"] * data.draw(st.integers(min_value=1, max_value=40)) + _MUTATIONS
    lines = []
    for s in data.draw(st.lists(masks, min_size=1, max_size=12)):
        tokens = [str(e) for e in elements_of(s)]
        kind = data.draw(st.sampled_from(kinds))
        if kind == "copy-line" and lines:
            lines.append(data.draw(st.sampled_from(lines)))
        else:
            lines.append(_mutate(kind, tokens, m, data))
    text = "\n".join(["ucs 1", f"m={m}", *lines]) + data.draw(st.sampled_from(["\n", ""]))
    want = _outcome(_reference_parse, text)
    assert _outcome(parse_family, text) == want


def _grammar_outcome(text):
    """What the module docstring's grammar makes of ``text``: a Family, or
    the ``(code, line_no)`` of the first rule it breaks."""
    rows = text.split("\n")
    if text.endswith("\n"):
        del rows[-1]  # the final LF ends the last line; it starts none
    numbered = [(no, row) for no, row in enumerate(rows, 1) if row[:1] != "#"]
    if not numbered or numbered[0][1] != "ucs 1":
        return (BAD_HEADER, numbered[0][0] if numbered else 1)
    if len(numbered) < 2:
        return (BAD_HEADER, numbered[0][0] + 1)
    no, row = numbered[1]
    digits = row[2:]
    if row[:2] != "m=" or not (digits.isascii() and digits.isdigit()):
        return (BAD_HEADER, no)
    m = int(digits)
    if not 1 <= m <= 64:
        return (M_OUT_OF_RANGE, no)
    masks = set()
    for no, row in numbered[2:]:
        tokens = [] if row == "-" else row.split(" ")
        if not all(t.isascii() and t.isdigit() for t in tokens):
            return (BAD_SET_LINE, no)
        mask, prev = 0, 0
        for e in map(int, tokens):
            if e <= prev:
                return (ELEMENT_ORDER, no)
            if e > m:
                return (ELEMENT_OUT_OF_RANGE, no)
            mask, prev = mask | 1 << (e - 1), e
        if mask in masks:
            return (DUPLICATE_SET, no)
        masks.add(mask)
    if not masks:
        return (EMPTY_BODY, None)
    return Family.from_sets(m, masks)


_ROWS = ["ucs 1", "m=2", "1", "2", "1 2", "2 1", "3", "01", "-", "", "# c"]


def test_parse_matches_grammar_on_every_short_document():
    # every document of at most five rows over _ROWS, with and without a
    # final LF: 354,312 documents
    mismatches = []
    for k in range(6):
        for rows in product(_ROWS, repeat=k):
            body = "\n".join(rows)
            for text in (body, body + "\n"):
                try:
                    got = parse_family(text)
                except FamilyParseError as err:
                    got = (err.code, err.line_no)
                if got != _grammar_outcome(text):
                    mismatches.append(text)
    assert mismatches == []
