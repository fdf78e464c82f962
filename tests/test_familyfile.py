import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucw.core import Family, close_under_union, elements_of
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
        # more digits than int() converts
        pytest.param("ucs 1\nm=" + "0" * 5000 + "3\n1\n", BAD_HEADER, id="long-m"),
        pytest.param("ucs 1\nm=3\n" + "0" * 5000 + "1\n", BAD_SET_LINE, id="long-element"),
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
    lines = [" ".join(map(str, elements_of(s))) or "-" for s in fam.sets]
    assert serialize_family(fam) == "\n".join(["ucs 1", f"m={m}", *lines]) + "\n"
