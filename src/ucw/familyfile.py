"""Plain-text interchange format for set families.

Document layout (7-bit text, LF-separated lines)::

    ucs 1
    m=5
    -
    1
    1 2
    # comment lines are ignored anywhere

Lines count from 1, comment lines (starting with ``#``) included, and error
line numbers count them; the final LF is optional. The first two non-comment
lines are the format+version header and the universe size m (1..64). Every
later non-comment line is one member set: ``-`` for the empty set, else
strictly increasing elements of 1..m joined by single spaces, each checked
for order before range; so a blank line is a malformed set line anywhere.
Numbers are ASCII decimal digits only (``[0-9]+``), so a sign, a space, ``_``,
a non-ASCII digit or a trailing ``\r`` is rejected; leading zeros of any
length are accepted (``01 3`` is {1, 3}), and a number past its range is out
of range however many digits it has. Duplicate sets are rejected, also when
their lines differ only in leading zeros. Parsing always yields a canonically
ordered family, so ``parse(serialize(f)) == f`` and serializing a parse
canonicalizes the input.
"""

import re
from itertools import repeat
from operator import add, and_, rshift

from .core import MAX_UNIVERSE, Family

HEADER = "ucs 1"

# stable error codes, one per rejection class
BAD_HEADER = "bad-header"
M_OUT_OF_RANGE = "m-out-of-range"
BAD_SET_LINE = "bad-set-line"
ELEMENT_ORDER = "element-order"
ELEMENT_OUT_OF_RANGE = "element-out-of-range"
DUPLICATE_SET = "duplicate-set"
EMPTY_BODY = "empty-body"

_NUMBERS = re.compile(r"[0-9]+(?: [0-9]+)*")
# a number of _DIGITS digits or more past its leading zeros is past
# MAX_UNIVERSE, and so is the value of those first _DIGITS digits
_DIGITS = len(str(MAX_UNIVERSE)) + 1


class FamilyParseError(ValueError):
    """Strict-parse failure; ``code`` is one of the module-level constants."""

    def __init__(self, code: str, message: str, line_no: int | None = None):
        self.code = code
        self.line_no = line_no
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{code}: {message}{where}")


def _numbers(text: str) -> list[tuple[str, int]] | None:
    """The numbers in ``text`` if it is ``[0-9]+`` tokens joined by single
    spaces, else ``None``: each as its digits past the leading zeros and
    the value of their first ``_DIGITS``, which no int-digit limit refuses.
    int() alone would also take signs, padding, '_' and non-ASCII digits."""
    if not _NUMBERS.fullmatch(text):
        return None
    digits = [token.lstrip("0") or "0" for token in text.split(" ")]
    return [(d, int(d[:_DIGITS])) for d in digits]


def _line_mask(line: str, line_no: int, m: int) -> int:
    """The mask of one set line, read element by element; raises the line's
    FamilyParseError. This reader decides every line the token table in
    :func:`parse_family` does not accept: ``-``, leading zeros, and every
    malformed line."""
    elements = [] if line == "-" else _numbers(line)
    if elements is None:
        raise FamilyParseError(BAD_SET_LINE, f"bad set line {line!r}", line_no)
    mask = 0
    prev = 0
    for digits, e in elements:
        if e <= prev:
            raise FamilyParseError(
                ELEMENT_ORDER,
                f"elements must be strictly increasing, got {e} after {prev}",
                line_no,
            )
        if e > m:
            raise FamilyParseError(
                ELEMENT_OUT_OF_RANGE, f"element {digits} > m={m}", line_no
            )
        mask |= 1 << (e - 1)
        prev = e
    return mask


def parse_family(text: str) -> Family:
    """Parse a family document; raises FamilyParseError with a stable code."""
    rows = text.split("\n")
    # a final LF leaves one empty entry after it, which is no line
    if rows[-1] == "":
        rows.pop()
    lines = ((no, line) for no, line in enumerate(rows, 1) if not line.startswith("#"))
    line_no, line = next(lines, (1, "<empty>"))
    if line != HEADER:
        raise FamilyParseError(BAD_HEADER, f"expected {HEADER!r}, got {line!r}", line_no)
    line_no, line = next(lines, (line_no + 1, ""))
    m_value = _numbers(line[2:]) if line.startswith("m=") else None
    if m_value is None or len(m_value) != 1:
        raise FamilyParseError(BAD_HEADER, f"expected 'm=<int>', got {line!r}", line_no)
    [(digits, m)] = m_value
    if not 1 <= m <= MAX_UNIVERSE:
        raise FamilyParseError(M_OUT_OF_RANGE, f"m must be in 1..{MAX_UNIVERSE}, got {digits}", line_no)

    # the bit of each element's canonical token; a line it cannot read whole,
    # or whose bits are out of order or repeated, goes to the strict reader
    token_bit = {str(e): 1 << (e - 1) for e in range(1, m + 1)}.__getitem__
    seen: set[int] = set()
    for line_no, line in lines:
        try:
            bits = list(map(token_bit, line.split(" ")))
        except KeyError:
            bits = []
        mask = sum(bits)
        # ascending bits whose sum carries nothing are strictly increasing elements
        if not bits or bits != sorted(bits) or mask.bit_count() != len(bits):
            mask = _line_mask(line, line_no, m)
        if mask in seen:
            raise FamilyParseError(DUPLICATE_SET, f"set {line!r} repeated", line_no)
        seen.add(mask)
    if not seen:
        raise FamilyParseError(EMPTY_BODY, "no set lines")
    return Family.from_sets(m, seen)


def serialize_family(f: Family) -> str:
    """Canonical rendering; byte-stable for equal families.

    Builtins do the per-set work. For each 8-element block the texts of all
    256 byte values are built by doubling: with element e the table gains a
    copy of itself with " e" appended, so entry b holds " e" for each bit of
    b. A line is the concatenation of its blocks' entries, less the leading
    space; ∅, which can only be the first member, renders empty and becomes
    ``-``.
    """
    for base in range(0, f.m, 8):
        table = [""]
        for token in map(" {}".format, range(base + 1, base + 9)):
            table += [t + token for t in table]
        blocks = map(rshift, f.sets, repeat(base)) if base else f.sets
        if base + 8 < f.m:  # clear the bits of later blocks
            blocks = map(and_, blocks, repeat(255))
        texts = map(table.__getitem__, blocks)
        lines = map(add, lines, texts) if base else texts
    out = [HEADER, f"m={f.m}", *map(str.lstrip, lines), ""]
    if f.sets and not f.sets[0]:
        out[2] = "-"
    return "\n".join(out)


def load_family(path) -> Family:
    """Parse a family file; a byte that is not UTF-8 reaches the parser as a
    lone surrogate, so any non-ASCII byte fails with a stable code. Line
    ends are not translated, so a CR reaches the parser and is rejected."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        return parse_family(fh.read())


def save_family(path, f: Family) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_family(f))
