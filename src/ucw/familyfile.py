"""Plain-text interchange format for set families.

Document layout (7-bit text, LF-terminated lines)::

    ucs 1
    m=5
    -
    1
    1 2
    # comment lines are ignored anywhere

Line 1 is the format+version header, line 2 the universe size (1..64).
Each remaining line is one member set: ``-`` for the empty set, otherwise
strictly increasing elements of 1..m separated by single spaces. Numbers
are ASCII decimal digits only (``[0-9]+``), so a sign, a space, ``_``, a
non-ASCII digit or a trailing ``\r`` is rejected. Leading zeros are
accepted: ``01 3`` is the set {1, 3}. Duplicate sets are rejected, also
when their lines differ only in leading zeros. Parsing always yields a
canonically ordered family, so ``parse(serialize(f)) == f`` and serializing
a parse canonicalizes the input.
"""

import re

from .core import MAX_UNIVERSE, Family, elements_of

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


class FamilyParseError(ValueError):
    """Strict-parse failure; ``code`` is one of the module-level constants."""

    def __init__(self, code: str, message: str, line_no: int | None = None):
        self.code = code
        self.line_no = line_no
        where = f" (line {line_no})" if line_no is not None else ""
        super().__init__(f"{code}: {message}{where}")


def _numbers(text: str) -> list[int] | None:
    """The numbers in ``text`` if it is ``[0-9]+`` tokens joined by single
    spaces, else ``None``. int() alone would also take signs, padding, '_'
    and non-ASCII digits."""
    if not _NUMBERS.fullmatch(text):
        return None
    try:
        return [int(token) for token in text.split(" ")]
    except ValueError:  # more digits than int() converts
        return None


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
    for e in elements:
        if e <= prev:
            raise FamilyParseError(
                ELEMENT_ORDER,
                f"elements must be strictly increasing, got {e} after {prev}",
                line_no,
            )
        if e > m:
            raise FamilyParseError(
                ELEMENT_OUT_OF_RANGE, f"element {e} > m={m}", line_no
            )
        mask |= 1 << (e - 1)
        prev = e
    return mask


def parse_family(text: str) -> Family:
    """Parse a family document; raises FamilyParseError with a stable code."""
    lines = [
        (i + 1, line)
        for i, line in enumerate(text.split("\n"))
        if not line.startswith("#")
    ]
    # a trailing newline produces one empty trailing entry; drop it
    if lines and lines[-1][1] == "":
        lines.pop()
    if not lines or lines[0][1] != HEADER:
        got = lines[0][1] if lines else "<empty>"
        raise FamilyParseError(BAD_HEADER, f"expected {HEADER!r}, got {got!r}", 1)
    if len(lines) < 2 or not lines[1][1].startswith("m="):
        raise FamilyParseError(BAD_HEADER, "expected 'm=<int>' on line 2", 2)
    m_text = lines[1][1][2:]
    m_value = _numbers(m_text)
    if m_value is None or len(m_value) != 1:
        raise FamilyParseError(BAD_HEADER, f"bad universe size {m_text!r}", 2)
    m = m_value[0]
    if not 1 <= m <= MAX_UNIVERSE:
        raise FamilyParseError(M_OUT_OF_RANGE, f"m must be in 1..{MAX_UNIVERSE}, got {m}", 2)

    # the bit of each element's canonical token; a line it cannot read whole,
    # or whose bits are out of order or repeated, goes to the strict reader
    token_bit = {str(e): 1 << (e - 1) for e in range(1, m + 1)}.__getitem__
    seen: set[int] = set()
    for line_no, line in lines[2:]:
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

    A set line is built a byte of the mask at a time: for each 8-element
    block the text of all 256 byte values is made once, and a line joins
    the pieces of the mask's non-zero bytes.
    """
    width = (f.m + 7) // 8
    pieces = [
        [" ".join(str(base + e) for e in elements_of(b)) for b in range(256)]
        for base in range(0, 8 * width, 8)
    ]
    lines = [HEADER, f"m={f.m}"]
    for s in f.sets:
        if s:
            chunks = s.to_bytes(width, "little")
            lines.append(" ".join([p[b] for p, b in zip(pieces, chunks) if b]))
        else:
            lines.append("-")
    return "\n".join(lines) + "\n"


def load_family(path) -> Family:
    """Parse a family file; a byte that is not UTF-8 reaches the parser as a
    lone surrogate, so any non-ASCII byte fails with a stable code. Line
    ends are not translated, so a CR reaches the parser and is rejected."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        return parse_family(fh.read())


def save_family(path, f: Family) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_family(f))
