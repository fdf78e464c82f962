"""Core value types and predicates for finite set families over a bounded universe.

A member set is a bit mask (``SetMask`` = plain ``int``): element i of the
universe [m] lives at bit i-1, so ``{1,3}`` is ``0b101``. The universe is
capped at 64 elements so a mask always fits one machine word.

A :class:`Family` is an immutable, deduplicated collection of masks in
*canonical order*: ascending cardinality, ties broken by ascending numeric
mask value. All operations in this module are functions on Python integers,
with no package beyond the standard library. A family caches two derived
facts on first use, its closure scan and its membership columns; both are
deterministic, so a thread race only computes one of them twice.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby, pairwise, starmap
from operator import lt

MAX_UNIVERSE = 64

SetMask = int


class CapacityError(ValueError):
    """Universe size or materialization size outside supported bounds."""


class DomainError(ValueError):
    """Operation precondition violated (wrong kind of family or element)."""


def mask_of(elements) -> SetMask:
    """Mask for an iterable of 1-based elements."""
    m = 0
    for e in elements:
        m |= 1 << (e - 1)
    return m


def elements_of(mask: SetMask) -> tuple[int, ...]:
    """1-based elements of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def canonical_key(mask: SetMask) -> tuple[int, int]:
    """Sort key realizing canonical order: (cardinality, numeric value)."""
    return (mask.bit_count(), mask)


def _check_universe(m: int) -> None:
    if not 1 <= m <= MAX_UNIVERSE:
        raise CapacityError(f"universe size must be in 1..{MAX_UNIVERSE}, got {m}")


def _in_range_and_canonical(sets, limit: int) -> bool:
    """True iff every mask is in [0, limit) and the masks strictly ascend in
    canonical order. Python loops only over the runs of equal cardinality,
    at most 65; the masks inside a run are compared pairwise in C."""
    if sets and not (min(sets) >= 0 and max(sets) < limit):
        return False
    prev_count = -1
    for count, run in groupby(sets, int.bit_count):
        if count <= prev_count or not all(starmap(lt, pairwise(run))):
            return False
        prev_count = count
    return True


# _BIT_DIGITS[k] maps a byte to b"1" if its bit k is set, else to b"0"
_BIT_DIGITS = [
    bytes.maketrans(bytes(range(256)), bytes(48 + (b >> k & 1) for b in range(256)))
    for k in range(8)
]


@dataclass(frozen=True)
class Family:
    """A deduplicated set family in canonical order over universe [m].

    Construct via :meth:`from_sets` (which sorts and deduplicates) unless the
    input is already canonical; the constructor validates its invariants.
    """

    m: int
    sets: tuple[SetMask, ...]

    def __post_init__(self):
        _check_universe(self.m)
        limit = 1 << self.m
        if _in_range_and_canonical(self.sets, limit):
            return
        # the first offending set decides the error
        prev_key = None
        for s in self.sets:
            if not 0 <= s < limit:
                raise CapacityError(
                    f"set {s:#x} has elements outside universe [{self.m}]"
                )
            key = canonical_key(s)
            if prev_key is not None and key <= prev_key:
                raise DomainError("sets not in canonical order or duplicated")
            prev_key = key

    @classmethod
    def from_sets(cls, m: int, sets) -> "Family":
        """Build a family from any iterable of masks; dedups and sorts."""
        # by value, then stably by cardinality: canonical order
        return cls(m, tuple(sorted(sorted(set(sets)), key=int.bit_count)))

    @classmethod
    def from_lists(cls, m: int, lists) -> "Family":
        """Build a family from iterables of 1-based elements."""
        return cls.from_sets(m, (mask_of(els) for els in lists))

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    @cached_property
    def _basis(self) -> tuple[SetMask, ...] | None:
        """The basis sets if the family is union-closed, else ``None``.

        Walks the members in canonical order, keeping ``closed``, the union
        closure of the members seen so far. A member already in ``closed`` is
        a union of strictly smaller members; any other member is a basis set
        and joins ``closed`` in one pass. ``closed`` only ever holds unions of
        members and ends up holding every member, so the family is
        union-closed exactly when no pass adds a non-member. The cost is about
        n·|basis| set operations.
        """
        present = set(self.sets)
        closed: set[int] = set()
        basis = []
        for s in self.sets:
            if s in closed:
                continue
            new = _union_augment(closed, s)
            if not new <= present:
                return None
            closed |= new
            basis.append(s)
        return tuple(basis)

    @cached_property
    def _columns(self) -> dict[int, int]:
        """For each element of the universe, the bitmask of member indices holding it.

        One pass per 8 elements takes each member's byte at that offset, last
        member first; for each bit of the byte, translating those bytes gives
        the column as a string of binary digits, which int() reads in linear
        time.
        """
        cols: dict[int, int] = {}
        if not self.sets:
            return cols
        for shift in range(0, self.m, 8):
            row = bytes([s >> shift & 255 for s in reversed(self.sets)])
            for k in range(min(8, self.m - shift)):
                col = int(row.translate(_BIT_DIGITS[k]), 2)
                if col:
                    cols[shift + k + 1] = col
        return cols


def power_set_family(m: int) -> Family:
    """All 2^m subsets of [m] as a family."""
    _check_universe(m)
    if m > 24:
        raise CapacityError(f"refusing to materialize 2^{m} sets")
    return Family.from_sets(m, range(1 << m))


def _union_augment(closed, x: SetMask) -> set[int]:
    """The sets that join the union-closed ``closed`` when ``x`` is added.

    ``x`` must not be a member. For a union-closed F the closure of F + {x}
    is exactly F ∪ {x} ∪ {x|f : f ∈ F}, so one pass over F suffices: the
    union of x|f with a member g or with x|g is x|(f|g), and f|g ∈ F.
    """
    new = {x}
    for f in closed:
        u = x | f
        if u not in closed:
            new.add(u)
    return new


def close_under_union(generators, m: int) -> Family:
    """Smallest union-closed family over [m] containing all generator masks.

    Adds the generators one at a time, each closed in one pass over the
    family built so far. The generators are members of the result.
    """
    _check_universe(m)
    limit = 1 << m
    closed: set[int] = set()
    for g in generators:
        if not 0 <= g < limit:
            raise CapacityError(f"generator {g:#x} outside universe [{m}]")
        if g not in closed:
            closed |= _union_augment(closed, g)
    return Family.from_sets(m, closed)


def is_union_closed(f: Family) -> bool:
    """True iff the union of every pair of members is a member; see Family._basis."""
    return f._basis is not None


def universe_of(f: Family) -> SetMask:
    """Bitwise OR of all members; the empty mask for an empty family."""
    u = 0
    for s in f.sets:
        u |= s
    return u


def frequencies(f: Family) -> tuple[int, ...]:
    """Per-element membership counts; index a-1 holds the count of element a.

    The empty set contributes to no count but does count toward ``len(f)``.
    Each count is the number of set bits in the element's membership column.
    """
    cols = f._columns
    return tuple(cols.get(e, 0).bit_count() for e in range(1, f.m + 1))


def max_frequency(f: Family) -> tuple[int, int]:
    """(element, count) for the most frequent element; smallest element wins ties."""
    counts = frequencies(f)
    best = max(counts)  # f.m >= 1, so never empty
    if best == 0:
        raise DomainError("family has no non-empty member, no universe element")
    return (counts.index(best) + 1, best)


def membership_columns(f: Family) -> dict[int, int]:
    """For each element of U(f), the bitmask of member indices containing it.

    Bit k of a column stands for ``f.sets[k]``. The columns are built once
    per family (see Family._columns); each call returns a fresh copy.
    """
    return dict(f._columns)


def is_separating(f: Family) -> bool:
    """True iff distinct elements of U(f) have distinct membership columns."""
    cols = f._columns
    return len(set(cols.values())) == len(cols)


def _relabel(sets, m: int, image: dict[int, int]) -> list[SetMask]:
    """Each mask over [m] with element e renamed to image[e].

    Elements missing from ``image`` are dropped. One pass per 8 elements
    looks each member's byte at that offset up in a table of the renamed
    bits of every byte value, built by doubling once per element.
    """
    out = [0] * len(sets)
    for shift in range(0, m, 8):
        table = [0]
        for e in range(shift + 1, min(shift + 8, m) + 1):
            bit = 1 << (image[e] - 1) if e in image else 0
            table += [t | bit for t in table]
        out = [t | table[s >> shift & 255] for t, s in zip(out, sets)]
    return out


def separating_quotient(f: Family) -> tuple[Family, dict[int, int]]:
    """Merge elements with identical membership columns.

    Returns the quotient family and a mapping from each element of U(f) to
    its class label in the quotient. Classes are labelled 1..m' in order of
    their smallest original element, so the member count, the union-closure
    status and the multiset of per-class frequencies are all preserved.
    """
    cols = f._columns
    by_col: dict[int, int] = {}
    for e in sorted(cols):
        by_col.setdefault(cols[e], e)
    reps = sorted(by_col.values())
    new_label = {rep: i + 1 for i, rep in enumerate(reps)}
    mapping = {e: new_label[by_col[cols[e]]] for e in cols}
    m2 = max(1, len(reps))
    return Family.from_sets(m2, _relabel(f.sets, f.m, mapping)), mapping


def basis_sets(f: Family) -> tuple[SetMask, ...]:
    """The union-irreducible members: those not equal to a union of other members.

    The union over an empty collection does not count, so the empty set (when
    present) is always a basis set. Requires a union-closed family. Returned
    in canonical order.
    """
    basis = f._basis
    if basis is None:
        raise DomainError("basis_sets requires a union-closed family")
    return basis


def restrict(f: Family, a: int, contains: bool) -> Family:
    """The sub-family of members that contain (or avoid) element a.

    Both halves of the split are union-closed whenever the input is.
    """
    if not 1 <= a <= f.m:
        raise DomainError(f"element {a} outside universe [{f.m}]")
    bit = 1 << (a - 1)
    if contains:
        kept = [s for s in f.sets if s & bit]
    else:
        kept = [s for s in f.sets if not s & bit]
    return Family(f.m, tuple(kept))


@dataclass(frozen=True)
class ConjectureVerdict:
    holds: bool
    witness: int | None


def check_conjecture(f: Family) -> ConjectureVerdict:
    """Does some element lie in at least half of the members?

    Integer arithmetic only: holds iff 2*count >= len(f) for some element;
    the witness is the smallest such element. Requires a union-closed family
    with at least one non-empty member.
    """
    if not any(f.sets):
        raise DomainError("check_conjecture requires a non-empty member set")
    if not is_union_closed(f):
        raise DomainError("check_conjecture requires a union-closed family")
    n = len(f.sets)
    for e, count in enumerate(frequencies(f), start=1):
        if 2 * count >= n:
            return ConjectureVerdict(True, e)
    return ConjectureVerdict(False, None)
