"""Structural analysis of separating union-closed families.

The central object is the staircase sub-collection S: after relabeling the
universe so frequencies are non-decreasing, the sets

    A_0 = U(F),   A_i = union of all members avoiding i   (i = 1..m-1)

are themselves members (each is a union of members), pairwise distinct, and
satisfy a staircase pattern: i is not in A_i while every j > i is. Because
element m lies in all m distinct rows, its frequency is at least m = |U(F)|,
which is the frequency bound used throughout. The domination lemma and its
corollary locate, for any sub-collection, a maximal-frequency element whose
row count in S is full (m-1 rows besides its own), the step that powers the
minimal-counterexample size bound |F| >= 4m-1.

Relabeling goes through ``core._relabel``, the one byte-table routine that
also serves ``core.separating_quotient``.
"""

from dataclasses import dataclass

from .core import (
    DomainError,
    Family,
    _relabel,
    check_conjecture,
    frequencies,
    is_separating,
    is_union_closed,
    max_frequency,
    membership_columns,
)


@dataclass(frozen=True)
class STable:
    """Rows A_0..A_{m-1} plus per-element row counts (A_0 included)."""

    m: int
    rows: tuple[int, ...]
    s_frequency: tuple[int, ...]


@dataclass(frozen=True)
class AuditReport:
    """Outcome of the minimal-counterexample deduction chain on one family.

    Only separating union-closed families are audited (others raise). The
    three deduction flags are None when the family satisfies the
    conjecture, since the deductions only constrain counterexamples.
    """

    conjecture_holds: bool
    parity_ok: bool | None
    maxfreq_equals_n: bool | None
    size_bound_ok: bool | None


def _require_separating_union_closed(f: Family, who: str) -> None:
    if not is_union_closed(f):
        raise DomainError(f"{who} requires a union-closed family")
    if not is_separating(f):
        raise DomainError(f"{who} requires a separating family (quotient first)")


def frequency_order_relabel(f: Family) -> tuple[Family, tuple[int, ...]]:
    """Rename elements so frequencies are non-decreasing in element index.

    Ties keep the original element order. Elements of [f.m] that appear in no
    member are dropped, so the result's universe is exactly covered. Returns
    the relabeled family and a permutation with perm[new-1] = old.
    """
    _require_separating_union_closed(f, "frequency_order_relabel")
    counts = frequencies(f)
    used = [e for e in range(1, f.m + 1) if counts[e - 1] > 0]
    if not used:
        raise DomainError("frequency_order_relabel requires a non-empty universe")
    order = sorted(used, key=lambda e: (counts[e - 1], e))
    new_of_old = {old: new for new, old in enumerate(order, start=1)}
    new_sets = _relabel(f.sets, f.m, new_of_old)
    return Family.from_sets(len(order), new_sets), tuple(order)


def s_collection(f: Family) -> STable:
    """The staircase sub-collection of a frequency-ordered separating family.

    Row 0 is U(F); row i is the union of all members avoiding i. Separation
    plus the frequency ordering guarantee each i in 1..m-1 has an avoiding
    member, that the staircase pattern holds, and that all rows are distinct
    members (hence m <= |F|). Row i holds j exactly when j's membership
    column has a member outside i's column, so it never holds i itself.
    """
    _require_separating_union_closed(f, "s_collection")
    counts = frequencies(f)
    if any(c == 0 for c in counts):
        raise DomainError("s_collection requires an exactly covered universe")
    if any(counts[i] > counts[i + 1] for i in range(len(counts) - 1)):
        raise DomainError("s_collection requires non-decreasing frequencies (relabel first)")
    m = f.m
    cols = membership_columns(f)
    everyone = (1 << len(f.sets)) - 1
    rows = [(1 << m) - 1]  # the universe is exactly covered
    for i in range(1, m):
        if cols[i] == everyone:
            raise DomainError(f"element {i} has no avoiding member")
        avoiders = everyone ^ cols[i]
        rows.append(sum(1 << (j - 1) for j, col in cols.items() if col & avoiders))
    members = set(f.sets)
    for i, row in enumerate(rows):
        if row not in members:
            raise DomainError(f"row A_{i} is not a member (family not union-closed?)")
        expected_tail = ((1 << m) - 1) ^ ((1 << i) - 1)  # all of U for A_0
        if row & expected_tail != expected_tail:
            raise DomainError(f"staircase broken: some j > {i} missing from A_{i}")
    s_freq = tuple(
        sum(1 for row in rows if row >> (e - 1) & 1) for e in range(1, m + 1)
    )
    return STable(m, tuple(rows), s_freq)


def dominates(f: Family, b: int, c: int) -> bool:
    """True iff every member containing c also contains b.

    Equivalent to c not lying in the universe of the b-avoiding sub-family,
    and to c's membership column lying inside b's.
    """
    cols = membership_columns(f)
    for e in (b, c):
        if e not in cols:
            raise DomainError(f"element {e} not in the universe")
    return not cols[c] & ~cols[b]


def _domination_walk(table: STable, current: int) -> int:
    """Lemma 1's walk: while ``current`` has fewer than m-1 rows, step to the
    least j above it whose row avoids it (so j dominates it). Indices
    strictly increase below m, and element m lies in all m rows, so the walk
    ends at an element whose row count is m-1."""
    m = table.m
    while table.s_frequency[current - 1] < m - 1:
        above = [j for j in range(current + 1, m) if not table.rows[j] >> (current - 1) & 1]
        assert above, "staircase guarantees an avoiding row above"
        current = above[0]
    return current


def lemma1_witness(f: Family, i: int) -> int | None:
    """An element with full row count that dominates i, or None if i already has it.

    Requires a frequency-ordered separating union-closed family (the same
    preconditions as :func:`s_collection`). When i's row count is short there
    is a j > i whose row avoids i, so j dominates i; the domination walk
    iterates from j.
    """
    table = s_collection(f)
    m = table.m
    if not 1 <= i <= m - 1:
        raise DomainError(f"lemma1_witness needs i in 1..{m - 1}, got {i}")
    if table.s_frequency[i - 1] >= m - 1:
        return None
    return _domination_walk(table, i)


def corollary1_witness(f: Family, sub: Family) -> int:
    """A maximal-frequency element of ``sub`` with full row count in f's staircase.

    ``sub`` must be a non-empty sub-collection of f over the same universe.
    The domination walk starts from the smallest maximal-frequency element of
    ``sub``; each element it hands back dominates the one before, so it
    contains every member of ``sub`` containing the original one and is
    therefore also of maximal frequency.
    """
    if not sub.sets:
        raise DomainError("corollary1_witness requires a non-empty sub-collection")
    members = set(f.sets)
    if sub.m != f.m or any(s not in members for s in sub.sets):
        raise DomainError("sub must be a sub-collection of f")
    table = s_collection(f)
    element, _ = max_frequency(sub)
    return _domination_walk(table, element)


def s_frequency_bound(f: Family) -> tuple[int, int]:
    """(element, count) with count >= |U(f)| for a separating union-closed family.

    The element landing on the top staircase position lies in all m distinct
    rows, so its frequency is at least m.
    """
    relabeled, perm = frequency_order_relabel(f)
    s_collection(relabeled)  # validates the staircase; rows are m distinct members
    old = perm[relabeled.m - 1]
    count = frequencies(f)[old - 1]
    assert count >= relabeled.m
    return (old, count)


def minimal_counterexample_audit(f: Family) -> AuditReport:
    """Check one family against the conjecture and the counterexample deductions.

    Raises DomainError unless f is separating and union-closed. For a
    satisfying family only ``conjecture_holds`` is filled. For a violating
    family (none is expected at desk scale) the deduction chain for
    a minimal counterexample is evaluated: odd size, maximal frequency exactly
    (|F|-1)/2, and |F| >= 4m-1.
    """
    _require_separating_union_closed(f, "minimal_counterexample_audit")
    verdict = check_conjecture(f)
    if verdict.holds:
        return AuditReport(
            conjecture_holds=True,
            parity_ok=None,
            maxfreq_equals_n=None,
            size_bound_ok=None,
        )
    n = len(f.sets)
    m = len(membership_columns(f))  # |U(f)|
    _, top = max_frequency(f)
    parity_ok = n % 2 == 1
    maxfreq_equals_n = parity_ok and top == (n - 1) // 2
    size_bound_ok = n >= 4 * m - 1
    return AuditReport(
        conjecture_holds=False,
        parity_ok=parity_ok,
        maxfreq_equals_n=maxfreq_equals_n,
        size_bound_ok=size_bound_ok,
    )
