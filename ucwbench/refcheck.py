"""Reference computations that the benchmark checks the program's outputs against.

Nothing here imports ``ucw``: each answer is worked out from the definitions,
so a fault in the program cannot hide in its own check. Sets are bit masks,
element e at bit e-1, as in the ``.ucs`` files the program reads and writes.
"""

import math
from fractions import Fraction


class CheckError(AssertionError):
    """An output of the program disagrees with the reference."""


def expect(what, got, want):
    if got == want:
        return
    if isinstance(got, set) and isinstance(want, set):
        raise CheckError(f"{what}: {len(got)} sets, want {len(want)}; extra "
                         f"{sorted(got - want)[:5]}, missing {sorted(want - got)[:5]}")
    raise CheckError(f"{what}: got {got!r}, want {want!r}")


def conway(n):
    """a(1..n) from a(1) = a(2) = 1, a(k) = a(a(k-1)) + a(k - a(k-1))."""
    a = [0, 1, 1]
    for k in range(3, n + 1):
        a.append(a[a[k - 1]] + a[k - a[k - 1]])
    return a[1 : n + 1]


# ---------------------------------------------------------------------------
# .ucs text


def parse_ucs(text):
    """(m, rows) of a family document; a row is the tuple of its elements."""
    lines = [line for line in text.split("\n") if line and not line.startswith("#")]
    if len(lines) < 2 or lines[0] != "ucs 1" or not lines[1].startswith("m="):
        raise CheckError(f"not a family document: {text[:40]!r}")
    m = int(lines[1][2:])
    rows = [() if line == "-" else tuple(map(int, line.split(" "))) for line in lines[2:]]
    return m, rows


def mask(row):
    out = 0
    for e in row:
        out |= 1 << (e - 1)
    return out


def write_ucs(m, sets):
    """Family document with the sets in (size, value) order."""
    lines = ["ucs 1", f"m={m}"]
    for s in sorted(sets, key=lambda x: (x.bit_count(), x)):
        lines.append(" ".join(str(e + 1) for e in range(m) if s >> e & 1) or "-")
    return "\n".join(lines) + "\n"


def element_counts(m, rows):
    """How many rows name each element 1..m, counted from the parsed lines."""
    counts = [0] * m
    for row in rows:
        for e in row:
            counts[e - 1] += 1
    return counts


def mask_counts(m, sets):
    return [sum(1 for s in sets if s >> e & 1) for e in range(m)]


def max_frequency(counts):
    """(element, count) of the most frequent element, smallest element on ties."""
    top = max(counts)
    return counts.index(top) + 1, top


# ---------------------------------------------------------------------------
# Union closure


def closed_by_table(sets, m):
    """Union-closure test through the table U(X) = union of the members inside X.

    F is union-closed iff every non-empty U(X) is a member: a union of members
    inside X is one, and for members A, B the table gives U(A|B) = A|B.
    Practical for m <= 16.
    """
    members = set(sets)
    return all(u in members for u in _inner_unions(sets, m) if u)


def basis_by_table(sets, m):
    """Members that are not the union of the members strictly inside them (the
    empty set, when present, counts: the union of nothing does not reduce it)."""
    table = _inner_unions(sets, m)
    out = []
    for s in sets:
        below = 0
        rest = s
        while rest:
            low = rest & -rest
            below |= table[s ^ low]
            rest ^= low
        if s == 0 or below != s:
            out.append(s)
    return out


def _inner_unions(sets, m):
    table = [0] * (1 << m)
    for s in sets:
        table[s] = s
    for e in range(m):
        bit = 1 << e
        for x in range(1 << m):
            if x & bit:
                table[x] |= table[x ^ bit]
    return table


def closed_by_generators(sets, gens):
    """Union-closure test of a family every member of which is a union of ``gens``.

    Then F is union-closed iff A|g is a member for every member A and every
    generator g, since any union of members is reached one generator at a time.
    """
    members = set(sets)
    if not set(gens) <= members:
        raise ValueError("generators must be members")
    for s in members:
        if _union_inside(s, gens) != s:
            raise ValueError(f"member {s:#x} is not a union of the generators")
    return all(a | g in members for a in members for g in gens)


def closed_pairwise(sets):
    """Union-closure test over every pair of members."""
    return closed_by_generators(sets, list(set(sets)))


def _union_inside(s, gens):
    u = 0
    for g in gens:
        if g | s == s:
            u |= g
    return u


def one_pass_closure(gens):
    """Union closure built one generator at a time: F becomes F + {x} + {x|f}."""
    fam = set()
    for x in gens:
        fam |= {x | f for f in fam}
        fam.add(x)
    return fam


def basis_from_generators(gens):
    """Basis of the closure of ``gens``: the generators that are not the union of
    the generators strictly below them."""
    distinct = set(gens)
    return sorted(
        g for g in distinct
        if g == 0 or _union_inside(g, [h for h in distinct if h != g]) != g
    )


def separating(m, sets):
    """Distinct elements of the universe lie in distinct sets of members."""
    columns = [frozenset(i for i, s in enumerate(sets) if s >> e & 1) for e in range(m)]
    used = [c for c in columns if c]
    return len(set(used)) == len(used)


# ---------------------------------------------------------------------------
# Expected reports


def analyze_report(m, sets, closed, basis_count):
    """Every key: value line ``ucw analyze`` prints, worked out from the sets.

    ``closed`` and ``basis_count`` come from one of the closure tests above.
    """
    n = len(sets)
    counts = mask_counts(m, sets)
    nonempty = any(sets)
    sep = separating(m, sets)
    yes = {True: "true", False: "false"}
    report = {
        "n": str(n),
        "m": str(m),
        "union_closed": yes[closed],
        "separating": yes[sep],
        "basis_count": str(basis_count) if closed else "n/a",
        "max_freq": "n/a",
        "max_freq_element": "n/a",
        "conjecture": "n/a",
        "conjecture_witness": "n/a",
    }
    if nonempty:
        element, top = max_frequency(counts)
        report["max_freq"], report["max_freq_element"] = str(top), str(element)
    if not (closed and nonempty):
        return report
    half = [e for e in range(1, m + 1) if 2 * counts[e - 1] >= n]
    report["conjecture"] = "holds" if half else "violated"
    report["conjecture_witness"] = str(half[0]) if half else "n/a"
    if not sep:
        return report
    used = [e for e in range(1, m + 1) if counts[e - 1]]
    # the staircase's top element: most frequent, the larger label on ties
    top_element = max(used, key=lambda e: (counts[e - 1], e))
    report["s_table_rows"] = str(len(used))
    report["s_bound_element"] = str(top_element)
    report["s_bound_frequency"] = str(counts[top_element - 1])
    report["conjecture_holds"] = yes[bool(half)]
    if half:
        report.update(parity_ok="n/a", maxfreq_equals_n="n/a", size_bound_ok="n/a")
    else:
        odd = n % 2 == 1
        report["parity_ok"] = yes[odd]
        report["maxfreq_equals_n"] = yes[odd and max(counts) == (n - 1) // 2]
        report["size_bound_ok"] = yes[n >= 4 * len(used) - 1]
    return report


def verify_report(m, sets):
    """(exit code, lines) of ``ucw verify`` on a union-closed family."""
    counts = mask_counts(m, sets)
    half = [e for e in range(1, m + 1) if 2 * counts[e - 1] >= len(sets)]
    if half:
        return 0, {"conjecture": "holds", "witness": str(half[0])}
    return 1, {"conjecture": "violated"}


# ---------------------------------------------------------------------------
# Constructions, from their definitions


def power_set(m):
    return set(range(1 << m))


def block_upset(s, k):
    """C(s,k): every subset of [sk], plus every set holding the top element sk+1
    and at least one whole block {js+1..js+s}."""
    top = 1 << (s * k)
    blocks = [((1 << s) - 1) << (j * s) for j in range(k)]
    upper = {
        top | x for x in range(top) if any(x & b == b for b in blocks)
    }
    return power_set(s * k) | upper


def beta(n):
    """Largest element frequency of the balanced-deletion family B(n).

    B(n) deletes d = 2^k - n sets holding element k from P(k), 2^(k-1) < n <= 2^k:
    whole levels (by size) first, then part of one level, spread evenly over
    elements 1..k-1. Element k loses all d sets; the least-hit element below k
    loses the sets of the whole levels holding it plus floor(v(r-1)/(k-1)).
    """
    k = (n - 1).bit_length()
    left = (1 << k) - n
    hits = 0
    for size in range(1, k + 1):
        level = math.comb(k - 1, size - 1)
        if left < level:
            hits += left * (size - 1) // (k - 1) if k > 1 else 0
            break
        left -= level
        hits += math.comb(k - 2, size - 2) if size >= 2 else 0
    return (1 << (k - 1)) - hits


def entropy_ok(N):
    """C(2N,k) >= 2^(2N H(k/2N)) / (2N+1) at k = ceil(2N/5), in exact integers:
    2^(2N H(k/2N)) = (2N)^(2N) / (k^k (2N-k)^(2N-k))."""
    k = -(-2 * N // 5)
    rest = 2 * N - k
    return math.comb(2 * N, k) * (2 * N + 1) * k**k * rest**rest >= (2 * N) ** (2 * N)


def pad(m, sets, c):
    """(padded m, padded sets, p) of the padding transform at ratio c > 2.

    p = ceil((n - c|U|)/(c - 1)) fresh elements m+1..m+p; the added members are
    the full union without one fresh element (first p-1 of them) and the full
    union itself. p = 0 leaves the family as it is.
    """
    c = Fraction(c)
    n = len(sets)
    width = 0
    for s in sets:
        width |= s
    used = width.bit_count()
    if n <= c * used:
        return m, set(sets), 0
    p = math.ceil((n - c * used) / (c - 1))
    full = width | (((1 << p) - 1) << m)
    added = {full & ~(1 << (m + i)) for i in range(p - 1)} | {full}
    return m + p, set(sets) | added, p
