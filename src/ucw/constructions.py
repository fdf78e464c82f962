"""Named constructions and closed-form bounds for union-closed families.

Three families of results live here:

* Conway's nested recurrence a(n) = a(a(n-1)) + a(n-a(n-1)) and Renaud's
  balanced-deletion family B(n) with its maximal frequency beta(n). B(n)
  starts from the power set P(k), 2^(k-1) < n <= 2^k, and deletes 2^k - n
  sets containing element k: whole size levels in ascending order, then a
  partial level whose deletion degrees on elements 1..k-1 are exactly
  balanced. beta(n) follows in closed form from the deletion schedule; the
  materialized family is the ground truth the closed form is tested against.

* Block up-set families C(s,k): the power set P(sk) joined with the up-set
  on sk+1 elements generated by k disjoint s-blocks each augmented with the
  top element sk+1, the shape of B(n) too: :func:`_join` builds both. These
  keep more small sets than B(|C|) at equal size ("holes" in the middle
  levels), which lowers the maximal frequency; the two-block series (k=2,
  block size N) realizes a gap below beta that grows with N. A
  binary-entropy estimate of binomial growth certifies the mechanism behind
  the unbounded gap.

* The padding transform: appending p fresh elements and p near-full sets
  drives the set-to-universe ratio below a chosen c > 2 while charging the
  new elements at most p members each, so a frequent element of the padded
  family already lies in the original universe. This converts a conjecture
  assumption at ratio c into a frequency bound of (c-2)/(2(c-1)) per member
  count.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    MAX_MATERIALIZED_UNIVERSE,
    MAX_UNIVERSE,
    CapacityError,
    DomainError,
    Family,
    _check_universe,
    check_conjecture,
    frequencies,
    max_frequency,
    universe_of,
)

# ---------------------------------------------------------------------------
# Conway's sequence

CONWAY_MAX_N = 10**7


def conway(limit: int) -> list[int]:
    """a(1..limit) by iterative memoization; a(n) = a(a(n-1)) + a(n-a(n-1))."""
    if limit < 1:
        raise DomainError("limit must be >= 1")
    if limit > CONWAY_MAX_N:
        raise CapacityError(f"conway capped at limit <= {CONWAY_MAX_N}")
    a = [0, 1, 1]  # 1-based; a[0] unused
    for n in range(3, limit + 1):
        prev = a[n - 1]
        a.append(a[prev] + a[n - prev])
    return a[1 : limit + 1]


def conway_properties(limit: int) -> tuple[int, str] | None:
    """First violation of 2*a(n) >= n or a(n+1)-a(n) in {0,1}, else None."""
    if limit < 2:
        raise DomainError("limit must be >= 2")
    a = conway(limit)
    for n in range(1, limit + 1):
        if 2 * a[n - 1] < n:
            return (n, f"2*a({n}) = {2 * a[n - 1]} < {n}")
    for n in range(1, limit):
        step = a[n] - a[n - 1]
        if step not in (0, 1):
            return (n, f"a({n + 1}) - a({n}) = {step}")
    return None


# ---------------------------------------------------------------------------
# Renaud's balanced-deletion family B(n) and beta(n)

RENAUD_MATERIALIZE_MAX_K = 13


@dataclass(frozen=True)
class BetaDecomposition:
    """Deletion schedule behind B(n) and beta(n).

    ``full_levels`` lists (set size, count) for wholly deleted levels of
    k-containing sets; ``r`` is the set size of the partially deleted level
    (the first untouched level when v == 0) and ``v`` the number of sets
    deleted there. Invariants: 2^(k-1) < n <= 2^k and the deletions sum to
    2^k - n, with 0 <= v < C(k-1, r-1).
    """

    n: int
    k: int
    full_levels: tuple[tuple[int, int], ...]
    r: int
    v: int

    @property
    def deleted(self) -> int:
        return sum(count for _, count in self.full_levels) + self.v


def _beta_schedule(n: int) -> BetaDecomposition:
    if n < 2:
        raise DomainError("beta/renaud_family need n >= 2")
    if n > 1 << MAX_UNIVERSE:  # before the level loop's comb calls
        raise CapacityError(f"B(n) needs k = ceil(log2 n) <= {MAX_UNIVERSE} elements")
    k = (n - 1).bit_length()
    d = (1 << k) - n
    full = []
    rem = d
    # d < 2^(k-1), the sum of the level counts, so the loop always breaks
    for size in range(1, k + 1):
        count = math.comb(k - 1, size - 1)
        if rem < count:
            break
        full.append((size, count))
        rem -= count
    return BetaDecomposition(n, k, tuple(full), size, rem)


def _split_targets(targets: list[int], t: int, h: int) -> tuple[list[int], list[int]]:
    """Split a near-balanced degree vector between the (h-1)- and h-subproblems.

    ``targets`` covers the K-1 low elements; the first part must sum to
    t*(h-1), both parts must again be near-balanced (values in {floor, ceil}
    of their own averages a and b), and they must add back to ``targets``.
    One rule decides every ceiling of the first part: a target above a+b+1
    forces one (otherwise its second part would pass b+1), and the ceilings
    left go to the targets of exactly a+b+1 in element order, which pushes
    them to the smallest elements and keeps the construction deterministic.
    """
    width = len(targets)
    sum_a = t * (h - 1)
    a, na = divmod(sum_a, width)
    b = (sum(targets) - sum_a) // width
    tie = a + b + 1
    spare = na - sum(x > tie for x in targets)  # ceilings left for the ties
    part_a = []
    for x in targets:
        if x == tie and spare:
            spare -= 1
            part_a.append(a + 1)
        else:
            part_a.append(a + 1 if x > tie else a)
    part_b = [x - y for x, y in zip(targets, part_a)]
    assert all(x in (a, a + 1) for x in part_a) and sum(part_a) == sum_a
    assert all(x in (b, b + 1) for x in part_b)
    return part_a, part_b


def _balanced_select(universe: int, h: int, targets: list[int]) -> list[int]:
    """Distinct h-subset masks of [universe] with exact element degrees ``targets``.

    Recursive split on the top element: the sets containing it form an
    (h-1)-uniform subproblem, the rest an h-uniform one, with the degree
    vector divided by :func:`_split_targets`. Linear in the output size.
    """
    total = sum(targets)
    if total == 0:
        return []
    assert total % h == 0
    if h == 1:
        return [1 << e for e in range(universe) if targets[e] == 1]
    part_a, part_b = _split_targets(targets[:-1], targets[-1], h)
    top = 1 << (universe - 1)
    with_top = [m | top for m in _balanced_select(universe - 1, h - 1, part_a)]
    return with_top + _balanced_select(universe - 1, h, part_b)


def balanced_deletion(universe: int, h: int, v: int) -> list[int]:
    """v distinct h-subset masks of [universe] with degrees differing by <= 1.

    Degree ceilings land on the smallest elements, so the largest element is
    always among the least-deleted ones. Level 0 holds only the empty set.
    """
    if not 0 <= v <= math.comb(universe, h):
        raise DomainError(f"cannot delete {v} sets from a level of size "
                          f"{math.comb(universe, h)}")
    if h == 0 or v == 0:
        return [0] * v
    base, extra = divmod(v * h, universe)
    targets = [base + 1 if e < extra else base for e in range(universe)]
    return _balanced_select(universe, h, targets)


def _join(j: int, upper) -> Family:
    """P(j) with ``upper``, the sets {j+1} u h in canonical order for h in an
    up-set H of P(j). Union-closed: a union of members that takes some
    {j+1} u h is {j+1} u (h u x) with x in P(j), and h u x is in H. Canonical:
    in a size, P(j)'s members lie below 2^j and the others hold j+1, so the
    stable sort by size lists P(j)'s first and keeps both parts ascending."""
    sets = [*range(1 << j), *upper]
    sets.sort(key=int.bit_count)
    return Family._unchecked(j + 1, tuple(sets))


def renaud_family(n: int) -> Family:
    """Materialize B(n): P(k) with 2^k - n balanced deletions among k-sets."""
    if n > 1 << RENAUD_MATERIALIZE_MAX_K:  # k > K; refused before the schedule
        raise CapacityError(f"materialization capped at k <= {RENAUD_MATERIALIZE_MAX_K}")
    sched = _beta_schedule(n)
    j = sched.k - 1  # every deleted set is k together with a set of P(j)
    start = sched.deleted - sched.v  # canonical P(j) opens with the wholly deleted sets
    gone = set(balanced_deletion(j, sched.r - 1, sched.v))
    # canonical P(j) stays unnamed, so its list is freed before the join
    return _join(j, [(1 << j) | h for h in sorted(range(1 << j), key=int.bit_count)[start:]
                     if h not in gone])


def beta(n: int) -> tuple[int, BetaDecomposition]:
    """Closed-form maximal frequency of B(n), plus the deletion schedule.

    Each fully deleted level of size j removes C(k-2, j-2) sets from every
    element below k; the balanced partial level removes floor(v(r-1)/(k-1))
    from the least-hit element, which is where the maximum survives.
    """
    sched = _beta_schedule(n)
    k = sched.k
    if k == 1:
        return 1, sched
    hits = sum(math.comb(k - 2, size - 2) for size, _ in sched.full_levels if size >= 2)
    partial = (sched.v * (sched.r - 1)) // (k - 1)
    return (1 << (k - 1)) - hits - partial, sched


# ---------------------------------------------------------------------------
# Up-sets and block families

UPSET_MATERIALIZE_LIMIT = 1 << 22


def up_set(generators, m: int) -> Family:
    """All supersets (within [m]) of at least one generator."""
    gens = list(generators)
    if not gens:
        raise DomainError("up_set requires at least one generator")
    _check_universe(m)
    limit = 1 << m
    budget = 0
    for g in gens:
        if not 0 <= g < limit:
            raise CapacityError(f"generator {g:#x} outside universe [{m}]")
        budget += 1 << (m - g.bit_count())
        if budget > UPSET_MATERIALIZE_LIMIT:
            raise CapacityError("up-set too large to materialize")
    out: set[int] = set()
    full = limit - 1
    for g in gens:
        rest = full & ~g
        sub = rest
        while True:
            out.add(g | sub)
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return Family.from_sets(m, out)


@dataclass(frozen=True)
class BlockUpsetParams:
    """Block size s >= 2 and block count k >= 2, not both 2; universe sk+1."""

    s: int
    k: int

    def __post_init__(self):
        if self.s < 2 or self.k < 2:
            raise DomainError("block size and block count must both be >= 2")
        if self.s == 2 and self.k == 2:
            raise DomainError("block size and count must not both equal 2")
        if self.s * self.k + 1 > MAX_UNIVERSE:
            raise CapacityError(f"universe sk+1 exceeds {MAX_UNIVERSE}")

    @property
    def m(self) -> int:
        return self.s * self.k + 1

    def generators(self) -> list[int]:
        return _block_generators(self.s, self.k)


def _block_generators(s: int, k: int) -> list[int]:
    """The k disjoint s-blocks of [sk], each with the top element sk+1 added."""
    top = 1 << (s * k)
    block = (1 << s) - 1
    return [block << (j * s) | top for j in range(k)]


def hole_levels(params: BlockUpsetParams) -> range:
    """Sizes of the partly filled top-element levels above the generators.

    The range runs from the generators' level s+1, exclusive (it holds
    exactly the k generators and nothing lies below it), to the first full
    level k(s-1)+2, also exclusive. A top-element set of size L is a member
    iff its other L-1 elements hold a whole block; some (L-1)-set holds one
    when L-1 >= s and some holds none when L-1 <= k(s-1), so each level from
    s+2 to k(s-1)+1 holds some but not all top-element sets of its size. The
    range is never empty: s < k(s-1) fails for s, k >= 2 only at s = k = 2.
    """
    return range(params.s + 2, params.k * (params.s - 1) + 2)


def _block_family(s: int, k: int) -> Family:
    if s * k + 1 > MAX_MATERIALIZED_UNIVERSE:
        raise CapacityError(f"materialization capped at sk+1 <= {MAX_MATERIALIZED_UNIVERSE}")
    return _join(s * k, up_set(_block_generators(s, k), s * k + 1).sets)


def block_upset_family(params: BlockUpsetParams) -> Family:
    """C(s,k) = P(sk) joined with the up-set generated by the augmented blocks."""
    return _block_family(params.s, params.k)


def two_block_family(N: int) -> Family:
    """The two-block series over 2N+1 elements (block size N, two blocks).

    Defined for N >= 2; N == 2 is the excluded-parameter corner where the
    construction collapses to B(23).
    """
    if N < 2:
        raise DomainError("two_block_family requires N >= 2")
    return _block_family(N, 2)


def size_multiset_dominance(c: Family, b: Family) -> bool:
    """Sorted member sizes of c pointwise <= those of b, with some strict gap."""
    if len(c.sets) != len(b.sets):
        raise DomainError("size_multiset_dominance requires equal-size families")
    cs = sorted(s.bit_count() for s in c.sets)
    bs = sorted(s.bit_count() for s in b.sets)
    return all(x <= y for x, y in zip(cs, bs)) and any(x < y for x, y in zip(cs, bs))


def gap_report(N: int) -> tuple[int, int, int]:
    """(two-block max frequency, beta at equal size, gap) for 2 <= N <= 6.

    beta is cross-checked against the materialized balanced-deletion family.
    """
    if not 2 <= N <= 6:
        raise CapacityError("gap_report supports N in 2..6")
    fam = two_block_family(N)
    _, c_max = max_frequency(fam)
    value, _ = beta(len(fam.sets))
    _, b_max = max_frequency(renaud_family(len(fam.sets)))
    if value != b_max:
        raise AssertionError(f"beta({len(fam.sets)}) formula {value} != materialized {b_max}")
    return (c_max, b_max, b_max - c_max)


# ---------------------------------------------------------------------------
# Entropy bound for the binomial growth argument


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p) for 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise DomainError("binary_entropy requires 0 < p < 1")
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class EntropyCheck:
    """Per-N verdict for the binomial growth chain at k = ceil(2N/5).

    ``entropy_ok``: C(2N,k) >= 2^(H(k/2N)*2N) / (2N+1), which is an integer
    inequality; a float log2 gap decides it unless the gap is too close to
    zero for rounding to be ruled out, and then exact integers do.
    ``power_ok``: C(2N,k) > 2^(N+1), exact integers. The chain certifies
    that the up-set of B at this size has no small sets.
    """

    N: int
    k: int
    binomial: int
    entropy_ok: bool
    power_ok: bool

    @property
    def chain_ok(self) -> bool:
        return self.entropy_ok and self.power_ok


def _entropy_bound_holds(n: int, k: int, binom: int) -> bool:
    """binom >= 2^(n H(k/n)) / (n+1), i.e. binom (n+1) k^k (n-k)^(n-k) >= n^n.

    The float log2 gap sums five terms of size at most about n log2(n+1),
    each off by a few ulps, so its error is below 1e-14 n log2(n+1). A gap
    beyond 1e-9 n log2(n+1) decides by its sign; only a closer one pays for
    the big powers.
    """
    gap = (
        math.log2(binom) + math.log2(n + 1) + k * math.log2(k)
        + (n - k) * math.log2(n - k) - n * math.log2(n)
    )
    if abs(gap) > 1e-9 * n * math.log2(n + 1):
        return gap > 0
    return binom * (n + 1) * k**k * (n - k) ** (n - k) >= n**n


def _entropy_check(N: int, k: int, binom: int) -> EntropyCheck:
    """The verdict at N for k = ceil(2N/5) and binom = C(2N, k)."""
    return EntropyCheck(
        N, k, binom, _entropy_bound_holds(2 * N, k, binom), binom > (1 << (N + 1))
    )


def entropy_binomial_check(N: int) -> EntropyCheck:
    """The verdict at one N, with C(2N, k) computed directly by ``math.comb``."""
    if N < 1:
        raise DomainError("N must be >= 1")
    k = -(-2 * N // 5)  # ceil(2N/5)
    return _entropy_check(N, k, math.comb(2 * N, k))


def entropy_binomial_sweep(limit: int) -> tuple[list[EntropyCheck], int | None]:
    """Checks for N = 1..limit and the smallest N from which the chain holds on.

    Equal to ``entropy_binomial_check(N)`` for each N, but C(2N, k) is carried
    from N-1 to N instead of computed afresh. With n = 2N-2, ceil(2N/5) is k
    or k+1, and one exact division steps the binomial:
    C(n+2, k) = C(n, k) (n+1)(n+2) / ((n+1-k)(n+2-k)) and
    C(n+2, k+1) = C(n, k) (n+1)(n+2) / ((k+1)(n+1-k)).
    """
    checks = []
    k, binom = 0, 1  # C(0, 0) at N = 0
    for N in range(1, limit + 1):
        n = 2 * N - 2
        grown = binom * (n + 1) * (n + 2)
        if -(-2 * N // 5) == k:
            binom = grown // ((n + 1 - k) * (n + 2 - k))
        else:
            binom = grown // ((k + 1) * (n + 1 - k))
            k += 1
        checks.append(_entropy_check(N, k, binom))
    threshold = None
    for chk in reversed(checks):
        if chk.chain_ok:
            threshold = chk.N
        else:
            break
    return checks, threshold


# ---------------------------------------------------------------------------
# The padding transform


@dataclass(frozen=True)
class PadParams:
    """Ratio threshold c, pad count p, and the indices of the added elements."""

    c: Fraction
    p: int
    new_elements: tuple[int, ...]


def _as_fraction(c) -> Fraction:
    frac = Fraction(c)
    if frac <= 2:
        raise DomainError(f"padding threshold must exceed 2, got {frac}")
    return frac


def pad_family(f: Family, c) -> tuple[Family, PadParams]:
    """Append p fresh elements and p near-full sets so len/|U| drops to <= c.

    p = ceil((n - c m)/(c - 1)) with n = len(f) and m = |U(f)|, computed in
    exact rational arithmetic. The new members are U(C) minus one fresh
    element apiece (p-1 of them) plus U(C) itself, so closure is preserved,
    fresh elements appear in at most p members, and a separating input stays
    separating. When n <= c m the family is returned unchanged with p = 0;
    otherwise 1 <= p < n, since p >= n would need 0 > n(c-2) + c(m-1) + 1.
    """
    frac = _as_fraction(c)
    n = len(f.sets)
    u = universe_of(f)
    m = u.bit_count()
    if m == 0:
        raise DomainError("pad_family requires a non-empty universe")
    num, den = frac.numerator, frac.denominator
    if n * den <= num * m:
        return f, PadParams(frac, 0, ())
    p = -((-(n * den - num * m)) // (num - den))  # ceil in integers
    assert p >= 1
    if f.m + p > MAX_UNIVERSE:
        raise CapacityError(f"padding needs {f.m + p} elements, over the {MAX_UNIVERSE} cap")
    new_elements = tuple(range(f.m + 1, f.m + p + 1))
    m2 = f.m + p
    full = u | ((1 << p) - 1) << f.m
    new_sets = list(f.sets)
    for e in new_elements[: p - 1]:
        new_sets.append(full & ~(1 << (e - 1)))
    new_sets.append(full)
    padded = Family.from_sets(m2, new_sets)
    assert len(padded.sets) == n + p
    return padded, PadParams(frac, p, new_elements)


@dataclass(frozen=True)
class EpsilonReport:
    """Direct verification of the padded-family frequency argument.

    ``bound`` is (c-2)/(2(c-1)) * n, the member-count-relative threshold the
    located element must exceed; ``ceiling`` is ceil((n-p)/2).
    """

    holds: bool
    p: int
    element: int
    frequency: int
    ceiling: int
    bound: Fraction
    padded_size: int


def epsilon_bound_check(f: Family, c) -> EpsilonReport:
    """Pad f to ratio <= c, then verify the frequency bound concretely.

    Checks, in order: the padded family satisfies the half-membership
    property (desk scale, verified directly); its maximal frequency element
    lies in U(f); that element's frequency in f is at least
    ceil((n-p)/2) and strictly exceeds (c-2)/(2(c-1)) * n.
    """
    frac = _as_fraction(c)
    if not any(f.sets):
        raise DomainError("epsilon_bound_check requires a non-empty member set")
    padded, params = pad_family(f, frac)
    verdict = check_conjecture(padded)
    n = len(f.sets)
    p = params.p
    element, freq_padded = max_frequency(padded)
    in_original = element <= f.m and bool(universe_of(f) >> (element - 1) & 1)
    freq_f = frequencies(f)[element - 1] if in_original else 0
    ceiling = -((-(n - p)) // 2)
    bound = Fraction(frac.numerator - 2 * frac.denominator,
                     2 * (frac.numerator - frac.denominator)) * n
    holds = (
        verdict.holds
        and in_original  # with p = 0 the padded family is f itself
        and freq_f >= ceiling
        and freq_f > bound
    )
    return EpsilonReport(holds, p, element, freq_f, ceiling, bound, len(padded.sets))
