"""Exhaustive search for the minimal maximal frequency over n-set families.

phi(n) is the minimum, over union-closed families of exactly n sets with at
least one non-empty member, of the largest element frequency. Two routes:

* :func:`phi_naive` enumerates n-subsets of P(m) in ascending numeric order,
  skipping branches whose forced pair-unions can no longer be included. It is
  the small-scale oracle.

* :func:`phi_search` proves the value by exhausting the space *below*
  beta(n), the maximal frequency of B(n) (at most a(n), as the tests check
  through n = 1024); let t be beta(n) - 1. Four reductions keep that space
  small: merging equal membership columns preserves the member count and
  every frequency, so only separating representatives matter; a separating
  union-closed family has an element of frequency >= |U|, so any family
  with every frequency at most t lives on at most t columns and can be
  relabeled into [t]; the smallest non-empty member can be normalized to a
  prefix block; and adding the empty set changes no frequency and no
  non-zero column, so the families holding it are {∅} plus the ∅-free
  families of n-1 sets. The search is therefore one traversal per prefix
  block of the ∅-free union-closed families on [t] with every frequency at
  most t. Families are built by closure-augmentation: member sets are
  chosen in ascending canonical order, and each insertion x into the
  union-closed F closes in one pass to F ∪ {x} ∪ {x|f : f ∈ F}. The one
  prune is the frequency cap: a branch dies when some frequency passes t,
  as it does in every superset. Closure is monotone, so a candidate the
  cap rejects at a node is rejected at every descendant: each node takes
  the candidates its parent kept after its own, updates their
  augmentations by the sets it added and keeps those within the cap. The
  root's parent is the empty family, where each augmentation is the mask
  alone. The tree thus depends on t, not on n; n enters only at the
  nodes, where a node of n sets is recorded as found and a node of n-1
  sets is recorded with ∅ added. (Pruning against n as well, by a closure
  that overruns n sets or too few free frequency slots for the members
  still owed, cuts at most three nodes of such a tree for n <= 12, and
  would need a second traversal for the ∅ fold. No test of the
  distinct-column count is needed either: every node is union-closed, so
  more than t distinct non-zero columns already force a frequency above
  t.)

  The traversal also rejects isomorphs by equal columns. Elements i < j
  whose membership columns over a node F are equal can be swapped without
  moving any member of F, so F grows no child from a candidate z that holds
  j but not i; z still passes to the candidate lists of its siblings. Each
  node keeps the partition of [t] into classes of equal columns, less the
  one-element classes, and a child splits its parent's classes by the
  sets it added, so the test costs one mask per class. The rule is sound
  and keeps the witness. Let G* be the relabeling of a family G with the
  least member tuple in canonical order. Its least member is a prefix
  block, and its path chooses at each node F the least member z of G*
  outside F, so every member of G* below z lies in F. If i < j had equal
  columns over F and z held j but not i, the swap σ = (i j) would fix every
  member of F, and σ(z) < z would lie outside F and so outside G*. Then
  σ(G*) would hold the members of G* below z and also σ(z), a smaller
  member tuple than G*'s. So G* is never cut. Within a root task a family is
  reached at most once; the traversal reaches each family up to
  relabeling, the tuple-least relabeling always. The tasks reach disjoint
  families (each task fixes the smallest non-empty member), so node counts
  are schedule-independent and worker processes can split the tasks
  without sharing state. ``visited`` and ``conjecture_violations`` count
  the class representatives the traversal reaches, not every labelled
  family.

The witness reported with phi(n) is the balanced-deletion family when the
bound is tight (it always is on the verified range); otherwise, as in
:func:`phi_naive`, it is the least tied family by sorted member sizes, then
by its member tuple in canonical order. That is also the least over every
relabeling of the tied families, since each pool holds the least relabeling
of each member: phi_naive's pool, every union-closed n-subset of P(m) with
the least frequency and sizes, is closed under relabeling, and in
phi_search the least relabeling starts, after any ∅, with a prefix block
whose traversal reaches it on [t] with the same frequencies, and the
equal-column rule never cuts it.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

from .constructions import beta, conway, renaud_family
from .core import DomainError, Family, canonical_key

PHI_SEARCH_MAX_N = 12
PHI_NAIVE_MAX_N = 6
NODE_BUDGET = 20_000_000  # nodes per root task


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for :func:`phi_search`.

    ``m_max`` caps the universe of the ``naive`` oracle only (default n).
    The exact search rejects it: it always runs on [t], t the constructive
    bound minus one, which every family that beats the bound can be
    relabeled into. The module constant ``NODE_BUDGET`` bounds the
    enumeration per root task, one task per prefix block. ``workers`` is
    capped at the number of root tasks and of CPUs.
    """

    n: int
    m_max: int | None = None
    workers: int = 1
    naive: bool = False


@dataclass(frozen=True)
class SearchResult:
    phi: int
    witness: Family
    visited: int
    duration: float
    conjecture_violations: int = 0


class SearchBudgetError(RuntimeError):
    """Node budget exhausted; carries the constructive incumbent."""

    def __init__(self, n: int, incumbent: int, witness: Family | None, visited: int):
        super().__init__(
            f"search budget exceeded at n={n}; phi({n}) <= {incumbent} stands"
        )
        self.n = n
        self.incumbent = incumbent
        self.witness = witness
        self.visited = visited

    def __reduce__(self):  # crosses process-pool boundaries
        return (type(self), (self.n, self.incumbent, self.witness, self.visited))


def _least_family(m: int, pool) -> Family:
    """The pool's least family: least sorted member sizes first, then least
    member tuple in canonical (cardinality, value) order."""

    def key(sets):
        keyed = sorted(map(canonical_key, sets))
        return [size for size, _ in keyed], keyed

    return Family.from_sets(m, min(pool, key=key))


def phi_naive(n: int, m_max: int | None = None) -> SearchResult:
    """Oracle-scale exact phi by exhaustive subset enumeration (n <= 6).

    Walks n-subsets of P(m_max) in ascending numeric order; a partial choice
    dies once a forced union (of two chosen sets) below the next candidate is
    missing, or more unions are owed than slots remain. Families with no
    non-empty member are excluded. Of the families with the least maximal
    frequency, only those with the least sorted member sizes are kept, since
    only they can give the witness.

    The owed unions are a bit word over the 2^m subsets. A node with one
    slot left counts its children in bulk instead of visiting them: every
    chosen set lies below a child x, so x owes no new union exactly when it
    contains the union of the chosen sets, and the child survives only if
    it also pays the one union still owed (if any). So of the p + 1 - lo
    children up to the owed union p, or the top - lo children when nothing
    is owed, only those leaves are evaluated; ``visited`` still counts them
    all.
    """
    if not 1 <= n <= PHI_NAIVE_MAX_N:
        raise DomainError(f"phi_naive supports 1 <= n <= {PHI_NAIVE_MAX_N}")
    m = n if m_max is None else m_max
    if not 1 <= m <= PHI_NAIVE_MAX_N:
        raise DomainError(f"phi_naive supports 1 <= m_max <= {PHI_NAIVE_MAX_N}")
    top = 1 << m
    if n > top:
        raise DomainError(f"phi_naive needs n <= 2^m_max = {top}")
    start = time.perf_counter()
    # element counts packed 4 bits per element; a count is at most n <= 6,
    # so adding 7 - v to every count sets a field's top bit iff it exceeds v
    spread = [sum(1 << 4 * e for e in range(m) if s >> e & 1) for s in range(top)]
    ones = spread[top - 1]
    high = 8 * ones
    shifts = range(0, 4 * m, 4)
    best = None  # (maximal frequency, sorted member sizes) of best_families
    best_families: list[tuple[int, ...]] = []
    over_best = 0  # 7 - best frequency in every field, once there is a best
    nodes = 1  # the root

    def leaf(chosen: list[int], x: int, packed: int):
        nonlocal best, best_families, over_best
        packed += spread[x]
        if (packed + over_best) & high:
            return  # some frequency above the best
        value = max(packed >> shift & 15 for shift in shifts)
        if value == 0:
            return
        family = (*chosen, x)
        key = (value, sorted(s.bit_count() for s in family))
        if best is None or key < best:
            best = key
            best_families = [family]
            over_best = (7 - value) * ones
        elif key == best:
            best_families.append(family)

    def rec(chosen: list[int], pending: int, lo: int, packed: int, union: int):
        # a visited node that owes no more unions than it has slots
        nonlocal nodes
        room = n - len(chosen)
        if room == 1:
            if pending:
                p = (pending & -pending).bit_length() - 1
                nodes += p + 1 - lo
                if p & union == union:
                    leaf(chosen, p, packed)
            else:
                nodes += top - lo
                free = (top - 1) & ~union
                sub = free
                while True:  # the supersets of union, from the top down
                    x = union | sub
                    if x < lo:
                        break
                    leaf(chosen, x, packed)
                    if not sub:
                        break
                    sub = (sub - 1) & free
            return
        limit = (pending & -pending).bit_length() - 1 if pending else top - 1
        for x in range(lo, limit + 1):
            nodes += 1
            owed = pending & ~(1 << x)
            for y in chosen:  # y < x, so x | y is x or a new set above x
                u = x | y
                if u != x:
                    owed |= 1 << u
            if owed.bit_count() >= room:
                continue
            chosen.append(x)
            rec(chosen, owed, x + 1, packed + spread[x], union | x)
            chosen.pop()

    rec([], 0, 0, 0, 0)
    witness = _least_family(m, best_families)
    return SearchResult(best[0], witness, nodes, time.perf_counter() - start)


def _branch_enumerate(args):
    """Exhaust one root task; returns (nodes, violations, improving families).

    A task fixes the first chosen set to a prefix block and grows from it
    every ∅-free union-closed family on [m_cap] with all frequencies <= t.
    Improving families are the nodes of n sets and, with ∅ added, the nodes
    of n-1 sets. The half-membership check counts each node twice, with
    and without ∅, since ∅ adds a member and no frequency.

    Each node takes ``later``, the candidates its parent kept after its
    own, drops those it added, updates the rest by the sets it added and
    keeps those whose counts stay <= t; the root's parent is the empty
    family, where each later mask z adds just {z}. Each node also takes its
    parent's classes of elements with equal columns (two or more elements
    each; the root's parent has one class, [m_cap]) and splits them by the
    sets it added. A kept candidate z grows a child unless, in some class c,
    z holds a later element but not an earlier one: with r = c & ~z, r is
    non-empty and z & c > r & -r. As the module docstring shows, this
    reaches every family up to relabeling, its tuple-least relabeling
    always, so the nodes and violations count class representatives. A task
    that passes ``NODE_BUDGET`` nodes raises a budget error carrying B(n)
    (``None`` for n < 2, where B(n) is undefined).
    """
    t, m_cap, first_mask, n = args
    budget = NODE_BUDGET
    masks = sorted(range(1 << m_cap), key=canonical_key)
    # element counts packed `width` bits per element, each field biased so
    # that its top bit is set exactly when the count passes t; a family on
    # [m_cap] has at most 2^m_cap members, so no field carries into the next
    width = max(m_cap, t.bit_length()) + 2
    field = (1 << width) - 1
    spread = [
        sum(1 << width * e for e in range(m_cap) if s >> e & 1)
        for s in range(1 << m_cap)
    ]
    ones = spread[-1]
    bias = (1 << width - 1) - 1 - t
    over = (1 << width - 1) * ones
    lift = [(t + 1 - k) * ones for k in range(t + 1)]  # top bit iff count >= k
    shifts = range(0, width * m_cap, width)
    found: list[tuple[int, tuple[int, ...]]] = []
    nodes = 0
    violations = 0

    def dfs(fam: frozenset, packed: int, added: set, later, classes: list):
        nonlocal nodes, violations
        nodes += 1
        if nodes > budget:
            raise SearchBudgetError(n, t + 1, renaud_family(n) if n >= 2 else None, nodes)
        # the parent's equal-column classes, split by the sets this node added
        for u in added:
            if not classes:
                break
            classes = [
                part for c in classes for part in (c & u, c & ~u) if part & part - 1
            ]
        size = len(fam)
        # a count of size // 2 + 1 or more rules out both violations, and
        # is one test on the packed counts; unpack only when it fails or
        # the node is recorded
        half = size // 2 + 1
        if n - 1 <= size <= n or half > t or not (packed + lift[half]) & over:
            top_count = max(packed >> shift & field for shift in shifts) - bias
            violations += (2 * top_count < size) + (2 * top_count < size + 1)
            if size == n:
                found.append((top_count, tuple(sorted(fam, key=canonical_key))))
            elif size == n - 1:
                found.append((top_count, (0,) + tuple(sorted(fam, key=canonical_key))))
        candidates = []
        for z, new, _ in later:
            if z in added:
                continue
            # closure of fam + z: z's sets beyond the parent, less those
            # this node added, and z's unions with the added sets
            new = new - added
            for g in added:
                u = z | g
                if u not in fam:
                    new.add(u)
            z_packed = packed
            for u in new:
                z_packed += spread[u]
            if not z_packed & over:
                candidates.append((z, new, z_packed))
        for i, (z, new, z_packed) in enumerate(candidates):
            # equal-column rule: no child from a z that holds a later element
            # of a class but not an earlier one; z stays in the siblings' lists
            for c in classes:
                r = c & ~z
                if r and z & c > r & -r:
                    break
            else:
                dfs(fam | new, z_packed, new, candidates[i + 1 :], classes)

    root_key = canonical_key(first_mask)
    later = ((z, {z}, 0) for z in masks if canonical_key(z) > root_key)
    packed = bias * ones + spread[first_mask]
    # the empty family, the root's parent, has one class of equal columns
    dfs(frozenset((first_mask,)), packed, {first_mask}, later, [(1 << m_cap) - 1])
    return nodes, violations, found


def _pool_size(requested: int, tasks: int, cpus: int | None) -> int:
    """Worker processes worth starting: at most one per task and per CPU."""
    return max(1, min(requested, tasks, cpus or 1))


def phi_search(config: SearchConfig) -> SearchResult:
    """Exact phi(n) for n <= 12 with a schedule-independent witness."""
    if config.naive:
        return phi_naive(config.n, config.m_max)
    n = config.n
    if not 1 <= n <= PHI_SEARCH_MAX_N:
        raise DomainError(f"phi_search supports 1 <= n <= {PHI_SEARCH_MAX_N}")
    if config.m_max is not None:
        raise DomainError("m_max bounds the naive search only; phi_search "
                          "always searches on [beta(n) - 1]")
    start = time.perf_counter()
    if n == 1:
        return SearchResult(1, Family(1, (1,)), 1, time.perf_counter() - start)
    incumbent, _ = beta(n)
    fallback = renaud_family(n)
    t = incumbent - 1

    # Up to relabeling, the smallest non-empty member is a prefix block.
    blocks = [(1 << j) - 1 for j in range(1, t + 1)]
    tasks = [(t, t, b, n) for b in blocks]
    workers = _pool_size(config.workers, len(tasks), os.cpu_count())
    if workers <= 1:
        results = [_branch_enumerate(task) for task in tasks]
    else:
        ctx = get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            results = list(pool.map(_branch_enumerate, tasks))

    visited = sum(r[0] for r in results)
    violations = sum(r[1] for r in results)
    improving = [item for r in results for item in r[2]]
    duration = time.perf_counter() - start
    if not improving:
        return SearchResult(incumbent, fallback, visited, duration, violations)
    value = min(v for v, _ in improving)
    witness = _least_family(t, [sets for v, sets in improving if v == value])
    return SearchResult(value, witness, visited, duration, violations)


@dataclass(frozen=True)
class PhiTableRow:
    n: int
    phi: int
    conway: int
    beta: int
    matches_conway: bool


def verify_phi_table(limit: int) -> list[PhiTableRow]:
    """phi(n) for every n <= limit, checked against both upper bounds."""
    if not 1 <= limit <= PHI_SEARCH_MAX_N:
        raise DomainError(f"verify_phi_table supports 1 <= limit <= {PHI_SEARCH_MAX_N}")
    a = conway(limit)
    rows = []
    for n in range(1, limit + 1):
        result = phi_search(SearchConfig(n))
        b = beta(n)[0] if n >= 2 else a[n - 1]
        if result.phi > b or b > a[n - 1]:
            raise AssertionError(f"bound chain broken at n={n}: {result.phi}, {b}, {a[n-1]}")
        rows.append(PhiTableRow(n, result.phi, a[n - 1], b, result.phi == a[n - 1]))
    return rows
