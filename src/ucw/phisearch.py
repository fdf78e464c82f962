"""Exhaustive search for the minimal maximal frequency over n-set families.

phi(n) is the minimum, over union-closed families of exactly n sets with at
least one non-empty member, of the largest element frequency. Two routes:

* :func:`phi_naive` enumerates n-subsets of P(m) in ascending numeric order,
  skipping branches whose forced pair-unions can no longer be included. It is
  the small-scale oracle.

* :func:`phi_search` proves the value by exhausting the space *below*
  beta(n), the maximal frequency of B(n) (at most a(n), as the tests check
  through n = 1024); let t be beta(n) - 1. Three reductions keep that space
  small: merging equal membership columns preserves the member count and
  every frequency, so only separating representatives matter; a separating
  union-closed family has an element of frequency >= |U|, so any family
  with every frequency at most t lives on at most t columns and can be
  relabeled into [t]; and adding the empty set changes no frequency and no
  non-zero column, so the families holding it are {∅} plus the ∅-free
  families of n-1 sets. The search is therefore one traversal, grown from
  the empty family, of the ∅-free union-closed families on [t] with every
  frequency at most t. Families are built by closure-augmentation: member
  sets are chosen in ascending canonical order, and each insertion x into
  the union-closed F closes in one pass to F ∪ {x} ∪ {x|f : f ∈ F}. The one
  prune is the frequency cap: a branch dies when some frequency passes t,
  as it does in every superset. Closure is monotone, so a candidate the
  cap rejects at a node is rejected at every descendant: each node takes
  the candidates its parent kept after its own, updates their
  augmentations by the sets it added and keeps those within the cap. At
  the root, the empty family, each augmentation is the mask alone. The
  tree thus depends on t, not on n; n enters only at the nodes, where a
  node of n sets is recorded as found and a node of n-1 sets is recorded
  with ∅ added; the root itself is neither. (Pruning against n as well, by
  a closure that overruns n sets or too few free frequency slots for the
  members still owed, cuts at most three nodes of such a tree for n <= 12,
  and would need a second traversal for the ∅ fold. No test of the
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
  least member tuple in canonical order. Its path chooses at each node F
  the least member z of G* outside F, so every member of G* below z lies
  in F. If i < j had equal columns over F and z held j but not i, the swap
  σ = (i j) would fix every member of F, and σ(z) < z would lie outside F
  and so outside G*. Then σ(G*) would hold the members of G* below z and
  also σ(z), a smaller member tuple than G*'s. So G* is never cut. At the
  root every column is empty, so [t] is one class, and the rule lets only
  the prefix blocks through as first members; by the same swap at F = ∅,
  G*'s least member is one of them. The traversal reaches a family at
  most once, and each family up to relabeling, the tuple-least relabeling
  always. ``visited`` and ``conjecture_violations`` count the class
  representatives the traversal reaches, not every labelled family.

The witness reported with phi(n) is the balanced-deletion family when the
bound is tight (it always is on the verified range); otherwise, as in
:func:`phi_naive`, it is the least tied family by sorted member sizes, then
by its member tuple in canonical order. That is also the least over every
relabeling of the tied families, since each pool holds the least relabeling
of each member: phi_naive's pool, every union-closed n-subset of P(m) with
the least frequency and sizes, is closed under relabeling, and in
phi_search the traversal reaches the least relabeling, less any ∅, on [t]
with the same frequencies, and the equal-column rule never cuts it.
"""

import time
from dataclasses import dataclass

from .constructions import beta, conway, renaud_family
from .core import CapacityError, DomainError, Family, canonical_key

PHI_SEARCH_MAX_N = 12
PHI_NAIVE_MAX_N = 6
NODE_BUDGET = 20_000_000  # nodes per search


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for :func:`phi_search`.

    ``m_max`` caps the universe of the ``naive`` oracle only (default n).
    The exact search rejects it: it always runs on [t], t the constructive
    bound minus one, which every family that beats the bound can be
    relabeled into. The module constant ``NODE_BUDGET`` bounds the nodes
    of the whole search.
    """

    n: int
    m_max: int | None = None
    naive: bool = False


@dataclass(frozen=True)
class SearchResult:
    phi: int
    witness: Family
    visited: int
    duration: float
    conjecture_violations: int = 0


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

    The owed unions are a bit word over the 2^m subsets, and so are the
    entries of two tables built once per call: sup[s], the word of every
    x ⊇ s, and sub[s], the word of every x ⊆ s. A node with one slot left
    counts its children in bulk instead of visiting them: every chosen set
    lies below a child x, so x owes no new union exactly when it contains
    the union of the chosen sets, and the child survives only if it also
    pays the one union still owed (if any). Let p be that owed union, or
    top - 1 when nothing is owed. Of the p + 1 - lo children up to p, the
    leaves are the bits of sup[union] in [lo, p] (an owed p lies in union,
    so then p alone if p = union), and only they are evaluated; ``visited``
    still counts them all.

    A node with two slots left finds the children that survive as one bit
    word, bit x for the child x, from the same two tables. A chosen y ⊆ x
    owes nothing new; every other y owes x | y, a set above x. With two
    unions owed, a child x below the least one, p, keeps both and has one
    slot left, so only x = p can survive. With one union p owed, x < p
    survives exactly when x | y = p for every y ⊄ x, so its word is the
    children [lo, p) ANDed, for each y, with
    sup[y] | (sub[p] & sup[p & ~y]), the second term only for y ⊆ p. The
    one leaf under such an x is p, evaluated when x and every y lie in p;
    a survivor x ⊆ p already forces every y ⊆ p (each y lies in x or in
    x | y = p), so the test is x ⊆ p. With nothing owed, the new unions of
    a survivor must all be one set, so every y ⊄ x holds union - x and
    that set is w = x | union; the word is the children [lo, top) ANDed
    with sup[y] | sup[union & ~y] for each y. A survivor with w = x owes
    nothing and takes the one-slot bulk count; any other has the one leaf
    w. The child x = p, and every node with three slots or more, still
    test their children one by one. ``visited`` still counts every child,
    settled in bulk or not.
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
    # words over the subsets: sup[s] has bit x iff x ⊇ s, sub[s] iff x ⊆ s
    sup = [sum(1 << x for x in range(top) if x & s == s) for s in range(top)]
    sub = [sum(1 << x for x in range(top) if x & s == x) for s in range(top)]
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
        # a visited node that owes no more unions than it has slots; its
        # children run from lo to p, the least owed union or top - 1
        nonlocal nodes
        room = n - len(chosen)
        p = (pending & -pending).bit_length() - 1 if pending else top - 1
        if room == 1:
            nodes += p + 1 - lo
            # children x ⊇ union up to p; an owed p lies in union, so x = p = union
            word = sup[union] & ((1 << p + 1) - (1 << lo))
            while word:
                x = (word & -word).bit_length() - 1
                word &= word - 1
                leaf(chosen, x, packed)
            return
        if room == 2:
            if not pending:
                # every y ⊄ x must hold union - x, so the one union owed
                # is w = x | union; w == x owes none
                nodes += top - lo
                word = (1 << top) - (1 << lo)
                for y in chosen:
                    word &= sup[y] | sup[union & ~y]
                while word:
                    x = (word & -word).bit_length() - 1
                    word &= word - 1
                    w = x | union
                    chosen.append(x)
                    if w == x:
                        rec(chosen, 0, x + 1, packed + spread[x], x)
                    else:
                        nodes += w - x
                        leaf(chosen, w, packed + spread[x])
                    chosen.pop()
                return
            nodes += p - lo  # with two unions owed, no x < p survives
            if not pending & pending - 1:
                # one union p owed: x < p survives iff every y ⊄ x has
                # x | y = p; then its leaf p holds every y iff x ⊆ p
                word = (1 << p) - (1 << lo)
                for y in chosen:
                    word &= sup[y] | (sub[p] & sup[p & ~y] if y & p == y else 0)
                while word:
                    x = (word & -word).bit_length() - 1
                    word &= word - 1
                    nodes += p - x
                    if x & p == x:
                        chosen.append(x)
                        leaf(chosen, p, packed + spread[x])
                        chosen.pop()
            lo = p  # x = p takes the loop below
        for x in range(lo, p + 1):
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


def _branch_enumerate(t: int, m_cap: int, n: int):
    """Exhaust the search tree; returns (branch_nodes, violations, found).

    The tree grows from the empty family every ∅-free union-closed family
    on [m_cap] with all frequencies <= t. Improving families are the nodes
    of n sets and, with ∅ added, the nodes of n-1 sets; ``found`` lists
    them as (largest frequency, members). The half-membership check counts
    each node twice, with and without ∅, since ∅ adds a member and no
    frequency. The root, the empty family, is no phi family: it is neither
    counted nor recorded.

    Each node takes ``later``, the candidates its parent kept after its
    own, drops those it added, updates the rest by the sets it added and
    keeps those whose counts stay <= t; at the root each mask z adds just
    {z}. Each node also takes its parent's classes of elements with equal
    columns (two or more elements each; the root has one class, [m_cap])
    and splits them by the sets it added. A kept candidate z grows a child
    unless, in some class c, z holds a later element but not an earlier
    one: with r = c & ~z, r is non-empty and z & c > r & -r. At the root
    that lets through exactly the prefix blocks, so ``branch_nodes[j-1]``
    counts the nodes whose least member is the block [j]. As the module
    docstring shows, the tree reaches every family up to relabeling, its
    tuple-least relabeling always, so the nodes and violations count class
    representatives. A search that passes ``NODE_BUDGET`` nodes raises
    :class:`CapacityError` naming n and the bound t + 1 that stands; it
    builds no family.
    """
    budget = NODE_BUDGET
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
    branch_nodes = [0] * m_cap
    nodes = 0
    violations = 0

    def dfs(fam: frozenset, packed: int, added: set, later, classes: list):
        nonlocal nodes, violations
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
        if size and (n - 1 <= size <= n or half > t or not (packed + lift[half]) & over):
            top_count = max(packed >> shift & field for shift in shifts) - bias
            violations += (2 * top_count < size) + (2 * top_count < size + 1)
            if n - 1 <= size <= n:  # a node of n-1 sets takes ∅ in front
                members = tuple(sorted(fam, key=canonical_key))
                found.append((top_count, (0,) * (n - size) + members))
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
                nodes += 1
                if nodes > budget:
                    raise CapacityError(
                        f"search budget exceeded at n={n}; phi({n}) <= {t + 1} stands"
                    )
                dfs(fam | new, z_packed, new, candidates[i + 1 :], classes)
                if not fam:  # the root: prefix block z's branch is done
                    branch_nodes[z.bit_count() - 1] = nodes - sum(branch_nodes)

    masks = sorted(range(1, 1 << m_cap), key=canonical_key)
    dfs(frozenset(), bias * ones, set(), ((z, {z}, 0) for z in masks), [(1 << m_cap) - 1])
    return branch_nodes, violations, found


def phi_search(config: SearchConfig) -> SearchResult:
    """Exact phi(n) for n <= ``PHI_SEARCH_MAX_N`` by one traversal below
    beta(n); the witness is the least tied family, whatever order the
    traversal meets it in, or B(n) when the traversal finds none."""
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
    value, _ = beta(n)
    witness = renaud_family(n)
    t = value - 1
    branch_nodes, violations, improving = _branch_enumerate(t, t, n)
    if improving:
        value = min(v for v, _ in improving)
        witness = _least_family(t, [sets for v, sets in improving if v == value])
    return SearchResult(
        value, witness, sum(branch_nodes), time.perf_counter() - start, violations
    )


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
