"""Exhaustive search for the minimal maximal frequency over n-set families.

phi(n) is the minimum, over union-closed families of exactly n sets with at
least one non-empty member, of the largest element frequency. Both entry
points run one driver, :func:`_phi`: the traversal described below with a
cap t on [m], then the pick described last.

* :func:`phi_naive`, the small-scale oracle, runs it on [m] with the cap
  t = n: no frequency of an n-set family passes n, so it reaches every
  union-closed family of n sets on P(m) up to relabeling.

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

The pick is the least frequency among the families the traversal records
and the least family tied at it, by sorted member sizes, then by member
tuple in canonical order. That is also the least over every relabeling of
the tied families: the traversal reaches the least relabeling of each,
less any ∅, with the same frequencies, and the equal-column rule never
cuts it. When the traversal records none, the result is the bound the
caller passes: for :func:`phi_search`, beta(n) with B(n) as its witness,
as on the whole verified range.
"""

from dataclasses import dataclass

from .constructions import beta, conway, renaud_family
from .core import CapacityError, DomainError, Family, canonical_key

PHI_SEARCH_MAX_N = 12
PHI_NAIVE_MAX_N = 6
NODE_BUDGET = 20_000_000  # nodes per search


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for :func:`phi_search`.

    ``naive`` routes to :func:`phi_naive`, the same traversal on [m_max]
    with the cap n. ``m_max`` sets that universe (default n) and serves
    the oracle only. The exact search rejects it: it always runs on [t],
    t the constructive bound minus one, which every family that beats the
    bound can be relabeled into. The module constant ``NODE_BUDGET``
    bounds the nodes of either traversal.
    """

    n: int
    m_max: int | None = None
    naive: bool = False


@dataclass(frozen=True)
class SearchResult:
    phi: int
    witness: Family
    visited: int
    conjecture_violations: int


def _least_family(m: int, pool) -> Family:
    """The pool's least family: least sorted member sizes first, then least
    member tuple in canonical (cardinality, value) order."""

    def key(sets):
        keyed = sorted(map(canonical_key, sets))
        return [size for size, _ in keyed], keyed

    return Family.from_sets(m, min(pool, key=key))


def _phi(n: int, t: int, m: int, bound: tuple[int, Family] | None = None) -> SearchResult:
    """The traversal with the cap t on [m] for n sets, and its pick: the
    least frequency it records and the least family tied at it, or
    ``bound``, a (phi, witness) pair, when it records none."""
    branch_nodes, violations, found = _branch_enumerate(t, m, n)
    if found:
        value = min(v for v, _ in found)
        bound = value, _least_family(m, [sets for v, sets in found if v == value])
    return SearchResult(*bound, sum(branch_nodes), violations)


def phi_naive(n: int, m_max: int | None = None) -> SearchResult:
    """Oracle-scale exact phi on [m_max] (n <= 6, n <= 2^m_max).

    Runs the search's traversal on [m_max] with the cap t = n, which no
    frequency of an n-set family passes, so it reaches every union-closed
    family of n sets on [m_max] with a non-empty member, up to relabeling
    and its tuple-least relabeling always. ``visited`` and
    ``conjecture_violations`` count that traversal's nodes as in
    :func:`phi_search`.
    """
    if not 1 <= n <= PHI_NAIVE_MAX_N:
        raise DomainError(f"phi_naive supports 1 <= n <= {PHI_NAIVE_MAX_N}")
    m = n if m_max is None else m_max
    if not 1 <= m <= PHI_NAIVE_MAX_N:
        raise DomainError(f"phi_naive supports 1 <= m_max <= {PHI_NAIVE_MAX_N}")
    if n > 1 << m:
        raise DomainError(f"phi_naive needs n <= 2^m_max = {1 << m}")
    return _phi(n, n, m)


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
    # dfs holds itself through its closure cell; clearing the cell frees
    # that cycle, and ``found`` with it, now rather than at the next full
    # collection, so the peak memory of repeated searches does not climb
    del dfs
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
    if n == 1:
        return phi_naive(1)
    t = beta(n)[0] - 1
    return _phi(n, t, t, (t + 1, renaud_family(n)))


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
