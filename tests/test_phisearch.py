import random
from functools import cache
from itertools import combinations, permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucw import phisearch
from ucw.constructions import beta, conway, renaud_family
from ucw.core import (
    CapacityError,
    DomainError,
    Family,
    canonical_key,
    check_conjecture,
    close_under_union,
    frequencies,
    is_union_closed,
    max_frequency,
)
from ucw.familyfile import parse_family, serialize_family
from ucw.phisearch import (
    SearchConfig,
    SearchResult,
    _branch_enumerate,
    _least_family,
    phi_naive,
    phi_search,
    verify_phi_table,
)

A = conway(12)
SEARCH_GOLDEN = Path(__file__).parent / "golden" / "search"


def test_phi_naive_small_values():
    assert phi_naive(1).phi == 1
    assert phi_naive(2).phi == 1
    assert phi_naive(3).phi == 2
    assert phi_naive(4).phi == 2
    assert phi_naive(5).phi == 3


def test_phi_naive_witness_validity():
    for n in range(1, 6):
        result = phi_naive(n)
        assert len(result.witness) == n
        assert is_union_closed(result.witness)
        assert max_frequency(result.witness)[1] == result.phi


def test_phi_naive_phi2_witness_uses_empty_set():
    result = phi_naive(2)
    assert result.witness.sets == (0, 1)  # the empty set plus a singleton


def test_phi_naive_agrees_with_plain_enumeration():
    # independent check of the pruned enumerator against the literal
    # all-subsets definition at toy scale: phi, and the witness as the
    # least tied family by sorted sizes, then by canonical members
    def plain(n, m):
        tops = {}
        for combo in combinations(range(1 << m), n):
            members = set(combo)
            if not all((a | b) in members for a in combo for b in combo):
                continue
            top = max(
                sum(1 for s in combo if s >> e & 1) for e in range(m)
            )
            if top:
                tops[combo] = top
        best = min(tops.values())
        witness = min(
            (combo for combo, top in tops.items() if top == best),
            key=lambda c: (
                sorted(s.bit_count() for s in c),
                sorted(map(canonical_key, c)),
            ),
        )
        return best, Family.from_sets(m, witness)

    for n in range(1, 5):
        m = min(n, 4)
        result = phi_naive(n, m)
        assert (result.phi, result.witness) == plain(n, m), n


def _naive_reference(n, m):
    phi, nodes, pool = _naive_reference_pool(n, m)
    return phi, nodes, _least_family(m, pool)


def _naive_reference_pool(n, m):
    # phi_naive as first written: pending unions as a set, one call per
    # node down to the leaves, each leaf's counts taken bit by bit; returns
    # phi, visited and every tied family the witness is picked from
    best = None
    best_families = []
    nodes = 0

    def rec(chosen, pending, lo):
        nonlocal best, best_families, nodes
        nodes += 1
        room = n - len(chosen)
        if len(pending) > room:
            return
        if room == 0:
            counts = [0] * m
            for s in chosen:
                for e in range(m):
                    if s >> e & 1:
                        counts[e] += 1
            value = max(counts)
            if value == 0 or best is not None and value > best[0]:
                return
            key = (value, sorted(s.bit_count() for s in chosen))
            if best is None or key < best:
                best = key
                best_families = [tuple(chosen)]
            elif key == best:
                best_families.append(tuple(chosen))
            return
        limit = min(pending) if pending else (1 << m) - 1
        for x in range(lo, limit + 1):
            fresh = set()
            for y in chosen:
                u = x | y
                if u != x and u != y:
                    fresh.add(u)
            nxt = pending | fresh
            nxt.discard(x)
            chosen.append(x)
            rec(chosen, nxt, x + 1)
            chosen.pop()

    rec([], set(), 0)
    return best[0], nodes, best_families


@pytest.mark.parametrize(
    "n, m",
    [(n, m) for n in range(1, 6) for m in range(1, 7) if n <= 1 << m]
    + [(6, 3), (6, 4), (6, 5)],
)
def test_phi_naive_matches_the_per_node_reference(n, m, monkeypatch):
    # the three-slot step visits the same tree: phi, visited, witness, and
    # the whole pool of tied families the witness is picked from, each an
    # n-set union-closed family; at n = 6 three slots are left with three
    # sets chosen
    pools = []

    def capture(m, pool):
        pools.append(list(pool))
        return _least_family(m, pool)

    monkeypatch.setattr(phisearch, "_least_family", capture)
    result = phi_naive(n, m)
    phi, nodes, pool = _naive_reference_pool(n, m)
    witness = _least_family(m, pool)
    assert (result.phi, result.visited, result.witness) == (phi, nodes, witness)
    [got] = pools
    assert sorted(got) == sorted(pool)
    for family in got:
        assert len(set(family)) == n
        assert is_union_closed(Family.from_sets(m, family))


def _owed_unions(chosen):
    # P: the pairwise unions of the chosen sets that are not chosen
    return {a | b for a in chosen for b in chosen} - set(chosen)


def _check_owed_closure(chosen):
    # the lemma behind phi_naive's three-slot step: a family C that misses
    # at most two of its pairwise unions P closes by adding them, and when
    # every owed set exceeds every chosen one, max P is the union of C.
    # Returns whether each claim applied
    owed = _owed_unions(chosen)
    if not chosen or len(owed) > 2:
        return False, False
    closed = set(chosen) | owed
    assert all(a | b in closed for a in closed for b in closed), chosen
    if not owed or min(owed) < max(chosen):
        return True, False
    union = 0
    for s in chosen:
        union |= s
    assert max(owed) == union, chosen
    return True, True


def test_a_prefix_owing_at_most_two_unions_closes_by_adding_them():
    # how many families each claim applied to: every C ⊆ P(3), then 2,000
    # seeded random C over each of P(5) and P(6)
    applied = [_check_owed_closure(chosen) for r in range(1, 9)
               for chosen in combinations(range(8), r)]
    assert [sum(claim) for claim in zip(*applied)] == [245, 74]
    rng = random.Random(20261020)
    applied = [_check_owed_closure(rng.sample(range(1 << m), rng.randint(2, 6)))
               for m in (5, 6) for _ in range(2000)]
    assert [sum(claim) for claim in zip(*applied)] == [2157, 1131]
    # the bounds: three owed unions need not close, and without the
    # invariant the owed union need not be the union of C
    assert _owed_unions([1, 2, 4]) == {3, 5, 6} and 3 | 4 == 7
    assert 7 not in {1, 2, 4} | _owed_unions([1, 2, 4])
    assert _check_owed_closure([1, 2, 4]) == (False, False)
    assert _owed_unions([1, 2, 7]) == {3} and 1 | 2 | 7 == 7 != 3
    assert _check_owed_closure([1, 2, 7]) == (True, False)


def _branch_reference(t, m_cap, first_mask, n, rule=True):
    # _branch_enumerate as first written: every node rescans every later
    # mask and closes each from scratch against the whole family. With
    # ``rule``, a node rebuilds its membership columns and grows no child
    # from a mask that holds j but not i for some i < j of equal columns.
    masks = sorted(range(1 << m_cap), key=canonical_key)
    bits = {s: [e for e in range(m_cap) if s >> e & 1] for s in masks}
    found = []
    nodes = 0
    violations = 0

    def dfs(fam, counts, last):
        nonlocal nodes, violations
        nodes += 1
        size = len(fam)
        top_count = max(counts)
        violations += (2 * top_count < size) + (2 * top_count < size + 1)
        if size == n:
            found.append((top_count, tuple(sorted(fam, key=canonical_key))))
        elif size == n - 1:
            found.append((top_count, (0,) + tuple(sorted(fam, key=canonical_key))))
        columns = [{f for f in fam if f >> e & 1} for e in range(m_cap)]
        swaps = [
            (i, j)
            for i, j in combinations(range(m_cap), 2)
            if rule and columns[i] == columns[j]
        ]
        for idx in range(last + 1, len(masks)):
            x = masks[idx]
            if x in fam:
                continue
            new = {x} | {x | f for f in fam if x | f not in fam}
            nc = counts[:]
            for s in new:
                for e in bits[s]:
                    nc[e] += 1
            if max(nc) > t:
                continue
            if any(x >> j & 1 and not x >> i & 1 for i, j in swaps):
                continue
            dfs(fam | new, nc, idx)

    counts0 = [1 if first_mask >> e & 1 else 0 for e in range(m_cap)]
    dfs(frozenset((first_mask,)), counts0, masks.index(first_mask))
    return nodes, violations, sorted(found)


@pytest.mark.parametrize(
    "t, m_cap", [(t, m_cap) for t in range(1, 6) for m_cap in range(1, t + 1)]
)
def test_branch_enumerate_matches_the_rescanning_reference(t, m_cap):
    # inherited candidate lists and classes refined by the added sets visit
    # the same tree as columns rebuilt at every node; the reference roots
    # one traversal at each prefix block, so the equal-column rule at the
    # empty family lets exactly those blocks through, in their order; and
    # the rule loses no isomorphism class of the rule-free traversal
    blocks = [(1 << j) - 1 for j in range(1, m_cap + 1)]
    for n in range(1, 13):
        branch_nodes, violations, found = _branch_enumerate(t, m_cap, n)
        per_block = [_branch_reference(t, m_cap, b, n) for b in blocks]
        assert branch_nodes == [nodes for nodes, _, _ in per_block], n
        assert violations == sum(v for _, v, _ in per_block), n
        assert sorted(found) == sorted(f for _, _, fs in per_block for f in fs), n
        free = [f for b in blocks for f in _branch_reference(t, m_cap, b, n, rule=False)[2]]
        assert {_canonical_form(sets, m_cap)[0] for _, sets in found} == {
            _canonical_form(sets, m_cap)[0] for _, sets in free
        }, n


def test_the_empty_root_is_neither_counted_nor_recorded():
    # at n = 1 the empty family has n - 1 sets, yet no (0,) family is
    # recorded and no violation counted; at t = 0 every mask fails the cap,
    # so only the root is left and the search visits no node
    _, violations, found = _branch_enumerate(2, 2, 1)
    assert (violations, found) == (0, [(1, (1,)), (1, (3,))])
    assert _branch_enumerate(0, 0, 2) == ([], 0, [])
    assert _branch_enumerate(0, 2, 2) == ([0, 0], 0, [])


def test_phi_naive_scale_guard():
    with pytest.raises(DomainError):
        phi_naive(7)
    with pytest.raises(DomainError):
        phi_naive(3, m_max=7)
    with pytest.raises(DomainError, match="1 <= m_max"):
        phi_naive(3, m_max=0)


@pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (5, 1), (5, 2), (6, 1), (6, 2)])
def test_phi_naive_rejects_more_sets_than_the_power_set(n, m):
    with pytest.raises(DomainError, match="n <= 2\\^m_max"):
        phi_naive(n, m)


def test_phi_search_matches_naive_through_5():
    for n in range(1, 6):
        assert phi_search(SearchConfig(n)).phi == phi_naive(n).phi


def _as_printed(result: SearchResult) -> str:
    # the text ``ucw search phi`` prints for a result
    return (
        f"phi: {result.phi}\nvisited: {result.visited}\n"
        f"conjecture_violations: {result.conjecture_violations}\n"
        + serialize_family(result.witness)
    )


def test_phi_search_matches_naive_at_6():
    # the full oracle scale: a few seconds of exhaustive enumeration
    search, naive = phi_search(SearchConfig(6)), phi_naive(6)
    assert search.phi == naive.phi == 4
    assert _as_printed(search) == (SEARCH_GOLDEN / "phi-6.out").read_text()
    assert _as_printed(naive) == (SEARCH_GOLDEN / "naive-6.out").read_text()


def test_phi_search_equals_conway_through_9():
    for n in range(1, 10):
        result = phi_search(SearchConfig(n))
        assert result.phi == A[n - 1], n


def test_phi_search_n10():
    # one step past the acceptance range, still cheap
    assert phi_search(SearchConfig(10)).phi == A[9]


def test_phi_search_witness_validity():
    for n in range(1, 10):
        result = phi_search(SearchConfig(n))
        assert len(result.witness) == n
        assert is_union_closed(result.witness)
        assert max_frequency(result.witness)[1] == result.phi
        assert check_conjecture(result.witness).holds


def test_phi_search_monotone_step():
    values = [phi_search(SearchConfig(n)).phi for n in range(1, 10)]
    for prev, nxt in zip(values, values[1:]):
        assert nxt - prev in (0, 1)


def test_phi_search_upper_bounds_respected():
    for n in range(2, 10):
        result = phi_search(SearchConfig(n))
        assert result.phi <= beta(n)[0] <= A[n - 1]


def test_phi_search_no_conjecture_violations():
    for n in range(2, 10):
        assert phi_search(SearchConfig(n)).conjecture_violations == 0


def test_phi_search_visited_pinned():
    # a change here must be explained by a change to the enumeration. The
    # traversal prunes by the frequency cap t alone and cuts by the
    # equal-column rule, which reads only the node's members, so visited
    # depends on (t, m_cap) and not on n (n = 6, 7, 8 share t = 3); the one
    # traversal records both the ∅-free and the ∅-holding families, so
    # there is no second run.
    expected = {2: 0, 3: 1, 4: 1, 5: 4, 6: 13, 7: 13, 8: 13, 9: 66, 10: 425}
    for n, visited in expected.items():
        assert phi_search(SearchConfig(n)).visited == visited, n


def test_traversal_nodes_per_prefix_block_at_t7():
    # the t = 7 pass block by block, with m_cap = t: no union-closed family
    # of 13 sets has every frequency <= 7, so phi(13) = 8 = beta(13), and
    # phi(13..16) = 8 since phi is non-decreasing and beta(16) = 8; the
    # node counts do not depend on n
    branch_nodes, violations, found = _branch_enumerate(7, 7, 13)
    assert branch_nodes == [19264, 15179, 7687, 2364, 261, 8, 1]
    assert sum(branch_nodes) == 44764
    assert violations == 0 and not found
    assert beta(13)[0] == beta(16)[0] == 8


def _union_closed_families(m: int, n: int) -> list[tuple[int, ...]]:
    # brute force: every n-subset of P(m) that is union-closed
    out = []
    for combo in combinations(range(1 << m), n):
        members = set(combo)
        if all(a | b in members for a, b in combinations(combo, 2)):
            out.append(combo)
    return out


def _canonical_family(sets, m):
    # reference canonical form: the least member tuple, compared by
    # canonical key, over all m! relabelings
    best = None
    for perm in permutations(range(m)):
        relab = sorted(
            (sum(1 << perm[e] for e in range(m) if s >> e & 1) for s in sets),
            key=canonical_key,
        )
        keyed = [canonical_key(s) for s in relab]
        if best is None or keyed < best[0]:
            best = (keyed, tuple(relab))
    return best[1]


@cache
def _relabelings(m):
    # for each order of the elements, the image of every subset of [m] when
    # the element order[k] is renamed k
    return {
        order: [
            sum(1 << k for k, e in enumerate(order) if s >> e & 1) for s in range(1 << m)
        ]
        for order in permutations(range(m))
    }


def _canonical_form(sets, m):
    # (canonical form, |Aut|) by invariant refinement: list the elements by
    # (frequency, sorted sizes of the members holding them) and permute only
    # within equal invariants, which every isomorphism respects. The form is
    # the least sorted member tuple over those relabelings, and the number of
    # relabelings that reach it is the number of automorphisms.
    groups = {}
    for e in range(m):
        holding = sorted(s.bit_count() for s in sets if s >> e & 1)
        groups.setdefault((len(holding), *holding), []).append(e)
    tables = _relabelings(m)
    best, hits = None, 0
    for parts in product(*(permutations(groups[key]) for key in sorted(groups))):
        table = tables[sum(parts, ())]
        form = sorted(table[s] for s in sets)
        if best is None or form < best:
            best, hits = form, 1
        elif form == best:
            hits += 1
    return tuple(best), hits


def _search_families(n, t, m_cap):
    # the one traversal phi_search runs; (largest frequency, members) of
    # each recorded family
    return _branch_enumerate(t, m_cap, n)[2]


@pytest.mark.parametrize("n", range(2, 8))
def test_search_reaches_each_family_once(n):
    leaves = 0
    for m_cap in range(1, 5):
        families = _union_closed_families(m_cap, n)
        for t in range(1, 6):
            found = [sets for _, sets in _search_families(n, t, m_cap)]
            # (a) no labelled family twice, ∅ included by the fold
            assert len(found) == len(set(found)), (n, m_cap, t)
            leaves += len(found)
            # (b) the isomorphism classes are exactly those of brute force
            brute = {
                _canonical_family(sets, m_cap)
                for sets in families
                if 0 < max(sum(s >> e & 1 for s in sets) for e in range(m_cap)) <= t
            }
            assert {_canonical_family(sets, m_cap) for sets in found} == brute, (
                n, m_cap, t,
            )
    assert leaves > 0


def _reference_witness(pool, m):
    # the least canonical form over the pool, among the least sorted sizes
    def sizes(sets):
        return sorted(s.bit_count() for s in sets)

    least = min(map(sizes, pool))
    forms = [_canonical_family(sets, m) for sets in pool if sizes(sets) == least]
    return Family.from_sets(m, min(forms, key=lambda f: [canonical_key(s) for s in f]))


def test_witness_pick_orders_by_sizes_first():
    # {1},{2},{1,2},{1,2,3} wins member by member but has the larger sizes
    pool = [(1, 2, 3, 7), (1, 4, 5, 6)]
    assert _least_family(3, pool).sets == (1, 4, 5, 6)
    # members may come in any order (phi_naive's are numeric)
    assert _least_family(3, [(6, 1, 4, 5), (1, 2, 3, 7)]).sets == (1, 4, 5, 6)


def test_witness_pick_matches_the_relabeling_scan():
    # the tie pools phi_search's improving branch would meet on a small
    # scale: n = 2..9, t in {a(n), a(n)+1}, m_cap <= min(5, t), wherever
    # the traversal records a family
    pools = 0
    for n in range(2, 10):
        for t in (A[n - 1], A[n - 1] + 1):
            for m_cap in range(1, min(5, t) + 1):
                found = _search_families(n, t, m_cap)
                if not found:
                    continue
                value = min(v for v, _ in found)
                pool = [sets for v, sets in found if v == value]
                assert _least_family(m_cap, pool) == _reference_witness(pool, m_cap), (
                    n, t, m_cap,
                )
                pools += 1
    assert pools == 31


def _closed_top_and_size(m: int) -> list[tuple[int, int]]:
    # brute force over every subset of P(m), as a bit mask over the 2^m
    # sets: (largest frequency, size) of each union-closed family that has
    # a non-empty member
    out = []
    for code in range(1, 1 << (1 << m)):
        sets = [s for s in range(1 << m) if code >> s & 1]
        if all(code >> (a | b) & 1 for a, b in combinations(sets, 2)):
            top = max(sum(s >> e & 1 for s in sets) for e in range(m))
            if top:
                out.append((top, len(sets)))
    return out


@pytest.mark.parametrize("m", range(1, 5))
def test_traversal_records_every_size_up_to_threshold_max(m):
    # N_m(t), the most sets a union-closed family on [m] with every
    # frequency <= t can have; by the monotonicity lemma every smaller size
    # is reached too, so the traversal for t records n-set families exactly
    # when n <= N_m(t)
    pairs = _closed_top_and_size(m)
    for t in range(1, 6):
        most = max(size for top, size in pairs if top <= t)
        for n in range(1, most + 2):
            assert bool(_search_families(n, t, m)) == (n <= most), (m, t, n)


# Moore families on [m] up to isomorphism, m = 0..5 (OEIS A108798)
MOORE_CLASSES = [1, 2, 5, 19, 184, 14664]


@pytest.mark.parametrize(
    "m, count", [(1, 1), (2, 6), (3, 60), (4, 2479), (5, 1385551)]
)
def test_uncapped_traversal_counts_the_moore_families(m, count):
    # An oracle from outside the code: with the cap off (t = 2^m) nothing is
    # pruned, so the traversal reaches every ∅-free union-closed family on
    # [m] up to relabeling. Complements map those one-to-one onto the Moore
    # families on [m] other than {[m]} (∅ is added back, and the empty
    # family maps to {[m]}). So the orbits m!/|Aut| of the distinct classes
    # sum to A102896(m) - 1 = 2 - 1, 7 - 1, 61 - 1, 2480 - 1, 1385552 - 1
    # (OEIS A102896; Colomb, Irlande and Raynaud, "Counting of Moore
    # families for n=7", ICFCA 2010), and the classes number one less than
    # the Moore families up to isomorphism (MOORE_CLASSES). The traversal
    # runs from the empty family, as in phi_search, where the rule lets
    # only the prefix blocks through, so no other first member can stand in
    # for a class the rule loses. A run records the nodes of n sets and,
    # with ∅ added, of n - 1 sets, so the even n from 2 to 2^m record every
    # node once.
    t = 1 << m
    forms = {}
    for n in range(2, t + 1, 2):
        for _, sets in _branch_enumerate(t, m, n)[2]:
            sets = sets[1:] if sets[0] == 0 else sets
            form, automorphisms = _canonical_form(sets, m)
            forms[form] = automorphisms
    assert sum(factorial(m) // a for a in forms.values()) == count
    assert len(forms) + 1 == MOORE_CLASSES[m]


@pytest.mark.parametrize("m, count", [(1, 1), (2, 6), (3, 60), (4, 2479)])
def test_rule_free_reference_counts_the_moore_families(m, count):
    # The same outside oracle for the tests' own reference: with the cap off
    # and the rule off, the rescanning traversal rooted at each non-empty
    # mask z reaches every ∅-free union-closed family on [m] whose least
    # member is z, once. So the roots' node counts sum to the non-empty
    # ∅-free union-closed families on [m], that is the Moore families on
    # [m] less one, A102896(m) - 1 (OEIS A102896; Colomb, Irlande and
    # Raynaud, "Counting of Moore families for n=7", ICFCA 2010). m = 5,
    # 1,385,551 nodes, runs in CI.
    t = 1 << m
    assert sum(_branch_reference(t, m, z, 0, rule=False)[0] for z in range(1, t)) == count


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_deleting_a_minimal_member_keeps_closure_and_frequencies(m, data):
    # monotonicity lemma: a union-closed family less an inclusion-minimal
    # non-empty member is union-closed, and no frequency rises; so the
    # largest size with every frequency <= t is reached by every size below
    gens = data.draw(
        st.lists(st.integers(min_value=1, max_value=(1 << m) - 1), min_size=1, max_size=6)
    )
    if data.draw(st.booleans()):
        gens.append(0)
    fam = close_under_union(gens, m)
    minimal = [
        s for s in fam.sets if s and not any(0 < r < s and r | s == s for r in fam.sets)
    ]
    x = data.draw(st.sampled_from(minimal))
    smaller = Family.from_sets(m, set(fam.sets) - {x})
    assert is_union_closed(smaller)
    assert all(a <= b for a, b in zip(frequencies(smaller), frequencies(fam)))


def test_phi_search_scale_guard():
    with pytest.raises(DomainError):
        phi_search(SearchConfig(13))


def test_phi_search_budget_error_carries_incumbent(monkeypatch):
    monkeypatch.setattr(phisearch, "NODE_BUDGET", 10)
    with pytest.raises(CapacityError) as err:
        phi_search(SearchConfig(9))
    assert str(err.value) == f"search budget exceeded at n=9; phi(9) <= {A[8]} stands"


@pytest.mark.parametrize("n", [0, 1, 2, 9])
def test_branch_budget_error_for_every_n(monkeypatch, n):
    # the refusal names n and t + 1 and builds no B(n), so n < 2 reads alike
    monkeypatch.setattr(phisearch, "NODE_BUDGET", 1)
    with pytest.raises(CapacityError) as err:
        _branch_enumerate(4, 2, n)
    assert str(err.value) == f"search budget exceeded at n={n}; phi({n}) <= 5 stands"


def test_verify_phi_table():
    # the whole range phi_search supports, and no further
    rows = verify_phi_table(12)
    assert [r.phi for r in rows] == A
    assert all(r.matches_conway for r in rows)
    assert all(r.phi <= r.beta <= r.conway for r in rows)
    with pytest.raises(DomainError):
        verify_phi_table(13)


def test_phi_search_config_naive_route():
    result = phi_search(SearchConfig(4, naive=True))
    assert isinstance(result, SearchResult)
    assert result.phi == 2


def test_phi_upper_bound_seed_at_23():
    # n=23 is past PHI_SEARCH_MAX_N, but the constructive family the
    # search would seed its bound from pins phi(23) <= 13
    assert max_frequency(renaud_family(23))[1] == 13


def test_phi_search_rejects_bad_m_max():
    # m_max bounds the naive oracle only: the exact search always runs on
    # [t], so even an in-range cap is refused rather than ignored
    for n, m_max in [(5, 0), (5, 17), (5, 1), (5, 3), (1, 1), (6, 1), (12, 16)]:
        with pytest.raises(DomainError, match="m_max bounds the naive search only"):
            phi_search(SearchConfig(n, m_max=m_max))


@pytest.mark.parametrize("n", range(2, 10))
def test_phi_search_reports_a_family_below_the_bound(monkeypatch, n):
    # the bound is tight for every n <= 12, so the search never beats it; one
    # more on the bound runs the traversal at t = beta(n), where it finds the
    # balanced-deletion value as the least and reports its own witness
    def loose(k):
        value, sched = beta(k)
        return value + 1, sched

    monkeypatch.setattr("ucw.phisearch.beta", loose)
    result = phi_search(SearchConfig(n))
    assert result.phi == A[n - 1] == beta(n)[0]
    assert result.witness.m == beta(n)[0]
    if n <= 5:
        oracle = phi_naive(n).witness
    elif n == 6:  # phi_naive(6) takes seconds; naive-6.out pins its witness
        text = (SEARCH_GOLDEN / "naive-6.out").read_text()
        oracle = parse_family(text[text.index("ucs 1") :])
    else:
        return
    assert result.witness.sets == oracle.sets  # only the universe differs
