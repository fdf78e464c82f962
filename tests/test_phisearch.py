from itertools import combinations

import pytest

from ucw.constructions import beta, conway
from ucw.core import DomainError, check_conjecture, is_union_closed, max_frequency
from ucw.phisearch import (
    SearchBudgetError,
    SearchConfig,
    SearchResult,
    _branch_enumerate,
    _canonical_family,
    _pool_size,
    _root_tasks,
    phi_naive,
    phi_search,
    verify_phi_table,
)

A = conway(12)


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
    # all-subsets definition at toy scale
    from itertools import combinations

    def plain(n, m):
        best = None
        for combo in combinations(range(1 << m), n):
            members = set(combo)
            if not all((a | b) in members for a in combo for b in combo):
                continue
            top = max(
                sum(1 for s in combo if s >> e & 1) for e in range(m)
            )
            if top == 0:
                continue
            if best is None or top < best:
                best = top
        return best

    for n in range(1, 5):
        m = min(n, 4)
        assert phi_naive(n, m).phi == plain(n, m)


def test_phi_naive_scale_guard():
    with pytest.raises(DomainError):
        phi_naive(7)
    with pytest.raises(DomainError):
        phi_naive(3, m_max=7)


def test_phi_search_matches_naive_through_5():
    for n in range(1, 6):
        assert phi_search(SearchConfig(n)).phi == phi_naive(n).phi


def test_phi_search_matches_naive_at_6():
    # the full oracle scale: a few seconds of exhaustive enumeration
    assert phi_search(SearchConfig(6)).phi == phi_naive(6).phi == 4


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


def test_phi_search_worker_determinism():
    base = phi_search(SearchConfig(7, workers=1))
    for workers in (4, 8):
        other = phi_search(SearchConfig(7, workers=workers))
        assert other.phi == base.phi
        assert other.witness == base.witness
        assert other.visited == base.visited


def test_phi_search_visited_pinned():
    # node counts do not depend on the schedule; a change here must be
    # explained by a change to the enumeration
    expected = {2: 0, 3: 2, 4: 2, 5: 6, 6: 37, 7: 36, 8: 36, 9: 384, 10: 7151}
    for n, visited in expected.items():
        assert phi_search(SearchConfig(n)).visited == visited, n


def test_pool_size_caps():
    assert _pool_size(1, 12, 2) == 1
    assert _pool_size(8, 12, 2) == 2
    assert _pool_size(8, 3, 16) == 3
    assert _pool_size(4, 12, 16) == 4
    assert _pool_size(10**9, 12, 64) == 12
    assert _pool_size(0, 12, 2) == 1
    assert _pool_size(-5, 12, 2) == 1
    assert _pool_size(4, 12, None) == 1  # cpu count unknown


def _union_closed_families(m: int, n: int) -> list[tuple[int, ...]]:
    # brute force: every n-subset of P(m) that is union-closed
    out = []
    for combo in combinations(range(1 << m), n):
        members = set(combo)
        if all(a | b in members for a, b in combinations(combo, 2)):
            out.append(combo)
    return out


def _search_families(n, t, m_cap):
    found = []
    for task in _root_tasks(n, t, m_cap, 10**6):
        found += [sets for _, sets in _branch_enumerate(task)[2]]
    return found


@pytest.mark.parametrize("n", range(2, 8))
def test_search_reaches_each_family_once(n):
    leaves = 0
    for m_cap in range(1, 5):
        families = _union_closed_families(m_cap, n)
        for t in (A[n - 1], A[n - 1] + 1):  # phi(n) = a(n) here
            found = _search_families(n, t, m_cap)
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


def test_phi_search_scale_guard():
    with pytest.raises(DomainError):
        phi_search(SearchConfig(13))


def test_phi_search_budget_error_carries_incumbent():
    with pytest.raises(SearchBudgetError) as err:
        phi_search(SearchConfig(9, node_budget=50))
    exc = err.value
    assert exc.incumbent == A[8]
    assert len(exc.witness) == 9
    assert max_frequency(exc.witness)[1] == exc.incumbent


def test_phi_search_budget_error_propagates_from_workers():
    with pytest.raises(SearchBudgetError) as err:
        phi_search(SearchConfig(9, workers=4, node_budget=50))
    assert err.value.incumbent == A[8]


def test_phi_search_prune_bound_guard():
    with pytest.raises(DomainError):
        phi_search(SearchConfig(8, prune_bound=3))
    assert phi_search(SearchConfig(8, prune_bound=4)).phi == 4


def test_verify_phi_table():
    rows = verify_phi_table(9)
    assert [r.phi for r in rows] == A[:9]
    assert all(r.matches_conway for r in rows)
    assert all(r.phi <= r.beta <= r.conway for r in rows)
    with pytest.raises(DomainError):
        verify_phi_table(10)


def test_phi_search_config_naive_route():
    result = phi_search(SearchConfig(4, naive=True))
    assert isinstance(result, SearchResult)
    assert result.phi == 2


def test_phi_upper_bound_seed_at_23():
    # n=23 is beyond the search budget, but the constructive family the
    # search would seed its bound from pins phi(23) <= 13
    from ucw.constructions import renaud_family

    assert max_frequency(renaud_family(23))[1] == 13


def test_phi_search_rejects_bad_m_max():
    with pytest.raises(DomainError):
        phi_search(SearchConfig(5, m_max=0))
    with pytest.raises(DomainError):
        phi_search(SearchConfig(5, m_max=17))
