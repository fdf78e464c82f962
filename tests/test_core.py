import pickle
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ucw.core import (
    CapacityError,
    DomainError,
    Family,
    _union_augment,
    basis_sets,
    check_conjecture,
    close_under_union,
    elements_of,
    frequencies,
    is_separating,
    is_union_closed,
    mask_of,
    max_frequency,
    membership_columns,
    power_set_family,
    restrict,
    separating_quotient,
    universe_of,
)

from conftest import random_union_closed

# paper family of 23 sets: P(4) plus seven sets containing 5
B23_LISTED = [
    [], [1], [2], [3], [4],
    [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4],
    [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4],
    [1, 2, 3, 4, 5], [1, 2, 3, 5], [1, 2, 4, 5], [1, 3, 4, 5], [2, 3, 4, 5],
    [1, 2, 5], [3, 4, 5],
]


@pytest.fixture(scope="module")
def b23_listed() -> Family:
    return Family.from_lists(5, B23_LISTED)


def test_mask_roundtrip():
    assert mask_of([1, 3]) == 0b101
    assert elements_of(0b101) == (1, 3)
    assert mask_of([]) == 0
    assert elements_of(0) == ()


def test_family_canonical_order():
    fam = Family.from_sets(2, [0b11, 0b01, 0b00])
    assert fam.sets == (0b00, 0b01, 0b11)
    with pytest.raises(DomainError):
        Family(2, (0b11, 0b01))  # out of canonical order
    with pytest.raises(CapacityError):
        Family(2, (0b100,))  # element 3 over m=2
    with pytest.raises(CapacityError):
        Family(0, ())
    with pytest.raises(CapacityError):
        Family(65, ())


def test_family_first_offending_set_decides_the_error():
    # 0b01 breaks the order before 0b100 leaves the universe
    with pytest.raises(DomainError):
        Family(2, (0b11, 0b01, 0b100))
    with pytest.raises(CapacityError):
        Family(2, (0b01, 0b100, 0b00))
    with pytest.raises(CapacityError):
        Family(2, (0b00, -1))
    with pytest.raises(DomainError):
        Family(2, (0b01, 0b01))  # duplicated
    # from_sets names the first member outside [m] in canonical order, which
    # need be neither the first nor the last member
    for masks, bad in [([0, 1, -1], "-0x1"), ([0, 3, 4], "0x4"), ([3, 0b1000], "0x8")]:
        with pytest.raises(CapacityError) as err:
            Family.from_sets(2, masks)
        assert str(err.value) == f"set {bad} has elements outside universe [2]"


def _first_error(m, sets):
    """(error class, message) a member-by-member check meets first, or None."""
    prev = None
    for s in sets:
        if not 0 <= s < 1 << m:
            return CapacityError, f"set {s:#x} has elements outside universe [{m}]"
        key = (s.bit_count(), s)
        if prev is not None and key <= prev:
            return DomainError, "sets not in canonical order or duplicated"
        prev = key
    return None


def _assert_outcome(build, want, sets):
    if want is None:
        assert build().sets == tuple(sets)
    else:
        with pytest.raises(want[0]) as err:
            build()
        assert str(err.value) == want[1]


@settings(max_examples=300, deadline=None)
@given(m=st.integers(min_value=1, max_value=64), data=st.data())
def test_family_checks_match_member_by_member_reference(m, data):
    masks = data.draw(st.sets(st.integers(min_value=0, max_value=(1 << m) - 1), max_size=12))
    sets = sorted(masks, key=lambda s: (s.bit_count(), s))
    # from_sets sorts, so of any masks outside [0, 2^m) it names the first in
    # canonical order; the low bits vary their cardinality, hence that place
    given = data.draw(st.permutations(sorted(masks)))
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        out = data.draw(st.sampled_from([-1, 1 << m, 1 << 70]))
        low = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
        i = data.draw(st.integers(min_value=0, max_value=len(given)))
        given.insert(i, -1 - low if out < 0 else out | low)
    ordered = sorted(set(given), key=lambda s: (s.bit_count(), s))
    _assert_outcome(lambda: Family.from_sets(m, given), _first_error(m, ordered), ordered)
    # break the canonical family at most twice: swap two members, repeat
    # one, or put a mask outside [0, 2^m) somewhere
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        i = data.draw(st.integers(min_value=0, max_value=len(sets)))
        kind = data.draw(st.sampled_from(["swap", "repeat", "outside"]))
        if kind == "outside":
            sets.insert(i, data.draw(st.sampled_from([-1, 1 << m, (1 << m) + 1, 1 << 70])))
        elif kind == "repeat" and i < len(sets):
            sets.insert(i, sets[i])
        elif kind == "swap" and i + 1 < len(sets):
            sets[i], sets[i + 1] = sets[i + 1], sets[i]
    _assert_outcome(lambda: Family(m, tuple(sets)), _first_error(m, sets), sets)


@settings(max_examples=200, deadline=None)
@given(m=st.integers(min_value=1, max_value=64), data=st.data())
def test_family_contains_matches_set_membership(m, data):
    masks = st.integers(min_value=0, max_value=(1 << m) - 1)
    fam = Family.from_sets(m, data.draw(st.sets(masks, max_size=30)))
    probes = data.draw(st.lists(masks, max_size=10)) + list(fam.sets)
    for x in probes + [-1, 1 << m]:
        assert (x in fam) == (x in set(fam.sets))


def test_close_under_union_forced_single():
    fam = close_under_union([mask_of([1, 2]), mask_of([3])], 3)
    assert fam.sets == (mask_of([3]), mask_of([1, 2]), mask_of([1, 2, 3]))


def test_close_under_union_already_closed():
    fam = close_under_union([mask_of([1])], 1)
    assert fam.sets == (1,)


def test_close_under_union_three_block_generators():
    # three 5-element generators sharing the top element: unions of the
    # non-empty sub-collections, 2^3 - 1 sets in all
    gens = [
        mask_of([1, 2, 3, 4, 13]),
        mask_of([5, 6, 7, 8, 13]),
        mask_of([9, 10, 11, 12, 13]),
    ]
    fam = close_under_union(gens, 13)
    assert len(fam) == 7
    assert all(g in fam for g in gens)
    # every member is a superset of some generator
    assert all(any(s | g == s for g in gens) for s in fam)


def test_close_under_union_capacity_errors():
    with pytest.raises(CapacityError):
        close_under_union([1], 0)
    with pytest.raises(CapacityError):
        close_under_union([1], 65)
    with pytest.raises(CapacityError):
        close_under_union([0b100], 2)


def test_power_set_family_capacity_cap():
    assert len(power_set_family(1)) == 2
    with pytest.raises(CapacityError) as err:
        power_set_family(25)
    assert str(err.value) == "refusing to materialize 2^25 sets"


def test_is_union_closed_trivial():
    assert is_union_closed(Family.from_lists(2, [[1], [2], [1, 2]]))
    assert not is_union_closed(Family.from_lists(2, [[1], [2]]))


def test_is_union_closed_paper_family(b23_listed):
    assert is_union_closed(b23_listed)


def test_is_union_closed_large_power_set():
    fam = power_set_family(11)  # 2048 members, 12 basis sets
    assert is_union_closed(fam)
    broken = Family.from_sets(11, [s for s in fam.sets if s != 0b11])
    assert not is_union_closed(broken)


def test_universe_of():
    assert universe_of(Family.from_lists(2, [[1], [1, 2]])) == 0b11
    assert universe_of(Family(1, ())) == 0
    assert universe_of(Family.from_lists(5, B23_LISTED)) == 0b11111


def test_frequencies_empty_set_counts_toward_size():
    fam = Family.from_lists(2, [[], [1], [1, 2]])
    assert frequencies(fam) == (2, 1)
    assert len(fam) == 3


def test_frequencies_paper_anchor(b23_listed):
    assert max(frequencies(b23_listed)) == 13


def test_frequencies_mass_balance(rng):
    for _ in range(50):
        fam = random_union_closed(rng)
        counts = frequencies(fam)
        assert sum(counts) == sum(s.bit_count() for s in fam.sets)


def _per_element_frequencies(m, sets) -> tuple[int, ...]:
    # reference: test every element's bit in every member
    return tuple(sum(s >> e & 1 for s in sets) for e in range(m))


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=64),
    raw=st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=40),
    empty=st.booleans(),
)
@example(m=64, raw=[1 << 63, (1 << 64) - 1, 0xFF << 56, 0x8000_0001], empty=True)
@example(m=13, raw=[1 << 12, (1 << 13) - 1, 0x1F0, 0x100], empty=True)
def test_frequencies_match_per_element_reference(m, raw, empty):
    sets = {s & ((1 << m) - 1) for s in raw} | ({0} if empty else set())
    fam = Family.from_sets(m, sets)
    assert frequencies(fam) == _per_element_frequencies(m, fam.sets)


def test_frequencies_match_reference_above_50000_sets(rng):
    p16 = power_set_family(16)
    assert frequencies(p16) == _per_element_frequencies(16, p16.sets) == (1 << 15,) * 16
    masks = (rng.getrandbits(37) >> rng.randrange(8) for _ in range(60_000))
    fam = Family.from_sets(37, masks)
    assert len(fam) > 50_000
    assert frequencies(fam) == _per_element_frequencies(37, fam.sets)


def test_max_frequency_smallest_element_tie():
    fam = Family.from_lists(2, [[1], [1, 2]])
    assert max_frequency(fam) == (1, 2)
    p2 = power_set_family(2)
    assert max_frequency(p2) == (1, 2)  # elements 1 and 2 tie at 2


def test_max_frequency_requires_universe():
    with pytest.raises(DomainError):
        max_frequency(Family(1, (0,)))


def test_is_separating():
    assert not is_separating(Family.from_lists(2, [[1, 2]]))
    assert is_separating(Family.from_lists(2, [[1], [1, 2]]))
    assert is_separating(Family.from_lists(3, [[1, 3], [2, 3], [1, 2, 3]]))


def _per_element_columns(f: Family) -> dict[int, int]:
    # reference: each element's column built bit by bit from the members
    cols = {}
    for e in range(1, f.m + 1):
        col = sum(1 << i for i, s in enumerate(f.sets) if s >> (e - 1) & 1)
        if col:
            cols[e] = col
    return cols


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=64),
    data=st.data(),
)
def test_membership_columns_match_per_element_reference(m, data):
    sets = data.draw(st.sets(st.integers(min_value=0, max_value=(1 << m) - 1), max_size=40))
    fam = Family.from_sets(m, sets)
    assert membership_columns(fam) == _per_element_columns(fam)


def _per_element_quotient(f: Family) -> tuple[Family, dict[int, int]]:
    # reference: label each column at its smallest element, then move each
    # member's bits one element at a time
    cols = _per_element_columns(f)
    labels, mapping = {}, {}
    for e in sorted(cols):
        mapping[e] = labels.setdefault(cols[e], len(labels) + 1)
    sets = []
    for s in f.sets:
        t = 0
        for e in mapping:
            if s >> (e - 1) & 1:
                t |= 1 << (mapping[e] - 1)
        sets.append(t)
    return Family.from_sets(max(1, len(labels)), sets), mapping


@settings(max_examples=300, deadline=None)
@given(
    m=st.sampled_from([1, 7, 8, 9, 16, 17, 63, 64]),
    empty=st.booleans(),
    data=st.data(),
)
def test_separating_quotient_matches_per_element_reference(m, empty, data):
    # few members over many elements, so many columns coincide
    raw = data.draw(st.sets(st.integers(min_value=1, max_value=(1 << m) - 1), max_size=8))
    fam = Family.from_sets(m, raw | ({0} if empty else set()))
    assert separating_quotient(fam) == _per_element_quotient(fam)


def test_separating_quotient_merges_identical_columns():
    fam, mapping = separating_quotient(Family.from_lists(2, [[1, 2]]))
    assert fam == Family.from_lists(1, [[1]])
    assert mapping == {1: 1, 2: 1}


def test_separating_quotient_identity_on_separating():
    src = Family.from_lists(2, [[1], [1, 2]])
    fam, mapping = separating_quotient(src)
    assert fam == src
    assert mapping == {1: 1, 2: 2}


def test_separating_quotient_preserves_counts(rng):
    for _ in range(100):
        src = random_union_closed(rng)
        fam, _ = separating_quotient(src)
        assert is_separating(fam)
        assert len(fam) == len(src)
        if any(src.sets):
            assert max(frequencies(fam)) == max(frequencies(src))
        assert is_union_closed(fam)


def test_basis_sets_examples():
    fam = Family.from_lists(2, [[1], [2], [1, 2]])
    assert basis_sets(fam) == (mask_of([1]), mask_of([2]))
    p3 = power_set_family(3)
    assert basis_sets(p3) == (0, 1, 2, 4)  # empty set and the singletons
    pair = close_under_union([mask_of([1, 2]), mask_of([3, 4])], 4)
    assert basis_sets(pair) == (mask_of([1, 2]), mask_of([3, 4]))


def test_basis_sets_requires_closure():
    with pytest.raises(DomainError):
        basis_sets(Family.from_lists(2, [[1], [2]]))


def test_basis_reclosure_and_removal(rng):
    for _ in range(50):
        fam = random_union_closed(rng)
        basis = basis_sets(fam)
        assert close_under_union(basis, fam.m) == fam
        for b in basis:
            rest = Family.from_sets(fam.m, [s for s in fam.sets if s != b])
            assert is_union_closed(rest)


def test_restrict_partition():
    p2 = power_set_family(2)
    assert restrict(p2, 2, True) == Family.from_lists(2, [[2], [1, 2]])
    assert restrict(p2, 2, False) == Family.from_lists(2, [[], [1]])
    with pytest.raises(DomainError):
        restrict(p2, 3, True)


def test_restrict_keeps_closure(rng):
    for _ in range(50):
        fam = random_union_closed(rng)
        u = universe_of(fam)
        for a in elements_of(u):
            upper = restrict(fam, a, True)
            lower = restrict(fam, a, False)
            assert is_union_closed(upper)
            assert is_union_closed(lower)
            assert len(upper) + len(lower) == len(fam)


def test_restrict_b23_element5_free_is_power_set(b23_listed):
    lower = restrict(b23_listed, 5, False)
    assert len(lower) == 16
    assert set(lower.sets) == set(range(16))


def test_check_conjecture():
    verdict = check_conjecture(Family.from_lists(1, [[1]]))
    assert verdict.holds and verdict.witness == 1
    with pytest.raises(DomainError):
        check_conjecture(Family(1, (0,)))
    with pytest.raises(DomainError):
        check_conjecture(Family.from_lists(2, [[1], [2]]))


def test_check_conjecture_paper_anchor(b23_listed):
    verdict = check_conjecture(b23_listed)
    assert verdict.holds  # 2 * 13 >= 23


def test_membership_columns_returns_a_fresh_copy():
    fam = Family.from_lists(3, [[1], [1, 2], [3]])
    cols = membership_columns(fam)
    expected = dict(cols)
    cols[1] = 0
    cols[2] |= 0b1000
    del cols[3]
    # canonical order is {1}, {3}, {1,2}
    assert membership_columns(fam) == expected == {1: 0b101, 2: 0b100, 3: 0b010}
    assert frequencies(fam) == (2, 1, 1)
    assert is_separating(fam)


def _compute_facts(fam: Family) -> None:
    is_union_closed(fam)
    basis_sets(fam)
    membership_columns(fam)
    frequencies(fam)


def test_cached_facts_keep_equality_and_hash(b23_listed):
    fam = Family.from_lists(5, B23_LISTED)
    _compute_facts(fam)
    fresh = Family(fam.m, fam.sets)
    assert fam == fresh and fresh == fam
    assert hash(fam) == hash(fresh)
    assert {fam: 1}[fresh] == 1
    assert fam == b23_listed and hash(fam) == hash(b23_listed)


def test_cached_facts_survive_pickle():
    fam = Family.from_lists(5, B23_LISTED)
    _compute_facts(fam)
    back = pickle.loads(pickle.dumps(fam))
    fresh = Family(fam.m, fam.sets)
    assert back == fresh and hash(back) == hash(fresh)
    assert basis_sets(back) == basis_sets(fresh)
    assert membership_columns(back) == membership_columns(fresh)
    assert frequencies(back) == frequencies(fresh)


def test_closure_facts_share_one_scan(b23_listed, union_augment_calls):
    fam = Family(b23_listed.m, b23_listed.sets)
    assert is_union_closed(fam)
    basis = basis_sets(fam)
    assert check_conjecture(fam).holds
    assert is_union_closed(fam) and basis_sets(fam) == basis
    assert union_augment_calls == list(basis)


def test_failed_scan_is_kept_too(union_augment_calls):
    fam = Family.from_lists(3, [[1], [2], [3]])
    assert not is_union_closed(fam)
    for check in (basis_sets, check_conjecture):
        with pytest.raises(DomainError):
            check(fam)
    assert not is_union_closed(fam)
    assert union_augment_calls == [0b001, 0b010]  # {2} makes {1,2}, a non-member


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_closure_idempotent(m, data):
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << m) - 1), min_size=1, max_size=5)
    )
    fam = close_under_union(gens, m)
    assert is_union_closed(fam)
    assert close_under_union(fam.sets, m) == fam


def _pairwise_fixpoint_closure(gens) -> set[int]:
    # reference: union every pair of members until nothing new appears
    closed = set(gens)
    while True:
        fresh = {a | b for a in closed for b in closed} - closed
        if not fresh:
            return closed
        closed |= fresh


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_closure_matches_pairwise_fixpoint(m, data):
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << m) - 1), min_size=1, max_size=8)
    )
    fam = close_under_union(gens, m)
    assert set(fam.sets) == _pairwise_fixpoint_closure(gens)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_union_augment_one_pass(m, data):
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << m) - 1), min_size=1, max_size=6)
    )
    closed = _pairwise_fixpoint_closure(gens)
    x = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    assume(x not in closed)
    joined = _pairwise_fixpoint_closure(closed | {x}) - closed
    assert _union_augment(closed, x) == joined


def _pairwise_union_closed(sets) -> bool:
    # reference: every pair of members has its union among the members
    present = set(sets)
    return all(a | b in present for a in sets for b in sets)


def _brute_basis(sets) -> tuple[int, ...]:
    # reference: the members that are not the union of the other members
    # inside them; the union over no members does not count, so ∅ stays
    out = []
    for s in sets:
        inside = 0
        for other in sets:
            if other != s and other | s == s:
                inside |= other
        if s == 0 or inside != s:
            out.append(s)
    return tuple(out)


def _assert_scan_matches_reference(m, sets):
    fam = Family.from_sets(m, sets)
    closed = _pairwise_union_closed(fam.sets)
    assert is_union_closed(fam) == closed
    if closed:
        assert basis_sets(fam) == _brute_basis(fam.sets)
    else:
        with pytest.raises(DomainError):
            basis_sets(fam)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=8),
    empty=st.sampled_from(["keep", "add", "drop"]),
    data=st.data(),
)
def test_scan_matches_pairwise_on_closures(m, empty, data):
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << m) - 1), min_size=1, max_size=6)
    )
    closed = _pairwise_fixpoint_closure(gens)
    if empty == "add":
        closed.add(0)
    elif empty == "drop":
        closed.discard(0)
    assume(closed)
    _assert_scan_matches_reference(m, closed)
    # the same closure less one member: still closed exactly when that
    # member was a basis set
    gone = data.draw(st.sampled_from(sorted(closed)))
    _assert_scan_matches_reference(m, closed - {gone})


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_scan_matches_pairwise_on_arbitrary_families(m, data):
    sets = data.draw(
        st.sets(st.integers(min_value=0, max_value=(1 << m) - 1), min_size=1, max_size=12)
    )
    _assert_scan_matches_reference(m, sets)


@settings(max_examples=100, deadline=None)
@given(
    order=st.permutations(range(8)),
    data=st.data(),
)
def test_scan_on_chains(order, data):
    # nested prefixes of a random element order; every member is a basis set
    cuts = data.draw(st.sets(st.integers(min_value=0, max_value=8), min_size=1))
    chain = {sum(1 << e for e in order[:k]) for k in cuts}
    fam = Family.from_sets(8, chain)
    assert is_union_closed(fam)
    assert basis_sets(fam) == fam.sets
    _assert_scan_matches_reference(8, chain)


def test_scan_matches_pairwise_past_1024_sets_over_m40():
    rng = random.Random(40)
    gens = [mask_of(rng.sample(range(1, 41), 3)) for _ in range(11)]
    # the closure of k generators is the set of unions of their non-empty
    # sub-collections, built here without any closure routine
    closed = set()
    for pick in range(1, 1 << len(gens)):
        u = 0
        for i, g in enumerate(gens):
            if pick >> i & 1:
                u |= g
        closed.add(u)
    assert len(closed) > 1024
    _assert_scan_matches_reference(40, closed)
    fam = Family.from_sets(40, closed)
    basis = set(basis_sets(fam))
    dropped_basis = rng.choice(sorted(basis))
    dropped_other = rng.choice(sorted(closed - basis))
    assert is_union_closed(Family.from_sets(40, closed - {dropped_basis}))
    assert not is_union_closed(Family.from_sets(40, closed - {dropped_other}))


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_quotient_separating_and_size_preserving(m, data):
    gens = data.draw(
        st.lists(st.integers(min_value=0, max_value=(1 << m) - 1), min_size=1, max_size=5)
    )
    fam = close_under_union(gens, m)
    quo, mapping = separating_quotient(fam)
    assert is_separating(quo)
    assert len(quo) == len(fam)
    assert set(mapping) == set(elements_of(universe_of(fam)))
