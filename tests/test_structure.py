import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucw.constructions import renaud_family
from ucw import structure
from ucw.core import (
    ConjectureVerdict,
    DomainError,
    Family,
    close_under_union,
    elements_of,
    frequencies,
    is_separating,
    power_set_family,
    restrict,
    universe_of,
)
from ucw.structure import (
    corollary1_witness,
    dominates,
    frequency_order_relabel,
    lemma1_witness,
    minimal_counterexample_audit,
    s_collection,
    s_frequency_bound,
)

from conftest import random_separating_union_closed


def brute_dominates(f: Family, b: int, c: int) -> bool:
    cb = 1 << (c - 1)
    bb = 1 << (b - 1)
    return all(bool(s & bb) for s in f.sets if s & cb)


def test_frequency_order_relabel_identity():
    fam = Family.from_lists(2, [[2], [1, 2]])  # freq 1:1, 2:2 already ordered
    relabeled, perm = frequency_order_relabel(fam)
    assert relabeled == fam
    assert perm == (1, 2)


def test_frequency_order_relabel_swap():
    fam = Family.from_lists(2, [[1], [1, 2]])  # freq 1:2, 2:1 -> swap
    relabeled, perm = frequency_order_relabel(fam)
    assert relabeled == Family.from_lists(2, [[2], [1, 2]])
    assert perm == (2, 1)


def test_frequency_order_relabel_b23():
    fam = renaud_family(23)  # element 5 has frequency 7, the others 13
    relabeled, perm = frequency_order_relabel(fam)
    assert perm[0] == 5
    counts = frequencies(relabeled)
    assert counts == tuple(sorted(counts))


def _per_element_relabel(f: Family) -> tuple[Family, tuple[int, ...]]:
    # reference: order the used elements by (count, element), then move
    # each member's bits one element at a time
    counts = {e: sum(s >> (e - 1) & 1 for s in f.sets) for e in range(1, f.m + 1)}
    order = sorted((e for e in counts if counts[e]), key=lambda e: (counts[e], e))
    sets = [sum(1 << i for i, e in enumerate(order) if s >> (e - 1) & 1) for s in f.sets]
    return Family.from_sets(len(order), sets), tuple(order)


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from([1, 7, 8, 9, 16, 17, 63, 64]),
    empty=st.booleans(),
    data=st.data(),
)
def test_frequency_order_relabel_matches_per_element_reference(m, empty, data):
    # the sets "used minus one element" separate every used element, and
    # unions with them stay among them or give `used`, so the family is small
    full = (1 << m) - 1
    used = data.draw(st.integers(min_value=1, max_value=full))
    gens = data.draw(st.lists(st.integers(min_value=1, max_value=full), max_size=5))
    gens = [g & used for g in gens if g & used]
    gens += [used] + [used ^ (1 << e) for e in range(m) if used >> e & 1]
    fam = close_under_union(gens + ([0] if empty else []), m)
    assert is_separating(fam)
    assert frequency_order_relabel(fam) == _per_element_relabel(fam)


def test_frequency_order_relabel_rejects_non_separating():
    with pytest.raises(DomainError):
        frequency_order_relabel(Family.from_lists(2, [[1, 2]]))


def test_s_collection_p2():
    table = s_collection(power_set_family(2))
    assert table.rows == (0b11, 0b10)
    assert table.s_frequency == (1, 2)


def test_s_collection_p3():
    table = s_collection(power_set_family(3))
    assert table.rows == (0b111, 0b110, 0b101)
    assert table.s_frequency == (2, 2, 3)  # elements 1,2 at m-1; element 3 in all rows


def test_s_collection_row_count_is_universe_size():
    fam, _ = frequency_order_relabel(renaud_family(23))
    table = s_collection(fam)
    assert len(table.rows) == 5
    assert len(set(table.rows)) == 5
    members = set(fam.sets)
    assert all(row in members for row in table.rows)


def _per_member_rows(f: Family) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # reference: row A_i as the union of every member avoiding i, one scan
    # of the members per row, and row counts read off the rows
    rows = [universe_of(f)]
    for i in range(1, f.m):
        bit = 1 << (i - 1)
        u = 0
        seen = False
        for s in f.sets:
            if not s & bit:
                u |= s
                seen = True
        assert seen
        rows.append(u)
    s_freq = tuple(
        sum(1 for row in rows if row >> (e - 1) & 1) for e in range(1, f.m + 1)
    )
    return tuple(rows), s_freq


def test_s_collection_matches_per_member_rows(rng):
    # ∅ changes no column's distinctness and no union, so each family is
    # checked both with and without it
    for _ in range(150):
        src = random_separating_union_closed(rng, m_max=12)
        for sets in (set(src.sets) | {0}, set(src.sets) - {0}):
            fam, _ = frequency_order_relabel(Family.from_sets(src.m, sets))
            table = s_collection(fam)
            assert (table.rows, table.s_frequency) == _per_member_rows(fam)


def test_s_collection_requires_frequency_order():
    fam = Family.from_lists(2, [[1], [1, 2]])  # freq(1)=2 > freq(2)=1
    with pytest.raises(DomainError):
        s_collection(fam)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: s_collection(Family.from_lists(2, [[1], [2]])),
         "s_collection requires a union-closed family"),
        (lambda: s_collection(Family.from_lists(3, [[1], [2], [1, 2]])),
         "s_collection requires an exactly covered universe"),
        (lambda: frequency_order_relabel(Family(1, (0,))),
         "frequency_order_relabel requires a non-empty universe"),
        (lambda: lemma1_witness(power_set_family(3), 0),
         "lemma1_witness needs i in 1..2, got 0"),
        (lambda: lemma1_witness(power_set_family(3), 3),
         "lemma1_witness needs i in 1..2, got 3"),
    ],
    ids=["s-not-closed", "s-unused-element", "relabel-empty-set", "lemma1-i0", "lemma1-im"],
)
def test_staircase_preconditions_are_refused(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_dominates_examples():
    fam = Family.from_lists(2, [[1, 2], [2]])
    assert dominates(fam, 2, 1)
    assert not dominates(fam, 1, 2)
    p2 = power_set_family(2)
    assert not dominates(p2, 1, 2)
    assert not dominates(p2, 2, 1)
    with pytest.raises(DomainError):
        dominates(fam, 3, 1)


def test_dominates_matches_avoiding_universe_formulation(rng):
    # b dominates c  <=>  c not in U(restrict(f, b, False))
    for _ in range(60):
        fam = random_separating_union_closed(rng)
        elements = elements_of(universe_of(fam))
        for b in elements:
            avoid_universe = universe_of(restrict(fam, b, False))
            for c in elements:
                expected = not (avoid_universe >> (c - 1)) & 1
                assert dominates(fam, b, c) == expected == brute_dominates(fam, b, c)


def test_lemma1_not_applicable_on_power_set():
    p3 = power_set_family(3)
    assert lemma1_witness(p3, 1) is None
    assert lemma1_witness(p3, 2) is None


def test_lemma1_chain_family():
    # chain {x}, {x,y}, {x,y,z} relabeled by frequency: element 1 appears only
    # in row 0, element 2's row count is full, and 2 dominates 1
    fam = Family.from_lists(3, [[3], [2, 3], [1, 2, 3]])
    table = s_collection(fam)
    assert table.s_frequency == (1, 2, 3)
    witness = lemma1_witness(fam, 1)
    assert witness == 2
    assert table.s_frequency[witness - 1] == table.m - 1
    assert dominates(fam, witness, 1)


def test_lemma1_random_postconditions(rng):
    checked = 0
    for _ in range(100):
        fam = random_separating_union_closed(rng)
        if not any(fam.sets):
            continue
        relabeled, _ = frequency_order_relabel(fam)
        table = s_collection(relabeled)
        m = table.m
        for i in range(1, m):
            witness = lemma1_witness(relabeled, i)
            if table.s_frequency[i - 1] == m - 1:
                assert witness is None
                continue
            checked += 1
            assert table.s_frequency[witness - 1] == m - 1
            assert brute_dominates(relabeled, witness, i)
    assert checked > 0


def _reference_walk(f: Family, i: int) -> int:
    # Lemma 1's walk without the staircase: step to the least j > i that
    # dominates i until the row count is full
    m = f.m
    s_freq = _per_member_rows(f)[1]
    while s_freq[i - 1] < m - 1:
        i = next(j for j in range(i + 1, m) if brute_dominates(f, j, i))
    return i


def test_domination_walk_matches_reference(rng):
    # the families of test_lemma1_random_postconditions, then the subs
    families = [random_separating_union_closed(rng) for _ in range(100)]
    ambiguous = 0
    for fam in families:
        if not any(fam.sets):
            continue
        relabeled, _ = frequency_order_relabel(fam)
        m = relabeled.m
        s_freq = _per_member_rows(relabeled)[1]
        for i in range(1, m):
            if s_freq[i - 1] == m - 1:
                assert lemma1_witness(relabeled, i) is None
                continue
            assert lemma1_witness(relabeled, i) == _reference_walk(relabeled, i)
            above = [j for j in range(i + 1, m) if brute_dominates(relabeled, j, i)]
            ambiguous += len(above) > 1
        for _ in range(5):
            sub = Family.from_sets(m, rng.sample(relabeled.sets, rng.randint(1, len(relabeled))))
            if not any(sub.sets):
                continue
            counts = frequencies(sub)
            start = counts.index(max(counts)) + 1
            assert corollary1_witness(relabeled, sub) == _reference_walk(relabeled, start)
    assert ambiguous > 0  # some first steps have more than one dominating j


def test_corollary1_builds_one_staircase(monkeypatch):
    calls = []
    build = structure.s_collection

    def counted(f):
        calls.append(f)
        return build(f)

    monkeypatch.setattr(structure, "s_collection", counted)
    assert corollary1_witness(Family(3, (4, 6, 7)), Family(3, (7,))) == 2
    assert len(calls) == 1


def test_corollary1_symmetric_power_set():
    p2 = power_set_family(2)
    witness = corollary1_witness(p2, p2)
    assert witness == 1
    assert s_collection(p2).s_frequency[witness - 1] == 1  # = m - 1


def test_corollary1_b23_restriction():
    fam, _ = frequency_order_relabel(renaud_family(23))
    sub = restrict(fam, fam.m, False)
    witness = corollary1_witness(fam, sub)
    table = s_collection(fam)
    assert table.s_frequency[witness - 1] == 4
    counts = frequencies(sub)
    assert counts[witness - 1] == max(counts)


def test_corollary1_random_postconditions(rng):
    checked = 0
    for _ in range(100):
        fam = random_separating_union_closed(rng)
        if not any(fam.sets):
            continue
        relabeled, _ = frequency_order_relabel(fam)
        table = s_collection(relabeled)
        if table.m < 2:
            continue
        # a union-closed non-empty sub-collection: one branch of a restriction
        sub = restrict(relabeled, relabeled.m, True)
        if not sub.sets:
            continue
        checked += 1
        witness = corollary1_witness(relabeled, sub)
        counts = frequencies(sub)
        assert counts[witness - 1] == max(counts)
        assert table.s_frequency[witness - 1] >= table.m - 1
    assert checked > 50


def test_corollary1_walks_to_a_dominating_element():
    # frequencies 1, 2, 3; sub's least max-frequency element 1 has one row
    # of two, so the domination walk starts there and hands back element 2
    fam = Family(3, (4, 6, 7))
    assert s_collection(fam).s_frequency[0] < 2
    assert corollary1_witness(fam, Family(3, (7,))) == 2


def test_corollary1_rejects_bad_sub():
    p2 = power_set_family(2)
    with pytest.raises(DomainError):
        corollary1_witness(p2, Family(2, ()))
    foreign = Family.from_lists(2, [[2]])  # not a member of the chain below
    with pytest.raises(DomainError):
        corollary1_witness(Family.from_lists(2, [[1], [1, 2]]), foreign)


def test_s_frequency_bound_examples():
    element, count = s_frequency_bound(power_set_family(2))
    assert count >= 2
    fam = renaud_family(23)
    element, count = s_frequency_bound(fam)
    assert count >= 5
    assert count == 13  # the guaranteed element is one of the frequency-13 ones


def test_s_frequency_bound_random(rng):
    for _ in range(100):
        fam = random_separating_union_closed(rng)
        if not any(fam.sets):
            continue
        m = universe_of(fam).bit_count()
        _, count = s_frequency_bound(fam)
        assert count >= m


def test_audit_power_set():
    report = minimal_counterexample_audit(power_set_family(3))
    assert report.conjecture_holds
    assert report.parity_ok is None
    assert report.maxfreq_equals_n is None
    assert report.size_bound_ok is None


def test_audit_b56():
    report = minimal_counterexample_audit(renaud_family(56))
    assert report.conjecture_holds  # 2 * 31 >= 56


def test_audit_random(rng):
    for _ in range(100):
        fam = random_separating_union_closed(rng)
        if not any(fam.sets):
            continue
        report = minimal_counterexample_audit(fam)
        assert report.conjecture_holds


@pytest.mark.parametrize(
    "fam, top, expected",
    [
        # B(23): odd, 23 >= 4*5-1, max frequency 13 against (23-1)/2 = 11
        (renaud_family(23), None, (True, False, True)),
        (renaud_family(23), 11, (True, True, True)),
        # the size bound at its edge: B(19) meets 4*5-1, B(18) misses it
        (renaud_family(19), None, (True, False, True)),
        (renaud_family(18), None, (False, False, False)),
        # P(2) is even, so a max frequency of (4-1)//2 = 1 does not count;
        # and 4 < 4*2-1
        (power_set_family(2), 1, (False, False, False)),
    ],
    ids=["b23", "b23-top11", "b19", "b18", "p2-top1"],
)
def test_audit_deduction_chain_on_a_violation(monkeypatch, fam, top, expected):
    # no desk-scale family violates the conjecture, so the verdict (and the
    # maximal frequency where a case needs it) is forced
    monkeypatch.setattr(structure, "check_conjecture", lambda f: ConjectureVerdict(False, None))
    if top is not None:
        monkeypatch.setattr(structure, "max_frequency", lambda f: (1, top))
    report = minimal_counterexample_audit(fam)
    assert not report.conjecture_holds
    assert (report.parity_ok, report.maxfreq_equals_n, report.size_bound_ok) == expected
