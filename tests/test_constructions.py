import hashlib
import math
from fractions import Fraction

import pytest

from ucw import constructions
from ucw.constructions import (
    CONWAY_MAX_N,
    BlockUpsetParams,
    _entropy_bound_holds,
    balanced_deletion,
    beta,
    binary_entropy,
    block_upset_family,
    conway,
    conway_properties,
    entropy_binomial_check,
    entropy_binomial_sweep,
    epsilon_bound_check,
    gap_report,
    hole_levels,
    pad_family,
    renaud_family,
    size_multiset_dominance,
    two_block_family,
    up_set,
)
from ucw.core import (
    CapacityError,
    DomainError,
    Family,
    frequencies,
    is_separating,
    is_union_closed,
    mask_of,
    max_frequency,
    power_set_family,
    universe_of,
)
from ucw.familyfile import serialize_family

from conftest import random_separating_union_closed

# ---------------------------------------------------------------------------
# Conway's sequence

A_FIRST_18 = [1, 1, 2, 2, 3, 4, 4, 4, 5, 6, 7, 7, 8, 8, 8, 8, 9, 10]


def test_conway_anchors():
    assert conway(2) == [1, 1]
    assert conway(23)[22] == 14


def test_conway_first_18():
    assert conway(18) == A_FIRST_18


def test_conway_properties_clean():
    assert conway_properties(2) is None
    assert conway_properties(23) is None
    assert conway_properties(10_000) is None


@pytest.mark.parametrize("cap", [2, 50])
def test_conway_cap(monkeypatch, cap):
    # a small patched cap stands in for CONWAY_MAX_N, so a broken check
    # never starts a huge list; conway_properties(10**6) stays under the cap
    assert CONWAY_MAX_N >= 10**6
    monkeypatch.setattr(constructions, "CONWAY_MAX_N", cap)
    assert len(conway(cap)) == cap
    with pytest.raises(CapacityError) as err:
        conway(cap + 1)
    assert str(err.value) == f"conway capped at limit <= {cap}"


def test_conway_power_of_two_midpoint():
    seq = conway(1 << 12)
    for k in range(1, 13):
        assert seq[(1 << k) - 1] == 1 << (k - 1)


# ---------------------------------------------------------------------------
# B(n) and beta(n)


def test_beta_anchors():
    assert beta(23)[0] == 13
    assert beta(56)[0] == 31


def test_beta_power_of_two():
    for k in range(1, 11):
        value, decomp = beta(1 << k)
        assert value == 1 << (k - 1)
        assert decomp.deleted == 0


def test_beta_rejects_small_n():
    with pytest.raises(DomainError):
        beta(1)
    with pytest.raises(DomainError):
        renaud_family(1)


def test_beta_decomposition_invariants():
    for n in range(2, 600):
        value, decomp = beta(n)
        assert (1 << (decomp.k - 1)) < n <= (1 << decomp.k)
        assert decomp.deleted == (1 << decomp.k) - n
        if decomp.k >= 2:
            assert 0 <= decomp.v < math.comb(decomp.k - 1, decomp.r - 1)


def test_renaud_family_b23_matches_listing_up_to_relabeling():
    fam = renaud_family(23)
    assert len(fam) == 23 and fam.m == 5
    assert is_union_closed(fam)
    assert frequencies(fam) == (13, 13, 13, 13, 7)
    listed = Family.from_lists(
        5,
        [[], [1], [2], [3], [4], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4],
         [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 3, 4],
         [1, 2, 3, 4, 5], [1, 2, 3, 5], [1, 2, 4, 5], [1, 3, 4, 5], [2, 3, 4, 5],
         [1, 2, 5], [3, 4, 5]],
    )
    # equal up to a frequency-preserving relabeling of 1..4 (element 5 fixed)
    import itertools

    def relabel(f: Family, perm: dict[int, int]) -> frozenset:
        out = set()
        for s in f.sets:
            t = 0
            for e in range(1, 6):
                if s >> (e - 1) & 1:
                    t |= 1 << (perm[e] - 1)
            out.add(t)
        return frozenset(out)

    target = frozenset(listed.sets)
    assert any(
        relabel(fam, {1: p[0], 2: p[1], 3: p[2], 4: p[3], 5: 5}) == target
        for p in itertools.permutations([1, 2, 3, 4])
    )


def test_renaud_family_b56():
    fam = renaud_family(56)
    assert max_frequency(fam) == (5, 31)
    assert is_union_closed(fam)


def test_renaud_element_k_frequency():
    for n in (23, 56, 100, 300):
        fam = renaud_family(n)
        k = fam.m
        counts = frequencies(fam)
        assert counts[k - 1] == (1 << (k - 1)) - ((1 << k) - n)


def test_renaud_balanced_below_k():
    for n in range(2, 300):
        fam = renaud_family(n)
        counts = frequencies(fam)[: fam.m - 1]
        if counts:
            assert max(counts) - min(counts) <= 1


def test_beta_matches_materialization_small_sweep():
    for n in range(2, 257):
        value, _ = beta(n)
        fam = renaud_family(n)
        assert len(fam) == n
        assert value == max_frequency(fam)[1], n
        if n % 17 == 0:
            assert is_union_closed(fam)


def test_beta_monotone_step_and_conway_bound():
    values = [beta(n)[0] for n in range(2, 1025)]
    seq = conway(1024)
    for i, value in enumerate(values):
        assert value <= seq[i + 1]  # beta(n) <= a(n)
    for prev, nxt in zip(values, values[1:]):
        assert nxt - prev in (0, 1)


def test_beta_closed_form_at_large_n():
    value, decomp = beta(1 << 20)
    assert value == 1 << 19 and decomp.k == 20
    value, _ = beta((1 << 20) - 12_345)
    assert 0 < value <= 1 << 19


def test_beta_capped_at_the_universe():
    # B(n) needs k = ceil(log2 n) elements, at most MAX_UNIVERSE like every Family
    value, decomp = beta(1 << 64)
    assert (decomp.k, value) == (64, 1 << 63)
    with pytest.raises(CapacityError):
        beta((1 << 64) + 1)


def test_renaud_materialization_cap(monkeypatch):
    # k = 14 and up is past the materialization cap, refused before the
    # deletion schedule is built
    def no_schedule(n):
        raise AssertionError("schedule built before the cap check")

    monkeypatch.setattr(constructions, "_beta_schedule", no_schedule)
    for n in (8193, 10_000, 2**14 + 1, 10**4299):
        with pytest.raises(CapacityError) as err:
            renaud_family(n)
        assert str(err.value) == "materialization capped at k <= 13", n


def test_balanced_deletion_degree_guarantee():
    sel = balanced_deletion(5, 2, 2)
    assert len(sel) == 2
    with pytest.raises(DomainError):
        balanced_deletion(4, 2, 7)


def test_balanced_deletion_exact_degrees_exhaustive():
    # every level shape through universe 9, every deletion count: the selection
    # must consist of distinct h-sets whose degrees hit ceil on the smallest
    # elements and floor on the rest
    for K in range(1, 10):
        for h in range(1, K + 1):
            total = math.comb(K, h)
            for v in range(0, total + 1):
                sel = balanced_deletion(K, h, v)
                assert len(sel) == len(set(sel)) == v
                deg = [0] * K
                for mask in sel:
                    assert mask.bit_count() == h
                    for e in range(K):
                        if mask >> e & 1:
                            deg[e] += 1
                base, extra = divmod(v * h, K)
                expected = [base + 1 if e < extra else base for e in range(K)]
                assert deg == expected, (K, h, v)


@pytest.mark.parametrize("u", [0, 1, 2, 5])
def test_balanced_deletion_empty_levels(u):
    # level 0 holds only the empty set; the empty universe has no h-set for h >= 1
    assert balanced_deletion(u, 0, 0) == []
    assert balanced_deletion(u, 0, 1) == [0]
    with pytest.raises(DomainError):
        balanced_deletion(u, 0, 2)
    for h in range(1, 4):
        assert balanced_deletion(0, h, 0) == []
        with pytest.raises(DomainError):
            balanced_deletion(0, h, 1)


# sha256 of the serialized B(n): any other selection with the same degrees
# fails these; the 2..1024 digest runs over the documents one after another
B_DIGESTS = {
    1000: "9909dfbca532e9855a8e08398efe3f27f413b5a62f25dbe8de80e16ad18b633a",
    8192: "08f679f53a31cceede611f86579c21e43b93a0e500b5b97c280bd25b78d9fdf5",
}
B_2_TO_1024_DIGEST = "2825b1444bbc9d5c47788f8f43e25dce53dc5120e0162740a663f4f43be269fb"


@pytest.mark.parametrize("n", sorted(B_DIGESTS))
def test_renaud_family_pinned_byte_for_byte(n):
    text = serialize_family(renaud_family(n))
    assert hashlib.sha256(text.encode()).hexdigest() == B_DIGESTS[n]


def test_renaud_family_2_to_1024_pinned_byte_for_byte():
    digest = hashlib.sha256()
    for n in range(2, 1025):
        digest.update(serialize_family(renaud_family(n)).encode())
    assert digest.hexdigest() == B_2_TO_1024_DIGEST


# sha256 of the serialized C(s,k); C(4,4), over m = 17, spans three byte blocks
C_DIGESTS = {
    (4, 3): "ee42b7a0a02f92ba5f72f2e7b3ffaec7c529f356d1deefcfdcff76e05d32957d",
    (4, 4): "f1b82696bb60bcfc46b1c4ac69c623f52be85181ed14f49e2eb13d9e09291099",
}


@pytest.mark.parametrize("s,k", sorted(C_DIGESTS))
def test_block_upset_family_pinned_byte_for_byte(s, k):
    text = serialize_family(block_upset_family(BlockUpsetParams(s, k)))
    assert hashlib.sha256(text.encode()).hexdigest() == C_DIGESTS[s, k]


# renaud_family and the block builders skip Family's checks, so the checked
# constructor must take what they build unchanged
def test_renaud_family_passes_the_checked_constructor():
    for n in [*range(2, 1025), 8192]:
        fam = renaud_family(n)
        assert Family(fam.m, fam.sets) == fam, n


@pytest.mark.parametrize(
    "s,k",
    [(s, k) for s in range(2, 9) for k in range(2, 9) if s * k + 1 <= 17 and (s, k) != (2, 2)],
)
def test_block_upset_family_passes_the_checked_constructor(s, k):
    fam = block_upset_family(BlockUpsetParams(s, k))
    assert Family(fam.m, fam.sets) == fam


@pytest.mark.parametrize("N", range(2, 7))
def test_two_block_family_passes_the_checked_constructor(N):
    fam = two_block_family(N)
    assert Family(fam.m, fam.sets) == fam


# ---------------------------------------------------------------------------
# up-sets and block families


def test_up_set_two_generators_paper_count():
    N = 3
    m = 2 * N + 1
    gens = [mask_of([1, 2, 3, 7]), mask_of([4, 5, 6, 7])]
    fam = up_set(gens, m)
    assert len(fam) == (1 << (N + 1)) - 1


def test_up_set_full_and_empty_generators():
    assert up_set([0b111], 3).sets == (0b111,)
    assert len(up_set([0], 4)) == 16


def test_up_set_errors():
    with pytest.raises(DomainError):
        up_set([], 3)
    with pytest.raises(CapacityError):
        up_set([0], 40)
    with pytest.raises(CapacityError):
        up_set([0b1000], 3)


def test_block_upset_params_validation():
    with pytest.raises(DomainError):
        BlockUpsetParams(2, 2)
    with pytest.raises(DomainError):
        BlockUpsetParams(1, 3)
    with pytest.raises(CapacityError):
        BlockUpsetParams(9, 8)


def test_block_upset_family_79_sets():
    fam = block_upset_family(BlockUpsetParams(3, 2))  # two blocks of size 3
    assert len(fam) == 79
    assert max_frequency(fam) == (1, 43)
    counts = frequencies(fam)
    assert len(set(counts[:6])) == 1
    assert is_union_closed(fam)


def test_block_upset_top_element_frequency_is_upset_size():
    for s, k in [(3, 2), (2, 3), (2, 4), (4, 3)]:
        fam = block_upset_family(BlockUpsetParams(s, k))
        counts = frequencies(fam)
        top = s * k + 1
        upset_size = len(fam) - (1 << (s * k))
        assert counts[top - 1] == upset_size


def test_block_symmetry_all_materialized():
    cases = [
        (s, k)
        for s in range(2, 9)
        for k in range(2, 9)
        if s * k + 1 <= 17 and not (s == 2 and k == 2)
    ]
    assert len(cases) >= 10
    for s, k in cases:
        fam = block_upset_family(BlockUpsetParams(s, k))
        counts = frequencies(fam)
        assert len(set(counts[: s * k])) == 1, (s, k)


def test_block_upset_hole_levels_4_3():
    params = BlockUpsetParams(4, 3)
    assert list(hole_levels(params)) == [6, 7, 8, 9, 10]
    fam = block_upset_family(params)
    top_bit = 1 << (params.m - 1)
    upper = [s for s in fam.sets if s & top_bit]
    for size in hole_levels(params):
        present = sum(1 for s in upper if s.bit_count() == size)
        possible = math.comb(params.s * params.k, size - 1)
        assert 0 < present < possible, size
    # above the hole range every level is full
    for size in range(params.k * (params.s - 1) + 2, params.m + 1):
        present = sum(1 for s in upper if s.bit_count() == size)
        assert present == math.comb(params.s * params.k, size - 1), size
    # the generators' level s+1 holds exactly the k generators; none lie below
    for size in range(1, params.s + 2):
        present = sorted(s for s in upper if s.bit_count() == size)
        expected = sorted(params.generators()) if size == params.s + 1 else []
        assert present == expected, size


def test_up_set_frequency_accounting():
    for s, k in [(3, 2), (4, 3)]:
        fam = block_upset_family(BlockUpsetParams(s, k))
        top_bit = 1 << (s * k)
        upper = [x for x in fam.sets if x & top_bit]
        total = sum(x.bit_count() - 1 for x in upper)
        assert total % (s * k) == 0
        per_element = total // (s * k)
        counts = frequencies(fam)
        assert counts[0] == (1 << (s * k - 1)) + per_element


def test_two_block_family_closed_forms():
    for N in range(2, 7):
        fam = two_block_family(N)
        assert len(fam) == (1 << (2 * N)) + (1 << (N + 1)) - 1
        top_bit = 1 << (2 * N)
        upper = [x for x in fam.sets if x & top_bit]
        assert len(upper) == (1 << (N + 1)) - 1
        upset_counts = [
            sum(1 for x in upper if x >> e & 1) for e in range(2 * N)
        ]
        assert set(upset_counts) == {(1 << N) + (1 << (N - 1)) - 1}


def test_two_block_n2_collapses_to_balanced_deletion_values():
    fam = two_block_family(2)
    assert len(fam) == 23
    assert max_frequency(fam)[1] == 13 == beta(23)[0]


def test_size_multiset_dominance():
    for s, k in [(2, 3), (2, 4), (3, 2), (4, 3)]:
        cfam = block_upset_family(BlockUpsetParams(s, k))
        bfam = renaud_family(len(cfam))
        assert size_multiset_dominance(cfam, bfam), (s, k)


def test_size_multiset_dominance_self_fails():
    fam = power_set_family(3)
    assert not size_multiset_dominance(fam, fam)
    with pytest.raises(DomainError):
        size_multiset_dominance(fam, power_set_family(2))


def test_max_frequency_smaller_than_balanced_deletion():
    for s, k in [(3, 2), (2, 3), (4, 3)]:
        cfam = block_upset_family(BlockUpsetParams(s, k))
        bfam = renaud_family(len(cfam))
        assert max_frequency(cfam)[1] < max_frequency(bfam)[1]


def test_gap_report_values():
    assert gap_report(3) == (43, 44, 1)
    assert gap_report(4) == (151, 153, 2)
    assert gap_report(5) == (559, 563, 4)


def test_gap_report_n2_zero_gap():
    # the excluded-parameter corner: the two-block family collapses onto the
    # balanced-deletion one, so there is nothing to gain
    assert gap_report(2) == (13, 13, 0)


def test_gap_report_nondecreasing_through_6():
    gaps = [gap_report(N)[2] for N in range(2, 7)]
    assert gaps == sorted(gaps)
    assert gap_report(6)[2] >= 4


def test_gap_report_bounds():
    with pytest.raises(CapacityError):
        gap_report(7)
    with pytest.raises(CapacityError):
        gap_report(1)


def test_gap_report_refuses_a_formula_off_the_materialized_family(monkeypatch):
    # the two-block family at N = 3 has 79 sets; a closed form one above
    # max_frequency(B(79)) = 44
    monkeypatch.setattr(constructions, "beta", lambda n: (beta(n)[0] + 1, beta(n)[1]))
    with pytest.raises(AssertionError, match=r"^beta\(79\) formula 45 != materialized 44$"):
        gap_report(3)


# ---------------------------------------------------------------------------
# entropy chain


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.2) > 0.7
    assert binary_entropy(0.2) == pytest.approx(0.721928, abs=1e-6)
    for p in (0.1, 0.25, 0.4):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p))
    with pytest.raises(DomainError):
        binary_entropy(0.0)
    with pytest.raises(DomainError):
        binary_entropy(1.0)


def test_entropy_binomial_check_n20():
    chk = entropy_binomial_check(20)
    assert chk.k == 8
    assert chk.binomial == 76_904_685
    assert chk.binomial > 1 << 21
    assert chk.entropy_ok and chk.power_ok


def test_entropy_binomial_check_small_n_fails_without_error():
    chk = entropy_binomial_check(1)
    assert not chk.power_ok
    assert not chk.chain_ok


def test_entropy_binomial_sweep_threshold():
    checks, threshold = entropy_binomial_sweep(40)
    assert threshold is not None
    assert all(c.chain_ok for c in checks if c.N >= threshold)
    assert not checks[threshold - 2].chain_ok  # N = threshold-1 fails
    assert all(c.power_ok for c in checks if c.N >= 6)


def test_entropy_binomial_sweep_recurrence_matches_direct_computation():
    # the sweep steps C(2N, k) from N-1; k = ceil(2N/5) stays put or grows by
    # one, and N = 1..300 takes each of the two steps many times
    checks, _ = entropy_binomial_sweep(300)
    assert checks == [entropy_binomial_check(N) for N in range(1, 301)]

    checks, threshold = entropy_binomial_sweep(2000)
    assert [c.N for c in checks] == list(range(1, 2001))
    for c in checks:
        assert c.k == -(-2 * c.N // 5)
        assert c.binomial == math.comb(2 * c.N, c.k), c.N
    assert checks[-1] == entropy_binomial_check(2000)
    assert checks[-1].k == 800 and checks[-1].binomial.bit_length() == 2882
    assert threshold == 6


def test_entropy_binomial_sweep_empty_range():
    assert entropy_binomial_sweep(0) == ([], None)
    assert entropy_binomial_sweep(-1) == ([], None)


def _entropy_ok_exact(N):
    # reference: 2^(2N H(k/2N)) = (2N)^(2N) / (k^k (2N-k)^(2N-k)) in integers
    n, k = 2 * N, -(-2 * N // 5)
    return math.comb(n, k) * (n + 1) * k**k * (n - k) ** (n - k) >= n**n


def test_entropy_ok_matches_exact_integers():
    for N in [*range(1, 301), 2000]:
        assert entropy_binomial_check(N).entropy_ok == _entropy_ok_exact(N), N


def test_entropy_bound_near_tie_decided_exactly():
    # b0 is the smallest binomial value meeting the bound; b0 and b0 - 1 have
    # the same float log2, so only the exact comparison tells them apart
    n, k = 200, 80
    b0 = -(-(n**n) // ((n + 1) * k**k * (n - k) ** (n - k)))
    assert math.log2(b0) == math.log2(b0 - 1)
    assert _entropy_bound_holds(n, k, b0)
    assert not _entropy_bound_holds(n, k, b0 - 1)


# ---------------------------------------------------------------------------
# padding transform


def test_pad_family_p3_example():
    padded, params = pad_family(power_set_family(3), Fraction(5, 2))
    assert params.p == 1
    assert len(padded) == 9 and universe_of(padded).bit_count() == 4
    assert set(padded.sets) == set(range(8)) | {0b1111}
    assert Fraction(9, 4) <= params.c
    assert is_union_closed(padded) and is_separating(padded)


def test_pad_family_identity_when_ratio_met():
    fam = power_set_family(2)  # 4 sets over 2 elements, ratio 2 <= c
    padded, params = pad_family(fam, Fraction(5, 2))
    assert padded == fam and params.p == 0


def test_pad_family_p4_example():
    padded, params = pad_family(power_set_family(4), 3)
    assert params.p == 2
    assert len(padded) == 18 and universe_of(padded).bit_count() == 6
    assert is_union_closed(padded)
    assert Fraction(18, 6) <= Fraction(3)


def test_pad_family_rejects_c_at_most_2():
    with pytest.raises(DomainError):
        pad_family(power_set_family(2), 2)
    with pytest.raises(DomainError):
        pad_family(power_set_family(2), Fraction(3, 2))


def test_pad_family_random_properties(rng):
    done = 0
    while done < 200:
        fam = random_separating_union_closed(rng, m_max=6)
        if not any(fam.sets):
            continue
        done += 1
        c = Fraction(rng.randint(2 * 6 + 1, 4 * 6), 6)  # in (2, 4]
        padded, params = pad_family(fam, c)
        n2 = len(padded)
        m2 = universe_of(padded).bit_count()
        assert Fraction(n2, m2) <= c
        assert is_union_closed(padded)
        assert is_separating(padded)
        counts = frequencies(padded)
        for e in params.new_elements:
            assert counts[e - 1] <= params.p
        assert params.p < len(fam)


def test_epsilon_bound_check_p3():
    report = epsilon_bound_check(power_set_family(3), Fraction(5, 2))
    assert report.holds
    assert report.p == 1
    assert report.frequency == 4
    assert report.ceiling == 4  # ceil((8-1)/2)
    assert report.bound == Fraction(8, 6)
    assert report.frequency > report.bound


def test_epsilon_bound_check_vacuous_branch():
    fam = Family.from_lists(2, [[1], [1, 2]])  # ratio 1 <= c
    report = epsilon_bound_check(fam, Fraction(5, 2))
    assert report.holds and report.p == 0


def test_epsilon_bound_check_two_block():
    fam = two_block_family(3)
    report = epsilon_bound_check(fam, Fraction(11, 5))
    assert report.holds
    assert report.p > 0


# ---------------------------------------------------------------------------
# refusals of out-of-range input

EMPTY_SET_ONLY = Family(1, (0,))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: conway(0), DomainError, "limit must be >= 1"),
        (lambda: conway_properties(1), DomainError, "limit must be >= 2"),
        (lambda: two_block_family(1), DomainError, "two_block_family requires N >= 2"),
        (lambda: two_block_family(12), CapacityError,  # sk + 1 = 25
         "materialization capped at sk+1 <= 24"),
        (lambda: entropy_binomial_check(0), DomainError, "N must be >= 1"),
        (lambda: epsilon_bound_check(EMPTY_SET_ONLY, 3), DomainError,
         "epsilon_bound_check requires a non-empty member set"),
        (lambda: pad_family(EMPTY_SET_ONLY, 3), DomainError,
         "pad_family requires a non-empty universe"),
        (lambda: pad_family(Family.from_sets(64, range(8)), Fraction(5, 2)),
         CapacityError, "padding needs 65 elements, over the 64 cap"),
    ],
    ids=[
        "conway-0", "conway-properties-1", "two-block-1", "two-block-12",
        "entropy-0", "epsilon-empty-set", "pad-empty-set", "pad-p3-over-m64",
    ],
)
def test_out_of_range_input_is_refused(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
