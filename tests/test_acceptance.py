"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Criterion 4 carries a documented expected failure: the published 56-set
hand family P(6) \\ {6,5,16,15,36,45,136,145} is union-closed but its
claimed maximal frequency 30 is arithmetically wrong (element 2 is removed
from no set, so it stays in all 32 kept sets containing it). A balanced
variant that does reach 30 is checked alongside to preserve the point the
family was meant to make (30 < beta(56) = 31).
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from ucw.cli import main as cli_main
from ucw.constructions import (
    BlockUpsetParams,
    beta,
    block_upset_family,
    conway,
    conway_properties,
    gap_report,
    pad_family,
    renaud_family,
    size_multiset_dominance,
    two_block_family,
)
from ucw.core import (
    Family,
    check_conjecture,
    frequencies,
    is_separating,
    is_union_closed,
    mask_of,
    max_frequency,
    power_set_family,
    restrict,
    universe_of,
)
from ucw.familyfile import FamilyParseError, parse_family, serialize_family
from ucw.phisearch import SearchConfig, phi_naive, phi_search
from ucw.structure import (
    corollary1_witness,
    frequency_order_relabel,
    lemma1_witness,
    s_collection,
    s_frequency_bound,
)

from conftest import random_separating_union_closed

GOLDEN = Path(__file__).parent / "golden"

HAND56_REMOVED = [[6], [5], [1, 6], [1, 5], [3, 6], [4, 5], [1, 3, 6], [1, 4, 5]]


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    else:
        print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_conway_anchors():
    with criterion(1, "conway anchors and million-term property sweep"):
        seq = conway(23)
        assert seq[0] == 1 and seq[1] == 1
        assert seq[22] == 14
        start = time.perf_counter()
        assert conway_properties(1_000_000) is None
        assert time.perf_counter() - start < 1.0


def test_criterion_02_beta_anchors():
    with criterion(2, "beta anchors and materialized B(23) shape"):
        assert beta(23)[0] == 13
        assert beta(56)[0] == 31
        fam = renaud_family(23)
        assert is_union_closed(fam)
        assert len(fam) == 23
        assert universe_of(fam).bit_count() == 5
        assert max_frequency(fam)[1] == 13
        lower = restrict(fam, 5, False)
        assert set(lower.sets) == set(range(16))  # exactly P(4)


def test_criterion_03_formula_vs_materialization():
    with criterion(3, "beta formula equals materialized maximum for n in 2..1024"):
        start = time.perf_counter()
        for n in range(2, 1025):
            assert beta(n)[0] == max_frequency(renaud_family(n))[1], n
        assert time.perf_counter() - start < 30.0


def _hand56() -> Family:
    removed = {mask_of(e) for e in HAND56_REMOVED}
    return Family.from_sets(6, [s for s in range(64) if s not in removed])


def test_criterion_04_hand_family_parses_and_is_closed():
    with criterion(4, "hand family parses, is union-closed, beta(56)=31"):
        fam = parse_family((GOLDEN / "hand56.ucs").read_text())
        assert fam == _hand56()
        assert len(fam) == 56
        assert is_union_closed(fam)
        assert beta(56)[0] == 31
        assert check_conjecture(fam).holds


@pytest.mark.xfail(
    strict=True,
    reason="published listing is arithmetically off: element 2 is never removed, "
    "so the maximal frequency is 32, not the claimed 30 (see decisions ledger)",
)
def test_criterion_04_hand_family_printed_frequency_claim():
    with criterion(4, "hand family printed max-frequency claim (30)"):
        assert max_frequency(_hand56())[1] == 30


def test_criterion_04_supplement_balanced_variant_reaches_30():
    with criterion(4, "balanced hand-family variant attains 30 < 31"):
        removed = {mask_of(e) for e in ([5], [6], [1, 5], [2, 6], [3, 5], [4, 6],
                                        [1, 3, 5], [2, 4, 6])}
        variant = Family.from_sets(6, [s for s in range(64) if s not in removed])
        assert len(variant) == 56
        assert is_union_closed(variant)
        assert max_frequency(variant)[1] == 30 < beta(56)[0]


def test_criterion_05_two_block_closed_forms_and_symmetry():
    with criterion(5, "two-block closed forms (N=2..6) and block symmetry"):
        for N in range(2, 7):
            fam = two_block_family(N)
            top_bit = 1 << (2 * N)
            upper = [s for s in fam.sets if s & top_bit]
            assert len(upper) == (1 << (N + 1)) - 1
            for e in range(2 * N):
                up_freq = sum(1 for s in upper if s >> e & 1)
                assert up_freq == (1 << N) + (1 << (N - 1)) - 1
        for s in range(2, 9):
            for k in range(2, 9):
                if s * k + 1 > 17 or (s == 2 and k == 2):
                    continue
                counts = frequencies(block_upset_family(BlockUpsetParams(s, k)))
                assert len(set(counts[: s * k])) == 1, (s, k)
        # one large instance to exercise the vectorized counting path
        counts = frequencies(block_upset_family(BlockUpsetParams(4, 5)))
        assert len(set(counts[:20])) == 1


def test_criterion_06_gap_growth():
    with criterion(6, "gap values (1,2,4) at N=(3,4,5), non-decreasing to 6"):
        assert gap_report(3)[2] == 1
        assert gap_report(4)[2] == 2
        assert gap_report(5)[2] == 4
        gaps = [gap_report(N)[2] for N in range(3, 7)]
        assert gaps == sorted(gaps)


def test_criterion_07_dominance_bijection():
    with criterion(7, "size-multiset dominance for (2,3),(2,4),(3,2),(4,3)"):
        for s, k in [(2, 3), (2, 4), (3, 2), (4, 3)]:
            cfam = block_upset_family(BlockUpsetParams(s, k))
            bfam = renaud_family(len(cfam))
            assert size_multiset_dominance(cfam, bfam), (s, k)


def test_criterion_08_padding_transform(rng):
    with criterion(8, "padding transform example and 200 random families"):
        padded, params = pad_family(power_set_family(3), Fraction(5, 2))
        assert params.p == 1
        assert Fraction(len(padded), universe_of(padded).bit_count()) == Fraction(9, 4)
        assert is_union_closed(padded) and is_separating(padded)
        done = 0
        while done < 200:
            fam = random_separating_union_closed(rng, m_max=6)
            if not any(fam.sets):
                continue
            done += 1
            den = rng.randint(1, 6)
            num = rng.randint(2 * den + 1, 4 * den)
            c = Fraction(num, den)
            out, pp = pad_family(fam, c)
            n2, m2 = len(out), universe_of(out).bit_count()
            assert Fraction(n2, m2) <= c
            assert is_union_closed(out)
            assert is_separating(out)
            counts = frequencies(out)
            assert all(counts[e - 1] <= pp.p for e in pp.new_elements)


def test_criterion_09_staircase_machinery(rng):
    with criterion(9, "staircase machinery on 500 random separating families"):
        done = 0
        while done < 500:
            fam = random_separating_union_closed(rng, m_max=8)
            if not any(fam.sets):
                continue
            done += 1
            relabeled, _ = frequency_order_relabel(fam)
            table = s_collection(relabeled)
            m = table.m
            members = set(relabeled.sets)
            assert len(set(table.rows)) == m
            for i, row in enumerate(table.rows):
                assert row in members
                if i >= 1:
                    assert not row >> (i - 1) & 1
                    tail = ((1 << m) - 1) ^ ((1 << i) - 1)
                    assert row & tail == tail
            _, bound_count = s_frequency_bound(fam)
            assert bound_count >= universe_of(fam).bit_count()
            counts = frequencies(relabeled)
            for i in range(1, m):
                witness = lemma1_witness(relabeled, i)
                if table.s_frequency[i - 1] == m - 1:
                    assert witness is None
                else:
                    assert table.s_frequency[witness - 1] == m - 1
                    ibit, wbit = 1 << (i - 1), 1 << (witness - 1)
                    assert all(s & wbit for s in relabeled.sets if s & ibit)
            sub = restrict(relabeled, m, True)
            if sub.sets:
                w = corollary1_witness(relabeled, sub)
                sub_counts = frequencies(sub)
                assert sub_counts[w - 1] == max(sub_counts)
                assert table.s_frequency[w - 1] >= m - 1


def test_criterion_10_phi_table():
    with criterion(10, "phi table: oracle agreement, conway match, audits"):
        a = conway(9)
        for n in range(1, 6):
            assert phi_naive(n).phi == phi_search(SearchConfig(n)).phi
        values = []
        for n in range(1, 10):
            result = phi_search(SearchConfig(n))
            values.append(result.phi)
            assert result.phi == a[n - 1], n
            assert result.conjecture_violations == 0
            assert check_conjecture(result.witness).holds
        for prev, nxt in zip(values, values[1:]):
            assert nxt - prev in (0, 1)


def test_criterion_11_search_determinism(capsys):
    with criterion(11, "search phi -n 7 byte-identical over three runs"):
        outputs = []
        for _ in range(3):
            code = cli_main(["search", "phi", "-n", "7"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert "phi: 4" in outputs[0]


def test_criterion_12_format_roundtrip_and_errors():
    with criterion(12, "golden round-trips and parse error codes"):
        goldens = sorted(GOLDEN.glob("*.ucs"))
        assert len(goldens) >= 4
        for path in goldens:
            text = path.read_text()
            assert serialize_family(parse_family(text)) == text, path.name
        cases = [
            ("ucs 2\nm=1\n1\n", "bad-header"),
            ("ucs 1\nm=65\n1\n", "m-out-of-range"),
            ("ucs 1\nm=2\n2 1\n", "element-order"),
            ("ucs 1\nm=2\n1 3\n", "element-out-of-range"),
            ("ucs 1\nm=2\n1\n1\n", "duplicate-set"),
            ("ucs 1\nm=2\n", "empty-body"),
        ]
        for text, code in cases:
            with pytest.raises(FamilyParseError) as err:
                parse_family(text)
            assert err.value.code == code
