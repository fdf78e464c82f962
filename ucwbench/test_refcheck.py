"""Each reference check rejects a wrong answer. No workload runs here.

    python3 -m pytest -q ucwbench
"""

import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, "src")]

import refcheck as ref  # noqa: E402
from refcheck import CheckError  # noqa: E402
from workloads import (  # noqa: E402
    CliResult, FamilyInput, analyze_op, closure_op, search_op, verify_op,
)

# B(6): {}, {1}, {2}, {1,2}, {1,3}, {1,2,3}; element 1 lies in 4 sets
B6 = [0b000, 0b001, 0b010, 0b011, 0b101, 0b111]
NOT_CLOSED = [0b000, 0b001, 0b010, 0b101, 0b111]  # {1}|{2} is missing


def search_output(phi, sets, m=3):
    return CliResult(0, f"phi: {phi}\nvisited: 1\nconjecture_violations: 0\n"
                     + ref.write_ucs(m, sets), "")


def report_output(report):
    return CliResult(0, "".join(f"{k}: {v}\n" for k, v in report.items()), "")


def test_closure_tests_reject_a_family_that_is_not_union_closed():
    assert ref.closed_by_table(B6, 3) and ref.closed_pairwise(B6)
    assert not ref.closed_by_table(NOT_CLOSED, 3)
    assert not ref.closed_pairwise(NOT_CLOSED)
    gens = [0b001, 0b010, 0b100]
    assert ref.closed_by_generators(ref.one_pass_closure(gens), gens)
    assert not ref.closed_by_generators(ref.one_pass_closure(gens) - {0b011}, gens)


def test_closure_check_rejects_a_missing_set():
    op = closure_op("t", [0b001, 0b010, 0b100], 3)
    op.check(SimpleNamespace(m=3, sets=(1, 2, 4, 3, 5, 6, 7)))
    with pytest.raises(CheckError):
        op.check(SimpleNamespace(m=3, sets=(1, 2, 4, 3, 5, 7)))


def test_search_check_rejects_wrong_phi_and_bad_witnesses():
    op = search_op(6, naive=True)
    op.check(search_output(4, B6))
    assert ref.conway(11)[-1] == 7
    with pytest.raises(CheckError, match="phi"):
        op.check(search_output(5, B6))
    with pytest.raises(CheckError, match="union-closed"):
        op.check(search_output(4, NOT_CLOSED + [0b110]))
    with pytest.raises(CheckError, match="size"):
        op.check(search_output(4, B6[:5]))
    # closed, six sets, but element 1 lies in five of them: not a phi(6) witness
    with pytest.raises(CheckError, match="max frequency"):
        op.check(search_output(4, [0b000, 0b001, 0b011, 0b101, 0b111, 0b1111], m=4))


def test_analyze_check_rejects_wrong_basis_count_and_max_frequency():
    fam = FamilyInput("t", 3, B6, None)
    op = analyze_op(fam)
    right = ref.analyze_report(3, B6, True, len(ref.basis_by_table(B6, 3)))
    assert right["basis_count"] == "4" and right["max_freq"] == "4"
    op.check(report_output(right))
    for key, wrong in (("basis_count", "5"), ("max_freq", "3"), ("union_closed", "false")):
        with pytest.raises(CheckError):
            op.check(report_output({**right, key: wrong}))


def test_basis_from_generators_drops_unions_of_smaller_generators():
    gens = [0b001, 0b010, 0b011, 0b110]
    assert ref.basis_from_generators(gens) == [0b001, 0b010, 0b110]
    closure = ref.one_pass_closure(gens)
    assert ref.basis_by_table(sorted(closure), 3) == [0b001, 0b010, 0b110]


def test_verify_check_rejects_a_wrong_witness():
    op = verify_op(FamilyInput("t", 3, B6, None))
    op.check(report_output({"conjecture": "holds", "witness": "1"}))
    with pytest.raises(CheckError):
        op.check(report_output({"conjecture": "holds", "witness": "2"}))


def test_element_counts_come_from_the_lines():
    m, rows = ref.parse_ucs("ucs 1\nm=3\n-\n1\n1 3\n# note\n2 3\n")
    assert ref.element_counts(m, rows) == [2, 1, 2]
    assert ref.max_frequency(ref.element_counts(m, rows)) == (1, 2)
