import argparse
import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ucw
from ucw import constructions, core, structure
from ucw.cli import main
from ucw.constructions import renaud_family
from ucw.core import Family, is_separating, is_union_closed, max_frequency
from ucw.familyfile import load_family, parse_family, serialize_family

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def as_pairs(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def test_main_builds_no_parser(capsys, monkeypatch):
    # the parser is built once, at import; each call only parses with it
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli(capsys, "gen", "conway", "-n", "3")[0] == 0
    assert run_cli(capsys, "search", "phi", "-n", "4")[0] == 0
    assert built == []


def test_gen_conway(capsys):
    code, out, _ = run_cli(capsys, "gen", "conway", "-n", "23")
    assert code == 0
    values = out.split()
    assert len(values) == 23
    assert values[0] == values[1] == "1"
    assert values[-1] == "14"


def test_gen_conway_over_the_cap_exit_2(capsys, monkeypatch):
    # a small patched cap stands in for CONWAY_MAX_N
    monkeypatch.setattr(constructions, "CONWAY_MAX_N", 50)
    assert run_cli(capsys, "gen", "conway", "-n", "50")[0] == 0
    code, out, err = run_cli(capsys, "gen", "conway", "-n", "51")
    assert (code, out, err) == (2, "", "error: conway capped at limit <= 50\n")


def test_gen_renaud_past_the_cap_exit_2(capsys, monkeypatch):
    # refused before the deletion schedule is built
    def no_schedule(n):
        raise AssertionError("schedule built before the cap check")

    monkeypatch.setattr(constructions, "_beta_schedule", no_schedule)
    code, out, err = run_cli(capsys, "gen", "renaud", "-n", "1" + "0" * 4299)
    assert (code, out, err) == (2, "", "error: materialization capped at k <= 13\n")


# every integer option, with None where the number goes
INT_OPTIONS = {
    "conway-n": ["gen", "conway", "-n", None],
    "renaud-n": ["gen", "renaud", "-n", None],
    "beta-n": ["gen", "beta", "-n", None],
    "block-upset-s": ["gen", "block-upset", "-s", None, "-k", "2"],
    "block-upset-k": ["gen", "block-upset", "-s", "2", "-k", None],
    "search-n": ["search", "phi", "-n", None],
    "search-m-max": ["search", "phi", "-n", "3", "--naive", "--m-max", None],
    "compare-N": ["compare", "gap", "-N", None],
}


@pytest.mark.parametrize("argv", INT_OPTIONS.values(), ids=INT_OPTIONS.keys())
def test_int_options_read_alike_under_every_int_digit_limit(capsys, int_digit_limit, argv):
    # ASCII digits as in a .ucs file; past 20 digits after the leading zeros
    # a count is above every cap, and its leading digits stand in for it
    def run(value):
        return run_cli(capsys, *[value if arg is None else arg for arg in argv])

    assert run("007") == run("7")
    huge = run("1" + "0" * 4299)
    assert huge[:2] == (2, "") and huge[2].startswith("error: ")
    assert run("0" * 5000 + "9" * 5000) == run("1" + "0" * 20) == huge
    flag = argv[argv.index(None) - 1]
    # "\u0663" is the Arabic-Indic digit three, which int() takes
    for bad in ("+3", " 3", "1_0", "\u0663", "-3", "3 4", ""):
        code, out, err = run(bad)
        assert (code, out) == (2, "")
        assert f"argument {flag}: invalid int value: {bad!r}" in err


def test_gen_renaud_writes_file_and_reports_beta(capsys, tmp_path):
    target = tmp_path / "b23.ucs"
    code, out, _ = run_cli(capsys, "gen", "renaud", "-n", "23", "-o", str(target))
    assert code == 0
    pairs = as_pairs(out)
    assert pairs["beta"] == "13"
    assert pairs["k"] == "5"
    fam = load_family(target)
    assert len(fam) == 23 and max_frequency(fam) == (1, 13)


def test_gen_renaud_stdout_document(capsys):
    code, out, err = run_cli(capsys, "gen", "renaud", "-n", "23")
    assert code == 0
    fam = parse_family(out)
    assert len(fam) == 23
    assert as_pairs(err)["beta"] == "13"


def test_gen_beta_past_the_universe_exit_2(capsys):
    # B(n) needs k = ceil(log2 n) <= 64 elements; refused before the schedule
    code, out, err = run_cli(capsys, "gen", "beta", "-n", "1" + "0" * 4299)
    assert (code, out) == (2, "")
    assert err == "error: B(n) needs k = ceil(log2 n) <= 64 elements\n"


def test_gen_beta_cross_check(capsys):
    code, out, _ = run_cli(capsys, "gen", "beta", "-n", "56")
    assert code == 0
    pairs = as_pairs(out)
    assert pairs["beta"] == "31"
    assert pairs["cross_check"] == "ok"


def test_gen_beta_cross_check_reports_a_mismatch(capsys, monkeypatch):
    # a closed form one above the materialized B(56) is reported, not hidden
    real = constructions.beta
    monkeypatch.setattr(constructions, "beta", lambda n: (real(n)[0] + 1, real(n)[1]))
    code, out, _ = run_cli(capsys, "gen", "beta", "-n", "56")
    pairs = as_pairs(out)
    assert pairs["beta"] == "32"
    assert pairs["cross_check"] == "MISMATCH materialized=31"


def test_gen_block_upset(capsys, tmp_path):
    target = tmp_path / "c.ucs"
    code, out, _ = run_cli(
        capsys, "gen", "block-upset", "-s", "3", "-k", "2", "-o", str(target)
    )
    assert code == 0
    pairs = as_pairs(out)
    assert pairs["n"] == "79"
    assert pairs["max_freq"] == "43"
    assert pairs["block_freq_equal"] == "true"
    assert pairs["hole_levels"] == "5..5"
    fam = load_family(target)
    assert len(fam) == 79


def test_gen_block_upset_rejects_2_2(capsys):
    code, _, err = run_cli(capsys, "gen", "block-upset", "-s", "2", "-k", "2")
    assert code == 2
    assert "error" in err


def test_gen_block_upset_2_11_is_refused_by_the_up_set_budget(capsys):
    # 23 elements pass the 24-element cap, but up_set's budget counts 2^20
    # supersets for each of the eleven 3-element generators over [23], as it
    # would for the bare 2-blocks over [22], past UPSET_MATERIALIZE_LIMIT;
    # no other valid (s, k) under the cap is refused so
    code, out, err = run_cli(capsys, "gen", "block-upset", "-s", "2", "-k", "11")
    assert (code, out, err) == (2, "", "error: up-set too large to materialize\n")


def test_gen_pad(capsys, tmp_path):
    src = tmp_path / "p3.ucs"
    dst = tmp_path / "padded.ucs"
    run_cli(capsys, "gen", "block-upset", "-s", "3", "-k", "2", "-o", str(src))
    code, out, err = run_cli(
        capsys, "gen", "pad", "-c", "5/2", "-i", str(src), "-o", str(dst)
    )
    # the whole report on stdout, none on stderr, and the padded file byte for byte
    assert (code, out, err) == (0, "p: 41\nratio: 120/48\nratio_ok: true\n", "")
    digest = hashlib.sha256(dst.read_bytes()).hexdigest()
    assert digest == "13246e2198c826fbb206b6bda418b8e0e688d16448ad8359ca59635101c77637"
    fam = load_family(dst)
    assert is_union_closed(fam) and is_separating(fam)


def test_gen_pad_without_output_writes_the_document_to_stdout(capsys, tmp_path):
    # as every gen command: the same bytes test_gen_pad pins, the report on stderr
    src = tmp_path / "p3.ucs"
    run_cli(capsys, "gen", "block-upset", "-s", "3", "-k", "2", "-o", str(src))
    code, out, err = run_cli(capsys, "gen", "pad", "-c", "5/2", "-i", str(src))
    assert (code, err) == (0, "p: 41\nratio: 120/48\nratio_ok: true\n")
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == "13246e2198c826fbb206b6bda418b8e0e688d16448ad8359ca59635101c77637"


@pytest.mark.parametrize("ratio", ["5/0", "0/0", "1e10000000"])
def test_gen_pad_zero_denominator_is_a_usage_error(capsys, tmp_path, ratio):
    # Fraction raises ZeroDivisionError on a zero denominator, which argparse
    # does not turn into a usage error on its own; an exponent is refused
    # before Fraction would expand it
    dst = tmp_path / "padded.ucs"
    code, out, err = run_cli(
        capsys, "gen", "pad", "-c", ratio, "-i", str(GOLDEN / "b23.ucs"), "-o", str(dst)
    )
    assert code == 2 and out == ""
    assert f"argument -c: invalid Fraction value: '{ratio}'" in err
    assert not dst.exists()


@pytest.mark.parametrize(
    "ratio, p",
    [
        ("0" * 5000 + "5/" + "0" * 5000 + "2", "7"),
        ("9" * 600, "0"),
        ("9" * 601, None),
        ("9" * 5000, None),
        ("5/" + "9" * 601, None),
    ],
    ids=["zero-padded", "600-digits", "601-digits", "5000-digits", "601-digit-den"],
)
def test_gen_pad_c_reads_alike_under_every_int_digit_limit(
    capsys, tmp_path, int_digit_limit, ratio, p
):
    # at most 600 digits after the leading zeros, whatever the interpreter's limit
    dst = tmp_path / "padded.ucs"
    code, out, err = run_cli(
        capsys, "gen", "pad", "-c", ratio, "-i", str(GOLDEN / "b23.ucs"), "-o", str(dst)
    )
    if p is None:
        assert code == 2 and "argument -c: invalid Fraction value" in err
    else:
        assert code == 0 and as_pairs(out)["p"] == p


@pytest.mark.parametrize(
    "family, message",
    [
        (Family(1, (0,)), "pad_family requires a non-empty universe"),
        (Family.from_sets(64, range(8)), "padding needs 65 elements, over the 64 cap"),
    ],
    ids=["empty-set", "p3-over-m64"],
)
def test_gen_pad_refusal_exit_2(capsys, tmp_path, family, message):
    src = tmp_path / "in.ucs"
    dst = tmp_path / "padded.ucs"
    src.write_text(serialize_family(family))
    code, out, err = run_cli(
        capsys, "gen", "pad", "-c", "5/2", "-i", str(src), "-o", str(dst)
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not dst.exists()


def test_analyze_b23(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(GOLDEN / "b23.ucs"))
    assert code == 0
    pairs = as_pairs(out)
    assert pairs["n"] == "23"
    assert pairs["m"] == "5"
    assert pairs["union_closed"] == "true"
    assert pairs["separating"] == "true"
    assert pairs["max_freq"] == "13"
    assert pairs["conjecture"] == "holds"
    assert pairs["s_table_rows"] == "5"
    assert int(pairs["s_bound_frequency"]) >= 5


def test_analyze_builds_no_staircase(capsys, monkeypatch):
    # s_frequency_bound reads the bound off the file family's frequencies
    calls = Counter()
    for name in ("frequency_order_relabel", "s_collection"):
        fn = getattr(structure, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(structure, name, counted)
    code, _, _ = run_cli(capsys, "analyze", str(GOLDEN / "b23.ucs"))
    assert code == 0
    assert calls == {}


def test_analyze_scans_closure_once(capsys, union_augment_calls):
    # one scan of the file's family, which every later check reuses
    code, out, _ = run_cli(capsys, "analyze", str(GOLDEN / "b23.ucs"))
    assert code == 0
    assert len(union_augment_calls) == int(as_pairs(out)["basis_count"]) == 7


def test_analyze_emits_stable_audit_keys(capsys):
    code, out, _ = run_cli(capsys, "analyze", str(GOLDEN / "b23.ucs"))
    assert code == 0
    pairs = as_pairs(out)
    assert pairs["conjecture_holds"] == "true"
    assert pairs["parity_ok"] == "n/a"
    assert pairs["maxfreq_equals_n"] == "n/a"
    assert pairs["size_bound_ok"] == "n/a"


def test_analyze_non_union_closed(capsys, tmp_path):
    path = tmp_path / "open.ucs"
    path.write_text("ucs 1\nm=2\n1\n2\n")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    pairs = as_pairs(out)
    assert pairs["union_closed"] == "false"
    assert pairs["basis_count"] == "n/a"
    assert pairs["conjecture"] == "n/a"
    assert "s_table_rows" not in pairs


def test_verify_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify", str(GOLDEN / "b23.ucs"))
    assert code == 0
    assert as_pairs(out)["conjecture"] == "holds"

    bad = tmp_path / "broken.ucs"
    bad.write_text("ucs 1\nm=2\n2 1\n")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2
    assert "element-order" in err

    missing = tmp_path / "nope.ucs"
    code, _, err = run_cli(capsys, "verify", str(missing))
    assert code == 2


@pytest.mark.parametrize(
    "body, code",
    [
        (b"ucs 1\nm=3\n\xd9\xa1\n", "bad-set-line"),  # Arabic-Indic digit one
        (b"ucs 1\nm=3\n1 \xff\n", "bad-set-line"),  # not UTF-8
        (b"ucs 1\nm=\xd9\xa1\n1\n", "bad-header"),
        (b"ucs 1\nm=\xff\n1\n", "bad-header"),
    ],
)
def test_non_ascii_bytes_fail_with_stable_code(capsys, tmp_path, body, code):
    path = tmp_path / "bytes.ucs"
    path.write_bytes(body)
    for command in ("analyze", "verify"):
        status, _, err = run_cli(capsys, command, str(path))
        assert status == 2
        assert err.startswith(f"parse error: {code}:")


@pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_cr_line_ends_fail_with_bad_header(capsys, tmp_path, end):
    # the format is LF-only; a file must not load through newline translation
    path = tmp_path / "ends.ucs"
    path.write_bytes(end.join([b"ucs 1", b"m=3", b"1", b"1 2", b""]))
    for command in ("analyze", "verify"):
        status, out, err = run_cli(capsys, command, str(path))
        assert status == 2
        assert out == ""
        assert err.startswith("parse error: bad-header:")


def test_verify_violation_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(core, "check_conjecture", lambda f: core.ConjectureVerdict(False, None))
    code, out, err = run_cli(capsys, "verify", str(GOLDEN / "b23.ucs"))
    assert (code, out, err) == (1, "conjecture: violated\n", "")


def test_analyze_and_verify_on_the_empty_set_alone(capsys, tmp_path):
    path = tmp_path / "empty.ucs"
    path.write_text("ucs 1\nm=1\n-\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, err) == (0, "")
    assert out == (
        "n: 1\nm: 1\nunion_closed: true\nseparating: true\nbasis_count: 1\n"
        "max_freq: n/a\nmax_freq_element: n/a\n"
        "conjecture: n/a\nconjecture_witness: n/a\n"
    )
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == "error: check_conjecture requires a non-empty member set\n"


def test_verify_usage_error_exit_2(capsys):
    assert main(["verify"]) == 2
    capsys.readouterr()


def test_search_phi_naive(capsys):
    code, out, _ = run_cli(capsys, "search", "phi", "-n", "3", "--naive")
    assert code == 0
    pairs = as_pairs(out)
    assert pairs["phi"] == "2"
    witness = parse_family(out[out.index("ucs 1") :])
    assert len(witness) == 3 and max_frequency(witness)[1] == 2


def test_search_phi_output_file(capsys, tmp_path):
    # with -o the witness goes to the file and stdout keeps the report alone
    target = tmp_path / "witness.ucs"
    code, out, err = run_cli(capsys, "search", "phi", "-n", "5", "-o", str(target))
    pinned = (GOLDEN / "search" / "phi-5.out").read_text()
    cut = pinned.index("ucs 1")
    assert (code, out, err) == (0, pinned[:cut], "")
    assert target.read_text() == pinned[cut:]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "phi", "-n", "5"],
        ["gen", "renaud", "-n", "23"],
        ["gen", "block-upset", "-s", "3", "-k", "2"],
        ["gen", "pad", "-c", "5/2", "-i", str(GOLDEN / "b23.ucs")],
    ],
    ids=["search-phi", "gen-renaud", "gen-block-upset", "gen-pad"],
)
def test_output_under_missing_directory_exit_2_before_any_report(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, "-o", str(tmp_path / "missing" / "out.ucs"))
    assert (code, out) == (2, "")
    assert err.startswith("io error: ")


SEARCH_CASES = (
    [(f"phi-{n}", ["-n", str(n)]) for n in range(1, 11)]
    + [(f"naive-{n}", ["-n", str(n), "--naive"]) for n in range(1, 6)]
    + [(f"naive-{n}-m3", ["-n", str(n), "--naive", "--m-max", "3"]) for n in range(1, 6)]
    # the top of each range, about 3 s together; listed last so that the
    # cases above keep their test ids
    + [("phi-11", ["-n", "11"]), ("phi-12", ["-n", "12"]), ("naive-6", ["-n", "6", "--naive"])]
)


@pytest.mark.parametrize("name, argv", SEARCH_CASES)
def test_search_matches_pinned_output(capsys, name, argv):
    # phi, visited, violations and the witness, as the search/ files hold them
    code, out, err = run_cli(capsys, "search", "phi", *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "search" / f"{name}.out").read_text()


@pytest.mark.parametrize("n, m", [(3, 1), (4, 1), (5, 1), (5, 2), (6, 1), (6, 2)])
def test_search_phi_naive_more_sets_than_the_power_set_exit_2(capsys, n, m):
    code, out, err = run_cli(
        capsys, "search", "phi", "-n", str(n), "--naive", "--m-max", str(m)
    )
    assert (code, out) == (2, "")
    assert err == f"error: phi_naive needs n <= 2^m_max = {1 << m}\n"


@pytest.mark.parametrize("n, m", [(6, 1), (12, 16)])
def test_search_phi_m_max_without_naive_exit_2(capsys, n, m):
    # the exact search always runs on [beta(n) - 1]; a cap would let its
    # witness escape it, so --m-max is refused unless --naive is given
    code, out, err = run_cli(capsys, "search", "phi", "-n", str(n), "--m-max", str(m))
    assert (code, out) == (2, "")
    assert err == (
        "error: m_max bounds the naive search only; "
        "phi_search always searches on [beta(n) - 1]\n"
    )


def test_search_phi_past_the_node_budget_exit_2(capsys, monkeypatch):
    # the node budget refuses like every other cap: one error line, exit 2,
    # and the bound beta(9) = 5 still standing
    monkeypatch.setattr("ucw.phisearch.NODE_BUDGET", 10)
    code, out, err = run_cli(capsys, "search", "phi", "-n", "9")
    assert (code, out) == (2, "")
    assert err == "error: search budget exceeded at n=9; phi(9) <= 5 stands\n"


def test_domain_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "gen", "beta", "-n", "1")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "gen", "pad", "-c", "2/1", "-i", "x", "-o", "y")
    assert code == 2
    # the search runs in one process; --workers is no longer an option
    code, out, err = run_cli(capsys, "search", "phi", "-n", "7", "--workers", "2")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --workers 2" in err


def test_compare_gap(capsys):
    code, out, _ = run_cli(capsys, "compare", "gap", "-N", "3")
    assert code == 0
    pairs = as_pairs(out)
    assert pairs["two_block_max_freq"] == "43"
    assert pairs["beta_max_freq"] == "44"
    assert pairs["gap"] == "1"


def test_golden_roundtrip_all_files():
    for path in sorted(GOLDEN.glob("*.ucs")):
        text = path.read_text()
        fam = parse_family(text)
        assert serialize_family(fam) == text, path.name


def test_golden_b23_regenerates_byte_identical():
    assert serialize_family(renaud_family(23)) == (GOLDEN / "b23.ucs").read_text()


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize(
    "name, gen",
    [
        ("b23", None),
        ("block_3_2", None),
        ("hand56", None),
        ("pad_p3", None),
        ("b1000", ["renaud", "-n", "1000"]),
        ("c43", ["block-upset", "-s", "4", "-k", "3"]),
    ],
)
def test_report_matches_pinned_text(capsys, tmp_path, name, gen, command):
    # the whole report, every line and its order, as the reports/ files hold it
    path = GOLDEN / f"{name}.ucs"
    if gen:
        path = tmp_path / f"{name}.ucs"
        assert run_cli(capsys, "gen", *gen, "-o", str(path))[0] == 0
    code, out, err = run_cli(capsys, command, str(path))
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "reports" / f"{name}.{command}").read_text()


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "ucw.cli"],
        capture_output=True,
        text=True,
    )
    # bare invocation is a usage error
    assert proc.returncode == 2


def test_import_needs_no_third_party_package():
    src = str(Path(ucw.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, ucw; print(sorted({'numpy', 'mpmath', 'multiprocessing',"
            " 'concurrent.futures'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_determinism_same_flags(capsys):
    first = run_cli(capsys, "gen", "beta", "-n", "100")
    second = run_cli(capsys, "gen", "beta", "-n", "100")
    assert first == second
