"""Command-line surface.

Subcommands::

    ucw gen conway -n N
    ucw gen renaud -n N [-o FILE]
    ucw gen beta -n N
    ucw gen block-upset -s S -k K [-o FILE]
    ucw gen pad -c NUM/DEN -i IN -o OUT
    ucw analyze FILE
    ucw verify FILE             (exit 0 holds / 1 violated / 2 usage or parse)
    ucw search phi -n N [--naive] [--m-max M] [--workers W] [-o FILE]
    ucw compare gap -N N

``--m-max`` bounds the ``--naive`` oracle only; without ``--naive`` it is a
usage error (exit 2), since the exact search always runs on [beta(n) - 1].

Reports are stable ``key: value`` lines. Family documents go to ``-o FILE``
when given, else to stdout. ``gen`` then moves its report lines to stderr so
the document stays pipeable; ``search phi`` keeps its report on stdout and
prints the witness document after it. Exit code 2 covers usage and parse
problems, 1 is reserved for property violations.
"""

import argparse
import sys
from fractions import Fraction

from . import constructions as cons
from . import core, familyfile, structure
from .phisearch import SearchBudgetError, SearchConfig, phi_search


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _emit(stream, pairs) -> None:
    for key, value in pairs:
        print(f"{key}: {value}", file=stream)


def _write_family(fam, path, report_pairs) -> None:
    """Family to path-or-stdout; the report keeps to the other stream."""
    if path:
        familyfile.save_family(path, fam)
        _emit(sys.stdout, report_pairs)
    else:
        sys.stdout.write(familyfile.serialize_family(fam))
        _emit(sys.stderr, report_pairs)


def _decomposition_pairs(decomp):
    full = " ".join(f"{size}x{count}" for size, count in decomp.full_levels) or "none"
    return [
        ("k", decomp.k),
        ("deleted_total", decomp.deleted),
        ("full_levels", full),
        ("partial_level_size", decomp.r),
        ("partial_deleted", decomp.v),
    ]


def _cmd_gen_conway(args) -> int:
    for value in cons.conway(args.n):
        print(value)
    return 0


def _cmd_gen_renaud(args) -> int:
    fam = cons.renaud_family(args.n)
    value, decomp = cons.beta(args.n)
    _write_family(fam, args.output, [("beta", value)] + _decomposition_pairs(decomp))
    return 0


def _cmd_gen_beta(args) -> int:
    value, decomp = cons.beta(args.n)
    pairs = [("beta", value)] + _decomposition_pairs(decomp)
    if decomp.k <= cons.RENAUD_MATERIALIZE_MAX_K:
        _, materialized = core.max_frequency(cons.renaud_family(args.n))
        pairs.append(("cross_check", "ok" if materialized == value else
                      f"MISMATCH materialized={materialized}"))
    _emit(sys.stdout, pairs)
    return 0


def _cmd_gen_block_upset(args) -> int:
    params = cons.BlockUpsetParams(args.s, args.k)
    fam = cons.block_upset_family(params)
    counts = core.frequencies(fam)
    element, top = core.max_frequency(fam)
    holes = cons.hole_levels(params)  # never empty
    block_counts = counts[: params.s * params.k]
    pairs = [
        ("n", len(fam)),
        ("m", fam.m),
        ("max_freq", top),
        ("max_freq_element", element),
        ("top_element_freq", counts[-1]),
        ("block_freq_equal", _bool(len(set(block_counts)) == 1)),
        ("hole_levels", f"{holes.start}..{holes.stop - 1}"),
    ]
    _write_family(fam, args.output, pairs)
    return 0


def _fraction(text: str) -> Fraction:
    """argparse type for NUM/DEN; a zero denominator is a usage error too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _cmd_gen_pad(args) -> int:
    fam = familyfile.load_family(args.input)
    padded, params = cons.pad_family(fam, args.c)
    n2 = len(padded)
    m2 = core.universe_of(padded).bit_count()
    familyfile.save_family(args.output, padded)
    _emit(sys.stdout, [
        ("p", params.p),
        ("ratio", f"{n2}/{m2}"),
        ("ratio_ok", _bool(Fraction(n2, m2) <= params.c)),
    ])
    return 0


def _tri(value: bool | None) -> str:
    return "n/a" if value is None else _bool(value)


def audit_pairs(report: structure.AuditReport) -> list[tuple[str, str]]:
    """Stable key/value rendering of an audit report."""
    return [
        ("conjecture_holds", _bool(report.conjecture_holds)),
        ("parity_ok", _tri(report.parity_ok)),
        ("maxfreq_equals_n", _tri(report.maxfreq_equals_n)),
        ("size_bound_ok", _tri(report.size_bound_ok)),
    ]


def _cmd_analyze(args) -> int:
    fam = familyfile.load_family(args.family)
    closed = core.is_union_closed(fam)
    separating = core.is_separating(fam)
    pairs = [
        ("n", len(fam)),
        ("m", fam.m),
        ("union_closed", _bool(closed)),
        ("separating", _bool(separating)),
    ]
    pairs.append(("basis_count", len(core.basis_sets(fam)) if closed else "n/a"))
    if any(fam.sets):
        element, top = core.max_frequency(fam)
        pairs += [("max_freq", top), ("max_freq_element", element)]
    else:
        pairs += [("max_freq", "n/a"), ("max_freq_element", "n/a")]
    if closed and any(fam.sets):
        verdict = core.check_conjecture(fam)
        pairs.append(("conjecture", "holds" if verdict.holds else "violated"))
        pairs.append(("conjecture_witness", verdict.witness if verdict.holds else "n/a"))
    else:
        pairs += [("conjecture", "n/a"), ("conjecture_witness", "n/a")]
    if closed and separating and any(fam.sets):
        # s_frequency_bound has checked the staircase: one row per used element
        element, count = structure.s_frequency_bound(fam)
        pairs += [
            ("s_table_rows", core.universe_of(fam).bit_count()),
            ("s_bound_element", element),
            ("s_bound_frequency", count),
        ]
        pairs += audit_pairs(structure.minimal_counterexample_audit(fam))
    _emit(sys.stdout, pairs)
    return 0


def _cmd_verify(args) -> int:
    fam = familyfile.load_family(args.family)
    verdict = core.check_conjecture(fam)
    if verdict.holds:
        _emit(sys.stdout, [("conjecture", "holds"), ("witness", verdict.witness)])
        return 0
    _emit(sys.stdout, [("conjecture", "violated")])
    return 1


def _cmd_search_phi(args) -> int:
    config = SearchConfig(
        n=args.n, m_max=args.m_max, workers=args.workers, naive=args.naive
    )
    result = phi_search(config)
    pairs = [
        ("phi", result.phi),
        ("visited", result.visited),
        ("conjecture_violations", result.conjecture_violations),
    ]
    _emit(sys.stdout, pairs)
    if args.output:
        familyfile.save_family(args.output, result.witness)
    else:
        sys.stdout.write(familyfile.serialize_family(result.witness))
    return 0


def _cmd_compare_gap(args) -> int:
    c_max, b_max, gap = cons.gap_report(args.N)
    _emit(sys.stdout, [
        ("two_block_max_freq", c_max),
        ("beta_max_freq", b_max),
        ("gap", gap),
    ])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucw", description="workbench for union-closed set families"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate sequences and families")
    gen_sub = gen.add_subparsers(dest="generator", required=True)

    p = gen_sub.add_parser("conway", help="Conway's nested recurrence a(1..N)")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_gen_conway)

    p = gen_sub.add_parser("renaud", help="balanced-deletion family of N sets")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen_renaud)

    p = gen_sub.add_parser("beta", help="closed-form maximal frequency of B(N)")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_gen_beta)

    p = gen_sub.add_parser("block-upset", help="power set joined with a block up-set")
    p.add_argument("-s", type=int, required=True, help="block size")
    p.add_argument("-k", type=int, required=True, help="block count")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen_block_upset)

    p = gen_sub.add_parser("pad", help="pad a family down to ratio <= c")
    p.add_argument("-c", type=_fraction, required=True, metavar="NUM/DEN")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen_pad)

    p = sub.add_parser("analyze", help="report structural facts about a family file")
    p.add_argument("family")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="exit 0 iff the half-membership property holds")
    p.add_argument("family")
    p.set_defaults(func=_cmd_verify)

    search = sub.add_parser("search", help="exhaustive searches")
    search_sub = search.add_subparsers(dest="target", required=True)
    p = search_sub.add_parser("phi", help="minimal maximal frequency over n-set families")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--naive", action="store_true")
    p.add_argument("--m-max", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_search_phi)

    compare = sub.add_parser("compare", help="construction comparisons")
    compare_sub = compare.add_subparsers(dest="comparison", required=True)
    p = compare_sub.add_parser("gap", help="two-block family vs balanced deletion")
    p.add_argument("-N", type=int, required=True)
    p.set_defaults(func=_cmd_compare_gap)

    return parser


# built once: argparse keeps memory for every parser it builds
_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except familyfile.FamilyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SearchBudgetError) as exc:  # DomainError, CapacityError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
