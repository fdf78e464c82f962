"""The benchmark's workloads: inputs made from a seed, operations, and checks.

Each workload is a list of :class:`Op`. ``run`` drives the program as a user
does: CLI operations go through ``ucw.cli.main(argv)`` with the output
captured, and ``close_under_union`` and ``entropy_binomial_sweep``, which have
no command, through their public functions. ``check`` compares the output
with :mod:`refcheck` and raises :class:`refcheck.CheckError` on a mismatch.

The random generator sets have a fixed shape, drawn once from a constant
seed; the workload seed relabels the universe. Every seed thus gives other
sets and files but the same closure sizes, basis and separation, so the work
in a run does not depend on the seed.
"""

import io
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import refcheck as ref
from refcheck import CheckError, expect

import ucw
from ucw import cli, constructions, core

PHI_N = 11
NAIVE_N = 6
ENTROPY_LIMIT = 2000
PAD_RATIO = "3"
SINGLETONS = 12


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def report_lines(text):
    """key: value lines of a report, as a dict; a repeated key is an error."""
    pairs = [line.split(": ", 1) for line in text.splitlines()]
    report = dict(pairs)
    if len(report) != len(pairs):
        raise CheckError(f"repeated key in report {text!r}")
    return report


# ---------------------------------------------------------------------------
# Seeded inputs


def grow_shape(rng, m, lo, hi):
    """Random generators whose closure has between lo and hi sets.

    A drawn set is kept when the closure stays within hi; after a refusal the
    next draw is one element wider, since wide sets add fewer unions. None
    when even the widest draws are refused.
    """
    fam, gens, wider = set(), [], 0
    while len(fam) < lo:
        if wider > m:
            return None
        width = min(m, rng.randint(1, m // 2) + wider)
        g = ref.mask(e + 1 for e in rng.sample(range(m), width))
        grown = fam | {g | f for f in fam} | {g}
        if g in fam or len(grown) > hi:
            wider += 1
            continue
        fam, wider = grown, 0
        gens.append(g)
    return gens


def shape(m, lo, hi, separating=False):
    """The first shape drawn from a constant seed (separating, if asked)."""
    for attempt in range(1000):
        gens = grow_shape(random.Random(f"ucwbench-{m}-{lo}-{attempt}"), m, lo, hi)
        if gens and (not separating or ref.separating(m, gens)):
            return gens
    raise RuntimeError(f"no shape over m={m} with {lo}..{hi} sets")


def relabel(gens, rng, m):
    """Shuffle the labels 1..9 among themselves and 10..m among themselves, so
    a family's file has the same length in bytes for every seed."""
    short, wide = list(range(min(m, 9))), list(range(9, m))
    rng.shuffle(short)
    rng.shuffle(wide)
    perm = short + wide
    return [sum(1 << perm[e] for e in range(m) if g >> e & 1) for g in gens]


@dataclass
class FamilyInput:
    """A family file for ``analyze``/``verify``; ``gens`` generate it when known."""

    name: str
    m: int
    sets: list
    gens: list | None
    path: str = ""

    def write(self, workdir):
        self.path = os.path.join(workdir, f"{self.name}.ucs")
        with open(self.path, "w", encoding="ascii") as fh:
            fh.write(ref.write_ucs(self.m, self.sets))
        return self

    def closed(self):
        if self.gens is None:
            return ref.closed_by_table(self.sets, self.m)
        return ref.closed_by_generators(self.sets, self.gens)

    def basis(self):
        if self.gens is None:
            return ref.basis_by_table(self.sets, self.m)
        return ref.basis_from_generators(self.gens)

    def without_one(self, rng):
        """The family less one seeded member that is a union of others.

        The member is drawn among those whose line in the file has the most
        common length, so the file's length does not depend on the seed.
        """
        keep = set(self.gens or ()) | set(self.basis())
        by_length = {}
        for s in self.sets:
            if s not in keep:
                by_length.setdefault(len(ref.write_ucs(self.m, [s])), []).append(s)
        length = max(by_length, key=lambda n: (len(by_length[n]), -n))
        drop = rng.choice(sorted(by_length[length]))
        sets = [s for s in self.sets if s != drop]
        return FamilyInput(f"{self.name}-open", self.m, sets, self.gens)


# ---------------------------------------------------------------------------
# phi-search


def search_op(n, naive):
    argv = ["search", "phi", "-n", str(n)] + (["--naive"] if naive else [])

    def check(res):
        expect("exit code", res.code, 0)
        head, sep, doc = res.out.partition("ucs 1\n")
        report = report_lines(head)
        phi = int(report["phi"])
        expect(f"phi({n})", phi, ref.conway(n)[-1])
        expect("conjecture_violations", report["conjecture_violations"], "0")
        m, rows = ref.parse_ucs(sep + doc)
        sets = [ref.mask(row) for row in rows]
        expect("witness size", len(set(sets)), n)
        expect("witness sets", len(rows), n)
        expect("witness union-closed", ref.closed_pairwise(sets), True)
        expect("witness max frequency", max(ref.element_counts(m, rows)), phi)

    name = f"naive-n{n}" if naive else f"search-n{n}"
    return Op(name, lambda: run_cli(argv), check)


def phi_search_ops(seed, workdir):
    return [search_op(PHI_N, False), search_op(NAIVE_N, True)]


# ---------------------------------------------------------------------------
# analyze


def analyze_op(fam):
    def check(res):
        expect("exit code", res.code, 0)
        closed = fam.closed()
        want = ref.analyze_report(fam.m, fam.sets, closed,
                                  len(fam.basis()) if closed else None)
        expect(f"analyze {fam.name}", report_lines(res.out), want)

    return Op(f"analyze-{fam.name}", lambda: run_cli(["analyze", fam.path]), check)


def verify_op(fam):

    def check(res):
        code, lines = ref.verify_report(fam.m, fam.sets)
        expect("exit code", res.code, code)
        expect(f"verify {fam.name}", report_lines(res.out), lines)

    return Op(f"verify-{fam.name}", lambda: run_cli(["verify", fam.path]), check)


def analyze_ops(seed, workdir):
    rng = random.Random(seed)
    closed = []
    for n in (1000, 8192):
        fam = constructions.renaud_family(n)
        closed.append(FamilyInput(f"b{n}", fam.m, list(fam.sets), None))
    fam = constructions.block_upset_family(ucw.BlockUpsetParams(4, 3))
    closed.append(FamilyInput("c43", fam.m, list(fam.sets), None))
    gens = relabel(shape(40, 1500, 1515, separating=True), rng, 40)
    closed.append(FamilyInput("u40", 40, sorted(ref.one_pass_closure(gens)), gens))
    opened = [closed[i].without_one(rng) for i in (0, 1, 3)]
    ops = []
    for fam in closed:
        fam.write(workdir)
        # analyze on C(4,3) (12 s) and verify on B(8192) (3 s) are left out to
        # keep a run short: C(4,3) already takes verify past the 1024-set switch
        if fam.name != "c43":
            ops.append(analyze_op(fam))
        if fam.name != "b8192":
            ops.append(verify_op(fam))
    for fam in opened:
        ops.append(analyze_op(fam.write(workdir)))
    return ops


# ---------------------------------------------------------------------------
# construct


def read_family(path):
    with open(path, encoding="ascii") as fh:
        m, rows = ref.parse_ucs(fh.read())
    sets = [ref.mask(row) for row in rows]
    expect(f"distinct sets in {os.path.basename(path)}", len(set(sets)), len(sets))
    return m, rows, set(sets)


def gen_renaud_op(workdir, n):
    path = os.path.join(workdir, f"gen-b{n}.ucs")
    k = (n - 1).bit_length()

    def check(res):
        expect("exit code", res.code, 0)
        report = report_lines(res.out)
        m, rows, sets = read_family(path)
        expect("B(n) size", len(sets), n)
        if n == 1 << k:
            expect("B(2^k) is the power set", sets, ref.power_set(k))
        expect("k", report["k"], str(k))
        expect("deleted_total", report["deleted_total"], str((1 << k) - n))
        expect("beta", report["beta"], str(max(ref.element_counts(m, rows))))
        expect("beta formula", report["beta"], str(ref.beta(n)))

    argv = ["gen", "renaud", "-n", str(n), "-o", path]
    return Op(f"gen-renaud-{n}", lambda: run_cli(argv), check)


def gen_block_op(workdir, s, k):
    path = os.path.join(workdir, f"gen-c{s}{k}.ucs")

    def check(res):
        expect("exit code", res.code, 0)
        report = report_lines(res.out)
        m, rows, sets = read_family(path)
        expect(f"C({s},{k})", sets, ref.block_upset(s, k))
        counts = ref.element_counts(m, rows)
        element, top = ref.max_frequency(counts)
        expect("n", report["n"], str(len(sets)))
        expect("m", report["m"], str(s * k + 1))
        expect("max_freq", report["max_freq"], str(top))
        expect("max_freq_element", report["max_freq_element"], str(element))
        expect("top_element_freq", report["top_element_freq"], str(counts[-1]))
        equal = len(set(counts[: s * k])) == 1
        expect("block_freq_equal", report["block_freq_equal"], "true" if equal else "false")

    argv = ["gen", "block-upset", "-s", str(s), "-k", str(k), "-o", path]
    return Op(f"gen-block-{s}-{k}", lambda: run_cli(argv), check)


def gen_pad_op(workdir, fam):
    fam.write(workdir)
    out = os.path.join(workdir, "pad-out.ucs")

    def check(res):
        expect("exit code", res.code, 0)
        report = report_lines(res.out)
        m2, sets2, p = ref.pad(fam.m, fam.sets, PAD_RATIO)
        m, _, sets = read_family(out)
        expect("padded m", m, m2)
        expect("padded family", sets, sets2)
        used = 0
        for s in sets2:
            used |= s
        expect("p", report["p"], str(p))
        expect("ratio", report["ratio"], f"{len(sets2)}/{used.bit_count()}")
        expect("ratio_ok", report["ratio_ok"], "true")

    argv = ["gen", "pad", "-c", PAD_RATIO, "-i", fam.path, "-o", out]
    return Op("gen-pad", lambda: run_cli(argv), check)


def gap_op(N):
    def check(res):
        expect("exit code", res.code, 0)
        report = report_lines(res.out)
        fam = ref.block_upset(N, 2)
        c_max = max(ref.mask_counts(2 * N + 1, fam))
        b_max = ref.beta(len(fam))
        expect("two_block_max_freq", report["two_block_max_freq"], str(c_max))
        expect("beta_max_freq", report["beta_max_freq"], str(b_max))
        expect("gap", report["gap"], str(b_max - c_max))

    argv = ["compare", "gap", "-N", str(N)]
    return Op(f"compare-gap-{N}", lambda: run_cli(argv), check)


def entropy_op(limit):
    def check(result):
        checks, threshold = result
        expect("checks", [c.N for c in checks], list(range(1, limit + 1)))
        for c in checks:
            k = -(-2 * c.N // 5)
            expect(f"k at N={c.N}", c.k, k)
            expect(f"C(2N,k) at N={c.N}", c.binomial, math.comb(2 * c.N, k))
            expect(f"power_ok at N={c.N}", c.power_ok, c.binomial > 1 << (c.N + 1))
            expect(f"entropy_ok at N={c.N}", c.entropy_ok, ref.entropy_ok(c.N))
        holds = [c.entropy_ok and c.power_ok for c in checks]
        first = None
        for N in range(limit, 0, -1):
            if not holds[N - 1]:
                break
            first = N
        expect("threshold", threshold, first)

    return Op(f"entropy-sweep-{limit}",
              lambda: constructions.entropy_binomial_sweep(limit), check)


def closure_op(name, gens, m):
    def check(fam):
        want = ref.one_pass_closure(gens)
        expect("universe", fam.m, m)
        expect("canonical order", list(fam.sets),
               sorted(fam.sets, key=lambda s: (s.bit_count(), s)))
        expect(f"closure {name}", set(fam.sets), want)
        expect("no repeated set", len(fam.sets), len(want))

    return Op(f"close-{name}", lambda: core.close_under_union(gens, m), check)


def construct_ops(seed, workdir):
    rng = random.Random(seed)
    pad_gens = relabel(shape(10, 100, 105), rng, 10)
    pad_in = FamilyInput("pad-in", 10, sorted(ref.one_pass_closure(pad_gens)), pad_gens)
    return [
        gen_renaud_op(workdir, 8192),
        gen_block_op(workdir, 4, 3),
        gen_pad_op(workdir, pad_in),
        gap_op(5),
        entropy_op(ENTROPY_LIMIT),
        closure_op("singletons", [1 << i for i in range(SINGLETONS)], SINGLETONS),
        closure_op("m20", relabel(shape(20, 2500, 2525), rng, 20), 20),
        closure_op("m40", relabel(shape(40, 3000, 3030), rng, 40), 40),
    ]


WORKLOADS = {
    "phi-search": phi_search_ops,
    "analyze": analyze_ops,
    "construct": construct_ops,
}
