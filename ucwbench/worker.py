"""Runs one workload in this process and prints its figures as one JSON line.

Started by ``run.py`` from the root of a source checkout; imports ``ucw`` from
``src/`` there. With ``--setup-only`` it stops where the first timed
operation would start, which is how ``run.py`` samples set-up time.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

from spans import COUNTS, Tracer, install


def cpu_seconds():
    """CPU time of this process and its children, in microsecond steps."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_round(ops, caches, tracer):
    """Every operation once; (wall, cpu, per-op wall, failed, wrong)."""
    wall = cpu = 0.0
    per_op, failed, wrong = {}, [], []
    for op in ops:
        for fn in caches:  # never time a cached call
            fn.cache_clear()
        if tracer:
            tracer.op = op.name
            tracer.enter(f"op.{op.name}")
        w0, c0 = time.perf_counter(), cpu_seconds()
        try:
            out = op.run()
        except Exception as exc:  # the program failed; count it and go on
            out = exc
        c1, w1 = cpu_seconds(), time.perf_counter()
        if tracer:
            tracer.leave()
        wall += w1 - w0
        cpu += c1 - c0
        per_op[op.name] = w1 - w0
        if isinstance(out, Exception) or getattr(out, "code", 0) == 2:
            failed.append(f"{op.name}: {out!r}"[:500])
            continue
        try:
            op.check(out)
        except Exception as exc:
            wrong.append(f"{op.name}: {exc!r}"[:500])
    return wall, cpu, per_op, failed, wrong


def layer_metrics(names, summary, module_of, wall, per_op, overhead):
    """Per-layer figures of one round, by metric name (see README.md)."""
    out = {}
    for name in names:
        head, _, kind = name.rpartition(".")
        if head in module_of.values():
            value = sum((row["s"] for fn, row in summary.items() if module_of.get(fn) == head), 0.0)
        elif head.startswith("op."):
            value = per_op.get(head[3:], 0.0)
        elif head == "trace":
            value = {"wall_s": wall, "overhead_s": overhead}[kind]
        else:
            row = summary.get(head, {"calls": 0, "s": 0.0})
            if kind == "nodes_per_s":
                value = row.get("visited", 0) / row["s"] if row["s"] else 0.0
            elif kind in ("s", "calls") or kind == COUNTS.get(head, ("",))[0]:
                value = row.get(kind, 0)
            else:
                raise KeyError(f"no such per-layer metric: {name}")
        out[name] = value
    return out


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import ucw
    from workloads import WORKLOADS

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    modules = [getattr(ucw, name) for name in
               ("core", "structure", "constructions", "phisearch", "familyfile", "cli")]
    caches = [obj for mod in modules for obj in vars(mod).values()
              if callable(getattr(obj, "cache_clear", None))]

    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(root, ".bench_work")) as workdir:
        ops = WORKLOADS[args.workload](args.seed, workdir)
        tracer, module_of = None, {}
        if args.trace:
            tracer = Tracer()
            module_of = install(tracer, modules, modules + [ucw])
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        walls, cpus, layers, failed, wrong = [], [], [], [], []
        while True:
            first_span = len(tracer.spans) if tracer else 0
            overhead0 = tracer.overhead if tracer else 0.0
            wall, cpu, per_op, round_failed, round_wrong = run_round(ops, caches, tracer)
            walls.append(wall)
            cpus.append(cpu)
            failed += round_failed
            wrong += round_wrong
            if tracer:
                layers.append(layer_metrics(
                    [m["name"] for m in bench["per_layer"]], tracer.summary(first_span),
                    module_of, wall, per_op, tracer.overhead - overhead0))
            elapsed = time.monotonic() - ready
            # whole rounds only; start none that would end past --seconds
            if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
                break
        if tracer:
            tracer.dump(os.path.join(root, ".bench_work",
                                     f"spans-{args.workload}-seed{args.seed}.jsonl"))

    if tracer:
        metrics = {name: statistics.median_low(r[name] for r in layers) for name in layers[0]}
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    for msg in failed + wrong:
        print(msg, file=sys.stderr)
    print(json.dumps({
        "ready": ready,
        "attempted": len(walls) * len(ops),
        "failed": len(failed),
        "correct": not wrong,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
