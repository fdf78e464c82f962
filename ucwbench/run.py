"""Benchmark of the ucw workbench: one workload, one run, one JSON line.

    python3 ucwbench/run.py --workload {phi-search,analyze,construct} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. Each workload runs in a fresh
process (``worker.py``) that imports ``ucw`` from ``src/``. With ``--trace 0``
the last line of output holds the end-to-end metrics of ``BENCHMARK.json``;
``setup_s`` is the median over SETUP_SAMPLES fresh processes, timed from
their start to where the first timed operation begins. With ``--trace 1`` it
holds the per-layer metrics, measured with spans around the public
functions of every module. See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170


def worker(args, extra, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("phi-search", "analyze", "construct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "ucw", "__init__.py")):
        print("run from the root of a ucw checkout: src/ucw is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                _, setup = worker(args, ["--setup-only"], deadline - time.monotonic())
                setups.append(setup)
        result, setup = worker(args, [], deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [setup])
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
