#!/usr/bin/env python3
"""Builds and runs the privtopk benchmark.

One run:
    python3 perfbench/run.py --workload serve-d1 --seed 1 --seconds 10 --trace 0

Steadiness self-check (N runs of one workload on seeds seed..seed+N-1,
then each metric's median, interquartile range and largest deviation
from the median over the steady runs, with the host's steal share during
each run; a run whose kept windows saw a median steal share above 0.05
is marked disturbed and left out of the summary, and the check refuses
to summarise when fewer than half the runs are steady):
    python3 perfbench/run.py --repeat 10 --workload serve-d1 --seed 1 --seconds 10

Every thread of a benchmark process runs on one CPU, the highest this
script may use (see bench_cpu); the build is not pinned. The benchmark
is built from source with cargo into $CARGO_TARGET_DIR (default:
.bench_build at the repository root). Spans of traced runs
and the runs' scratch stores go under perfbench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # cargo's own output goes to stderr so stdout carries only results.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def bench_cpu():
    """The one CPU every thread of a benchmark process runs on.

    On a virtual machine of a few cores, a hand-off between threads on
    two CPUs often wakes a halted virtual CPU, and the time that takes is
    set by the hypervisor and its other tenants: unpinned, serve-d1 swung
    between about 1 800 and 4 000 queries/s from one quiet second to the
    next. On one CPU every hand-off is a context switch of this kernel.
    """
    return max(os.sched_getaffinity(0))


def run_once(binary, workload, seed, seconds, trace):
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out]
    cpu = bench_cpu()
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    worst = max(abs(v - med) for v in values)
    scale = abs(med) if med else 1.0
    return med, (q3 - q1) / scale, worst / scale


def repeat(binary, args):
    runs = []
    for i in range(args.repeat):
        seed = args.seed + i
        proc = run_once(binary, args.workload, seed, args.seconds, args.trace)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.exit(f"perfbench: run with seed {seed} failed")
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append((info, result))
        row = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed={seed} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} steal={info['steal_share']:.3f} "
              f"kept_steal={info['kept_steal_share']:.3f} steady={info['steady']} "
              f"left_out={info['pool_left_out']} kept={info['windows_kept']} "
              f"p99_ms={info['latency_p99_ms']:.5g} {row}", flush=True)
    steady = [r for info, r in runs if info["steady"]]
    print(f"\n{args.workload}: {args.repeat} runs of {args.seconds} s, trace {args.trace}, "
          f"{len(steady)} steady")
    if 2 * len(steady) < len(runs):
        sys.exit("perfbench: fewer than half the runs are steady; "
                 "the host is too disturbed to judge spreads")
    print(f"{'metric':34} {'median':>12} {'iqr/med':>8} {'maxdev/med':>10} unit")
    for name, first in steady[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in steady]
        med, iqr, worst = spread(values)
        print(f"{name:34} {med:12.5g} {iqr:8.4f} {worst:10.4f} {first['unit']}")
    steal = [info["steal_share"] for info, _ in runs]
    print(f"{'host steal share':34} {statistics.median(steal):12.4f} "
          f"(min {min(steal):.4f}, max {max(steal):.4f})")
    shares = {r["failed"] / r["attempted"] for _, r in runs}
    print(f"failed share over runs: {sorted(shares)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness self-check: run N times and summarise")
    args = parser.parse_args()
    binary = build()
    if args.repeat > 0:
        repeat(binary, args)
        return
    proc = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
