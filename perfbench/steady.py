#!/usr/bin/env python3
"""Runs the benchmark over many seeds, in one or more sets, and checks that it
is steady: within a set, each metric's spread (interquartile range as a share
of the median) must stay within its bound from BENCHMARK.json; across sets,
no set's median may be worse than the first set's by more than the bound.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs N] [--sets K] [--first-seed S] [--trace 0|1] [--verbose] WORKLOAD...

Runs are interleaved: each seed runs every workload in turn before the next
seed starts, so a change in host speed reaches all workloads alike. Each run
also reports the host probe time from its provenance line (a fixed,
repository-independent memory walk); its median per set shows whether the
host itself was slower. Exits 1 when a run fails, a spread (other than
setup_s) exceeds its bound, or a later set's median is worse than the first
set's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    probe = json.loads(lines[-2])["provenance"]["host_probe_ms"]
    return result, probe, elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    if not first:
        return float("nan")
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    names = [m["name"] for m in metrics]
    # values[set][workload][metric] -> list over seeds
    values = [{w: {n: [] for n in names} for w in args.workloads} for _ in range(args.sets)]
    probes = [{w: [] for w in args.workloads} for _ in range(args.sets)]
    times = {w: [] for w in args.workloads}
    for k in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            for w in args.workloads:
                result, probe, elapsed = run_once(bench["command"], w, seed,
                                                  bench["run_seconds"], args.trace)
                times[w].append(elapsed)
                probes[k][w].append(probe)
                for n in names:
                    values[k][w][n].append(result["metrics"][n]["value"])

    ok = True
    for w in args.workloads:
        print(f"{w}: {args.sets} x {args.runs} runs, {statistics.median(times[w]):.1f} s median per run")
        for k in range(args.sets):
            print(f"  set {k + 1}: host probe median {statistics.median(probes[k][w]):.1f} ms")
            for m in metrics:
                v = values[k][w][m["name"]]
                s = spread(v)
                bound = m.get("bound")
                flag = ""
                if bound is not None:
                    if m["name"] != "setup_s" and not s <= bound:
                        flag = "  OVER BOUND"
                        ok = False
                    elif s > bound / 3:
                        flag = "  above a third of the bound"
                bound_text = f" bound {bound}" if bound is not None else ""
                print(f"    {m['name']:32s} median {statistics.median(v):.6g} {m['unit']:10s}"
                      f" spread {s:.3f}{bound_text}{flag}")
                if args.verbose:
                    print("      " + " ".join(f"{x:.4g}" for x in v))
        for k in range(1, args.sets):
            for m in metrics:
                bound = m.get("bound")
                if bound is None:
                    continue
                first = statistics.median(values[0][w][m["name"]])
                later = statistics.median(values[k][w][m["name"]])
                worse = worse_by(first, later, m["better"])
                flag = ""
                if not worse <= bound:
                    flag = "  WORSE THAN BOUND"
                    ok = False
                print(f"  set {k + 1} vs set 1: {m['name']:32s} {later:.6g} vs {first:.6g},"
                      f" worse by {worse:+.3f} (bound {bound}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
