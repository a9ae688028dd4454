#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median), next to the
bound BENCHMARK.json fixes for it. With --against, it runs a second set of
seeds and prints how far the second median lies from the first, signed so
that a positive deviation is a change for the worse.

    python3 perfbench/steady.py --workload hits --seeds 1-10
    python3 perfbench/steady.py --workload all --seeds 1-10 --against 11-20

Run from the repository root; it runs BENCHMARK.json's command.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def measure(bench, workload, seed_list):
    """Runs one workload on each seed; returns {metric: [values]} and
    whether every run was correct."""
    values, ok = {}, True
    for seed in seed_list:
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        report = json.loads(lines[0]).get("report", {}) if len(lines) > 1 else {}
        if out.returncode != 0 or not result.get("correct"):
            ok = False
            print(f"{workload} seed {seed}: exit {out.returncode}: {out.stdout[-2000:]}"
                  f"{out.stderr[-2000:]}", file=sys.stderr)
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']} steal_s {report.get('steal_s')}", file=sys.stderr)
    return values, ok


def spread(vs):
    med = statistics.median(vs)
    if len(vs) < 2 or not med:
        return float("nan")
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="a workload name or 'all'")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--against", help="a second seed range to compare medians with")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (
        [w["name"] for w in bench["workloads"]] if args.workload == "all" else [args.workload]
    )
    ok = True
    for workload in workloads:
        first, good = measure(bench, workload, seeds(args.seeds))
        ok &= good
        second = {}
        if args.against:
            second, good = measure(bench, workload, seeds(args.against))
            ok &= good
        print(f"== {workload}")
        for name, vs in first.items():
            med, bound = statistics.median(vs), metrics[name]["bound"]
            s = spread(vs)
            line = f"  {name:24s} median {med:14.6g}  spread {s:7.4f}"
            if name in second:
                med2 = statistics.median(second[name])
                dev = (med2 - med) / med if med else float("nan")
                if metrics[name]["better"] == "higher":
                    dev = -dev
                line += (f"  | median {med2:14.6g}  spread {spread(second[name]):7.4f}"
                         f"  worse by {dev:+.4f}")
                if dev > bound:
                    line += "  <-- past the bound"
            line += f"  bound {bound}"
            if name != "setup_s" and s > bound / 3:
                line += "  <-- spread above a third of the bound"
            print(line)
            print("      " + " ".join(f"{v:.4g}" for v in vs))
            if name in second:
                print("      " + " ".join(f"{v:.4g}" for v in second[name]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
