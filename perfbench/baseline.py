#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/baseline.py --workload simulate [--runs 10] \
        [--first-seed 101] [--seconds 10] [--trace 0] [--out perfbench/baseline.json]

For every metric it prints the median of the runs and the spread: the
distance between the first and third quartile (statistics.quantiles with
n=4) as a share of the median -- the figure BENCHMARK.json's bounds are
checked against.  Run it from the root of the checkout.

With --out the medians, quartiles and spreads are merged into that JSON
file under the workload's name, with the host record of the runs.  Runs
from a build that is not the release profile are refused: dev-profile
wall-clock numbers must never become a baseline.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"baseline: {' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    record = None
    for line in lines:
        if line.startswith("perfbench-record "):
            record = json.loads(line[len("perfbench-record "):])
    return json.loads(lines[-1]), record


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out")
    args = ap.parse_args()

    values, units, records, failures = {}, {}, [], 0
    for k in range(args.runs):
        seed = args.first_seed + k
        result, record = run_once(args.workload, seed, args.seconds, args.trace)
        records.append(record)
        if not result["correct"]:
            failures += 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)

    summary = {}
    print(f"\n{args.workload}: {args.runs} runs, {failures} incorrect")
    for name, vs in values.items():
        med, q1, q3, sp = spread(vs)
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": sp,
                         "values": vs}
        shown = "n/a" if sp is None else f"{sp:8.4f}"
        print(f"  {name:44s} median {med:14.6g} {units[name]:9s} spread {shown}")

    if args.out:
        hosts = [r["host"] for r in records if r]
        if not hosts or not all(h.get("wallclock_trusted") for h in hosts):
            sys.exit("baseline: refusing to record a baseline from a non-release build")
        try:
            with open(args.out) as f:
                doc = json.load(f)
        except FileNotFoundError:
            doc = {}
        key = args.workload + (" traced" if args.trace else "")
        doc[key] = {
            "host": {k: v for k, v in hosts[0].items() if k != "seed"},
            "seeds": [args.first_seed + k for k in range(args.runs)],
            "seconds": args.seconds,
            "incorrect_runs": failures,
            "metrics": summary,
        }
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out} [{key}]")


if __name__ == "__main__":
    main()
