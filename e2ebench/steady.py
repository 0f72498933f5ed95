"""The steadiness command: every workload N times, each with another seed.

Usage (from the root of a checkout)::

    python3 e2ebench/steady.py [--runs N] [--first-seed K] [--seconds S]
                               [--workloads a,b] [--smoke] [--traced]

Each run is a fresh ``run.py`` process.  Runs alternate the order of
the workloads (forward, then backward).  For every end-to-end metric of
``BENCHMARK.json`` the command prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread -- the
distance between the quartiles as a share of the median -- and the
metric's bound, plus the share of failed operations per workload.
``--traced`` adds one traced run per workload after the others and
prints its tracing overhead (traced over untraced ``ops_per_s``).
Exits 1 when a run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, smoke: bool, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for workload in order:
            result = run_once(workload, args.first_seed + i, args.seconds, args.smoke, 0)
            results[workload].append(result)
            print(f"run {i + 1}/{args.runs} {workload}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    ok = True
    print(f"\n{'workload':<16} {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        ok &= all(r["correct"] for r in runs)
        shares = {r["failed"] / r["attempted"] for r in runs}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, share = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            flag = "" if share <= bound else "  over"
            ok &= not flag
            print(f"{workload:<16} {name:<16} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{share:>7.3f} {bound:>6.2f}{flag}")
        print(f"{workload:<16} failed share {sorted(shares)}")
        ok &= len(shares) == 1
    if args.traced:
        print()
        for workload in workloads:
            run_once(workload, args.first_seed, args.seconds, args.smoke, 1)
            records = os.path.join(HERE, "work", "records")
            latest = max((os.path.join(records, f) for f in os.listdir(records)
                          if f.startswith(workload) and f.endswith("trace1.json")),
                         key=os.path.getmtime)
            with open(latest) as handle:
                overhead = json.load(handle)["tracing_overhead"]
            print(f"{workload:<16} tracing overhead: {overhead}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
