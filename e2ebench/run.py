"""The front-door benchmark: one seeded workload, one run.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: ``acyclic-serve`` and ``cyclic-adhoc`` run in this process
through ``repro.connect()``; ``http-durable`` drives a server process
through ``ServerClient``.  ``--seconds`` sets the length of the
operation script (a whole number of rounds, the same for every seed);
inputs and script come from ``--seed``.

With ``--trace 0`` the last line of standard output is a JSON object
with the seven end-to-end metrics; with ``--trace 1`` the layers'
entry points are wrapped and it holds the per-layer metrics instead.
Every run also writes a JSON record under ``e2ebench/work/records/``.
A wrong answer prints ``"correct": false`` and exits with code 1; a
checkout without the program's source exits with code 2.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import subprocess
import sys
import time
import traceback

from common import (END_TO_END_UNITS, REPRO_VARS, ROOT, WORK, BenchmarkError,
                    CheckFailure, import_repro)

WORKLOADS = ("acyclic-serve", "cyclic-adhoc", "http-durable")
RECORDS = os.path.join(WORK, "records")


def git(*args):
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def steal_seconds():
    """CPU time the hypervisor gave to others (``steal`` in /proc/stat)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_workload(repro, name: str, seed: int, seconds: int, mode: str, traced: bool):
    import inproc
    import served

    if name == "acyclic-serve":
        return inproc.run_acyclic(repro, seed, seconds, mode)
    if name == "cyclic-adhoc":
        return inproc.run_cyclic(repro, seed, seconds, mode)
    return served.run_durable(repro, seed, seconds, mode, traced)


def untraced_ops_per_s(workload: str, seed: int, mode: str):
    """The latest untraced record of this workload (same seed first)."""
    candidates = []
    for path in glob.glob(os.path.join(RECORDS, f"{workload}-*-trace0.json")):
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            continue
        if record["meta"]["mode"] != mode or not record["correct"]:
            continue
        same_seed = record["meta"]["seed"] == seed
        candidates.append((same_seed, os.path.getmtime(path), record, path))
    if not candidates:
        return None
    _, _, record, path = max(candidates, key=lambda c: (c[0], c[1]))
    return record["metrics"]["ops_per_s"], os.path.basename(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and scripts: every check, in seconds")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    try:
        repro = import_repro()
    except (BenchmarkError, ImportError) as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 2
    import numpy
    import spans

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    started, steal = time.time(), steal_seconds()
    correct, failure = True, None
    try:
        result = run_workload(repro, args.workload, args.seed, args.seconds, mode, bool(args.trace))
    except CheckFailure as exc:
        correct, failure, result = False, str(exc), None
        traceback.print_exc()
    commit = git("rev-parse", "HEAD")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mode": mode,
        "commit": commit,
        "dirty": None if commit is None else bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "env": {var: os.environ.get(var) for var in REPRO_VARS},
        "started": started,
        "wall_s": time.time() - started,
        # Host contention: the metrics of a run with much steal read slow.
        "steal_s": None if steal is None else steal_seconds() - steal,
    }
    record = {"meta": meta, "correct": correct, "failure": failure}
    attempted = failed = 0
    output = {}
    if result is not None:
        ops = result["ops"]
        attempted = sum(ops.attempted.values())
        failed = sum(ops.failed.values())
        record.update({
            "metrics": result["metrics"],
            "operations": ops.classes(),
            "rounds": result["rounds"],
            "inputs": result["inputs"],
            "samples": {kind: len(v) for kind, v in ops.latency.items()},
            "shutdown_errors": result.get("shutdown_errors", []),
        })
        output = {name: {"value": result["metrics"][name], "unit": unit}
                  for name, unit in END_TO_END_UNITS.items()}
        if tracer is not None:
            all_spans = tracer.spans + result.get("server_spans", [])
            layers = spans.layer_metrics(all_spans, result.get("extra", {}), ops.request_latency)
            output = {name: {"value": layers[name], "unit": unit}
                      for name, unit in spans.PER_LAYER.items()}
            baseline = untraced_ops_per_s(args.workload, args.seed, mode)
            record["layers"] = layers
            record["tracing_overhead"] = None if baseline is None else {
                "traced_ops_per_s": result["metrics"]["ops_per_s"],
                "untraced_ops_per_s": baseline[0],
                "untraced_record": baseline[1],
                "traced_over_untraced": result["metrics"]["ops_per_s"] / baseline[0],
            }
            record["spans"] = spans.jsonable(all_spans)
    os.makedirs(RECORDS, exist_ok=True)
    path = os.path.join(
        RECORDS, f"{args.workload}-{mode}-seed{args.seed}-{int(started * 1000)}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": output}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
