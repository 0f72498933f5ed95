"""Every workload and every correctness check at smoke size.

Run with ``python3 -m pytest e2ebench -q`` from the root of a checkout.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

import pytest

from common import HERE, ROOT
from spans import PER_LAYER

WORKLOADS = ("acyclic-serve", "cyclic-adhoc", "http-durable")
END_TO_END = {"setup_s", "first_answer_s", "ops_per_s", "read_p50_ms", "read_p90_ms",
              "write_p50_ms", "peak_rss_mb"}


def run(workload, trace=0, root=ROOT, seed=3):
    command = [sys.executable, os.path.join(root, "e2ebench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def latest_record(workload, seed=3):
    paths = glob.glob(os.path.join(HERE, "work", "records", f"{workload}-smoke-seed{seed}-*-trace0.json"))
    with open(max(paths, key=os.path.getmtime)) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    done = run(workload)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "http-durable":
        # One side upload per round, refused by the poisoned batcher,
        # and in no latency: one write sample per round, the upload.
        assert result["failed"] * 5 == result["attempted"]
        record = latest_record(workload)
        assert record["samples"]["write"] == record["rounds"]
        assert record["operations"]["side_upload"]["failed"] == record["rounds"]
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", ("cyclic-adhoc", "http-durable"))
def test_traced_run_reports_every_layer(workload):
    done = run(workload, trace=1)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(PER_LAYER)


def test_same_seed_same_operations():
    first, second = (json.loads(run("cyclic-adhoc", seed=5).stdout.splitlines()[-1])
                     for _ in range(2))
    assert first["attempted"] == second["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run("acyclic-serve", root=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
