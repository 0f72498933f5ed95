"""Shared plumbing: locating the program, timing operations, statistics."""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space of the benchmark (tenant directories, run records);
#: it lives inside the checkout and is ignored by git.
WORK = os.path.join(HERE, "work")

#: Environment variables that change the program's strategies; runs
#: record them, and the benchmark measures whatever they are set to.
REPRO_VARS = ("REPRO_WORKERS", "REPRO_FRONTIER", "REPRO_FAQ_FUSED", "REPRO_KERNELS")


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


class CheckFailure(AssertionError):
    """The program returned a wrong answer."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def import_repro():
    """Import the program from ``src/`` of this checkout, and only there."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        raise BenchmarkError(f"no program source at {os.path.dirname(package)}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if os.path.realpath(os.path.dirname(repro.__file__)) != os.path.realpath(
        os.path.dirname(package)
    ):
        raise BenchmarkError(f"imported repro from {repro.__file__}, not {SRC}")
    return repro


def rss_mb() -> float:
    """Resident memory of this process now."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: List[float]) -> float:
    return statistics.median(values)


def p90(values: List[float]) -> float:
    """The 90th percentile (linear interpolation between order statistics)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Ops:
    """Attempted/failed counts per operation class, latencies per kind.

    ``run(cls, kind, fn)`` times one operation.  ``kind`` is ``"read"``,
    ``"write"`` or ``None`` (counted, in no latency).  An operation whose
    class is listed in ``expected_failures`` and raises one of the given
    exceptions is counted as failed and kept out of every latency; any
    other exception propagates.  Such classes stay out of ``ops_per_s``.
    Time spent inside :meth:`paused` (checks and reference bookkeeping)
    is kept off the script's clock.
    """

    def __init__(self, expected_failures: Optional[Dict[str, tuple]] = None) -> None:
        self.attempted: Dict[str, int] = defaultdict(int)
        self.failed: Dict[str, int] = defaultdict(int)
        self.latency: Dict[str, List[float]] = {"read": [], "write": []}
        self.seconds: Dict[str, float] = defaultdict(float)
        self.expected_failures = expected_failures or {}
        self.request_latency: Dict[str, float] = {}
        self._paused = 0.0

    def run(self, cls: str, kind: Optional[str], fn: Callable, request=None):
        self.attempted[cls] += 1
        start = time.perf_counter()
        try:
            result = fn()
        except self.expected_failures.get(cls, ()) as exc:
            self.failed[cls] += 1
            return exc
        elapsed = time.perf_counter() - start
        self.seconds[cls] += elapsed
        if kind is not None:
            self.latency[kind].append(elapsed)
        if kind == "read" and request is not None and request.last_id is not None:
            # Reads only: the batcher applies uploads from its own task,
            # so their engine time is not tied to one request.
            self.request_latency[request.last_id] = elapsed
        return result

    @contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - start

    @property
    def paused_seconds(self) -> float:
        return self._paused

    def classes(self) -> Dict[str, Dict[str, float]]:
        """Per class: attempted, failed, and seconds spent (successes)."""
        return {
            cls: {"attempted": self.attempted[cls], "failed": self.failed[cls],
                  "seconds": self.seconds[cls]}
            for cls in sorted(self.attempted)
        }


def end_to_end(setups: List[float], first_answers: List[float], ops: Ops,
               script_seconds: float, peak_rss_mb: float) -> Dict[str, float]:
    """The seven end-to-end metrics of one run."""
    reads, writes = ops.latency["read"], ops.latency["write"]
    # Classes that are expected to fail stay out of the count whether
    # they fail or not, so mending their fault moves no throughput.
    done = sum(n for cls, n in ops.attempted.items() if cls not in ops.expected_failures)
    return {
        "setup_s": median(setups),
        "first_answer_s": median(first_answers),
        "ops_per_s": done / script_seconds,
        "read_p50_ms": median(reads) * 1e3,
        "read_p90_ms": p90(reads) * 1e3,
        "write_p50_ms": median(writes) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "first_answer_s": "s",
    "ops_per_s": "ops/s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "write_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
