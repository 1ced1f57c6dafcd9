"""The repo benchmark: host time of paper-derived simulations, and where it goes.

Run from the repository root::

    python3 repobench/run.py --workload genomes-monitored --seed 0 --seconds 55 --trace 0

Each run is one process and one workload (see ``workloads.py`` and
``README.md``).  An *operation* is one simulation; it fails if it raises or
its output check fails.  With ``--trace 0`` the run times set-up, then one
warm-up operation, then operations for ``--seconds`` seconds (at least
three), and reports the end-to-end metrics.  With ``--trace 1`` it times the
untraced operations the same way and then runs one operation under the
profiler, reporting the per-layer ledger (``layers.py``).

Standard output ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": ..., "unit": ...}}}

preceded by a ``{"provenance": ...}`` line and a ``{"samples": ...}`` line
giving how many timings each median is over.  The program exits 2 without a
result when the repository's ``src/repro`` is not beside this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Thread-pool variables pinned to one thread before numpy loads, so a run
#: is one single-threaded process on any host.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

#: Fresh processes that each time set-up; ``setup_s`` is their median.
#: Imports dominate set-up, and only a fresh interpreter pays them again.
SETUP_PROBES = 3

#: Fewest timed operations per run, even past ``--seconds``.
MIN_OPERATIONS = 3

PROBE_TIMEOUT_S = 120


class Tally:
    """Operations attempted and failed in this run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def operate(self, fn: Callable[[], Any],
                check: Callable[[Any], Any]) -> tuple[Any, float]:
        """Run one operation, check it, and return its result and host seconds.

        The time covers ``fn`` only, and is returned even when the
        operation fails, so a failing run still reports how long it took.
        The result is ``None`` when ``fn`` raised.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            wall = time.perf_counter() - start
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None, wall
        wall = time.perf_counter() - start
        try:
            check(result)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        return result, wall


def setup_probe(name: str) -> float:
    """Seconds to import ``repro`` and build ``name``'s spec and workflow."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    WORKLOADS[name].build()
    return time.perf_counter() - start


def probe_setup_in_fresh_process(name: str) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


def timed_operations(tally: Tally, op: Callable[[], Any], check: Callable[[Any], Any],
                     seconds: float) -> list[float]:
    """Host seconds of operations run for about ``seconds``.

    A new operation starts only if the median so far says it ends within
    ``seconds``, once :data:`MIN_OPERATIONS` are done.
    """
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        walls.append(tally.operate(op, check)[1])
        elapsed = time.perf_counter() - start
        if (len(walls) >= MIN_OPERATIONS
                and elapsed + statistics.median(walls) > seconds):
            return walls


def _git_commit() -> str | None:
    """HEAD's commit read from ``.git`` files; ``None`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over ``src/repro``'s Python sources, path-sorted."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(name: str, seed: int) -> dict[str, Any]:
    import numpy

    from repro.network import allocators
    from repro.wms import policies

    allocator = allocators.resolve_allocator(None)
    policy = policies.resolve_policy(None)
    return {
        "workload": name,
        "seed": seed,
        "default_allocator": allocators.DEFAULT_ALLOCATOR,
        "allocator_callable": f"{allocator.__module__}.{allocator.__qualname__}",
        "default_queue_policy": policies.DEFAULT_POLICY,
        "queue_policy_class": type(policy).__name__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One benchmark run; returns the result object."""
    from workloads import WORKLOADS, load_references

    setups = [] if trace else [
        probe_setup_in_fresh_process(name) for _ in range(SETUP_PROBES)
    ]
    workload = WORKLOADS[name]
    references = load_references()
    tally = Tally()

    # Warm-up: the reduced-size instance runs the same code paths, so the
    # interpreter's caches fill and lazy imports finish before timing.
    reduced = workload.build(full=False)
    tally.operate(lambda: workload.run(seed, full=False),
                  lambda result: workload.check(result, seed, reduced, full=False))

    inputs = workload.build()

    def op():
        return workload.run(seed)

    def check(result):
        workload.check(result, seed, inputs, references=references)

    walls = timed_operations(tally, op, check, seconds)
    wall_s = statistics.median(walls)
    print(json.dumps({"provenance": provenance(name, seed)}), flush=True)
    print(json.dumps({"samples": {"wall_s": len(walls), "setup_s": len(setups)}}),
          flush=True)

    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
    else:
        import layers

        # The same operation the untraced timings cover: the scenario entry
        # points build their spec and workflow inside the call.
        traced, _ = tally.operate(lambda: layers.profile_call(op),
                                  lambda out: check(out[0]))
        metrics = {}
        if traced is not None:
            _, stats, traced_wall = traced
            ledger = layers.ledger(stats, traced_wall, wall_s)
            metrics = {key: (value, layers.unit_of(key))
                       for key, value in ledger.items()}

    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"repobench: no repro sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if args.setup_probe:
        print(repr(setup_probe(args.workload)))
        return 0
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
