"""Record the reference makespans the benchmark checks every operation against.

Run from the repository root, only when the model is meant to change::

    python3 repobench/record_references.py

Seeded workloads get one reference per seed ``0 .. SEEDS-1``; a workload
whose output does not depend on the seed gets one reference under ``"*"``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from workloads import REFERENCES_PATH, WORKLOADS  # noqa: E402

#: Workloads whose simulation consumes the seed.
SEEDED = ("swarp-pipelines",)

#: Seeds recorded for each seeded workload.
SEEDS = 32


def main() -> int:
    references: dict[str, dict[str, float]] = {}
    for name, workload in WORKLOADS.items():
        seeds = range(SEEDS) if name in SEEDED else (0,)
        refs = {}
        for seed in seeds:
            makespan = workload.run(seed).makespan
            refs[str(seed) if name in SEEDED else "*"] = makespan
            print(f"{name} seed {seed}: {makespan!r}", flush=True)
        references[name] = refs
    REFERENCES_PATH.write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
