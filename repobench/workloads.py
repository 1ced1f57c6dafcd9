"""The repo benchmark's workloads: what each one builds, runs and checks.

Every workload calls a public scenario entry point of :mod:`repro.scenarios`
with the default configuration (no allocator or queue-policy override beyond
what the workload names).  ``full`` is the benchmarked size; ``reduced`` is a
small instance of the same shape that the benchmark's own tests run.

The benchmark times :meth:`Workload.build` as part of set-up (platform spec
and workflow or job list) and :meth:`Workload.run` as one operation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.obs import Observer
from repro.platform.presets import cori_spec
from repro.scenarios import contended_jobs, run_contended, run_genomes, run_swarp
from repro.storage import BBMode
from repro.workflow.genomes import make_1000genomes
from repro.workflow.swarp import make_swarp

#: Recorded makespans: ``{workload: {seed or "*": makespan}}``.  ``"*"``
#: marks a deterministic workload whose makespan does not depend on the seed.
REFERENCES_PATH = Path(__file__).with_name("references.json")

#: Relative tolerance of the makespan check: the ulp budget a change of
#: flow engine may spend.
MAKESPAN_RTOL = 1e-9


class CheckFailed(AssertionError):
    """A simulation finished but its output is wrong."""


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    ``full`` and ``reduced`` hold the size knobs; ``build_fn`` turns them
    into inputs and ``simulate_fn`` into one run at a seed.
    """

    name: str
    full: dict[str, Any]
    reduced: dict[str, Any]
    build_fn: Callable[[dict[str, Any]], tuple[Any, Any]]
    simulate_fn: Callable[[dict[str, Any], int], Any]

    def size(self, full: bool) -> dict[str, Any]:
        return dict(self.full if full else self.reduced)

    def build(self, full: bool = True) -> tuple[Any, Any]:
        """Build the platform spec and the workflow (or job list)."""
        return self.build_fn(self.size(full))

    def run(self, seed: int, full: bool = True) -> Any:
        """One simulation: a :class:`repro.scenarios.ScenarioResult`."""
        return self.simulate_fn(self.size(full), seed)

    def check(self, result: Any, seed: int, inputs: tuple[Any, Any],
              full: bool = True, references: Optional[dict] = None) -> float:
        """Raise :class:`CheckFailed` unless ``result`` is correct.

        Every task or job must have completed.  The makespan must equal the
        recorded reference for ``(workload, seed)`` within
        :data:`MAKESPAN_RTOL`; for a seed without a reference it must be at
        least the longest single task's compute time.  ``inputs`` is what
        :meth:`build` returned for the same size.  Returns the makespan.
        """
        records = list(result.trace.records.values())
        tasks = inputs[1]
        expected = len(getattr(tasks, "tasks", tasks))
        if len(records) != expected:
            raise CheckFailed(
                f"{self.name}: {len(records)} of {expected} tasks completed"
            )
        for r in records:
            if not (math.isfinite(r.end) and r.start <= r.compute_end <= r.end):
                raise CheckFailed(f"{self.name}: task {r.name} has bad times")
        makespan = result.makespan
        reference = reference_makespan(self.name, seed, full, references)
        if reference is not None:
            if not math.isclose(makespan, reference, rel_tol=MAKESPAN_RTOL):
                raise CheckFailed(
                    f"{self.name} seed {seed}: makespan {makespan!r} != "
                    f"reference {reference!r}"
                )
        else:
            longest = max(r.compute_time for r in records)
            if not (makespan > 0.0 and makespan >= longest):
                raise CheckFailed(
                    f"{self.name} seed {seed}: makespan {makespan!r} below "
                    f"the longest task compute time {longest!r}"
                )
        return makespan


def load_references() -> dict:
    with REFERENCES_PATH.open() as fh:
        return json.load(fh)


def reference_makespan(name: str, seed: int, full: bool,
                       references: Optional[dict] = None) -> Optional[float]:
    """The recorded makespan of the full-size ``name`` at ``seed``, if any."""
    if not full:
        return None
    refs = (load_references() if references is None else references).get(name, {})
    value = refs.get("*", refs.get(str(seed)))
    return None if value is None else float(value)


# ----------------------------------------------------------------------
# swarp-pipelines: top point of fig7/fig8/fig11
# ----------------------------------------------------------------------
def _swarp_build(p: dict) -> tuple:
    return (
        cori_spec(n_compute=1, n_bb_nodes=2),
        make_swarp(n_pipelines=p["n_pipelines"], cores_per_task=1,
                   include_stage_in=True),
    )


def _swarp_run(p: dict, seed: int):
    return run_swarp(
        bb_mode=BBMode.PRIVATE,
        input_fraction=1.0,
        intermediates_in_bb=True,
        outputs_in_bb=True,
        n_pipelines=p["n_pipelines"],
        cores_per_task=1,
        include_stage_in=True,
        emulated=True,
        seed=seed,
    )


# ----------------------------------------------------------------------
# genomes-full / genomes-monitored: the 1000Genomes case study
# ----------------------------------------------------------------------
def _genomes_build(p: dict) -> tuple:
    return (
        cori_spec(n_compute=p["n_compute"], n_bb_nodes=1),
        make_1000genomes(n_chromosomes=p["n_chromosomes"]),
    )


def _genomes_run(p: dict, seed: int, observer: Optional[Observer] = None):
    return run_genomes(
        input_fraction=0.6,
        n_chromosomes=p["n_chromosomes"],
        n_compute=p["n_compute"],
        n_bb_nodes=1,
        observer=observer,
    )


def _genomes_monitored_run(p: dict, seed: int):
    return _genomes_run(p, seed, observer=Observer(monitors=True))


# ----------------------------------------------------------------------
# contended-plan: plan-based co-reservation, no network flows
# ----------------------------------------------------------------------
def _contended_build(p: dict) -> tuple:
    return (
        cori_spec(n_compute=2, n_bb_nodes=2),
        contended_jobs(n_jobs=p["n_jobs"], n_compute=2),
    )


def _contended_run(p: dict, seed: int):
    return run_contended(n_jobs=p["n_jobs"], queue_policy="plan")


_GENOMES_FULL = {"n_chromosomes": 22, "n_compute": 8}
_GENOMES_REDUCED = {"n_chromosomes": 2, "n_compute": 2}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="swarp-pipelines",
            full={"n_pipelines": 32},
            reduced={"n_pipelines": 2},
            build_fn=_swarp_build,
            simulate_fn=_swarp_run,
        ),
        Workload(
            name="genomes-full",
            full=_GENOMES_FULL,
            reduced=_GENOMES_REDUCED,
            build_fn=_genomes_build,
            simulate_fn=_genomes_run,
        ),
        Workload(
            name="contended-plan",
            full={"n_jobs": 120},
            reduced={"n_jobs": 12},
            build_fn=_contended_build,
            simulate_fn=_contended_run,
        ),
        Workload(
            name="genomes-monitored",
            full=_GENOMES_FULL,
            reduced=_GENOMES_REDUCED,
            build_fn=_genomes_build,
            simulate_fn=_genomes_monitored_run,
        ),
    )
}
