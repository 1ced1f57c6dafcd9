"""DES event budgets of stock runs.

Per-transfer plumbing (latency waits, I/O logging, staging
registration, striped-chunk joins) runs as callbacks on events that
already exist, not as one-line processes, each of which cost a start
and an exit event besides the event it waited for.  These pins fail if one comes back.
Counts are the observer's ``des.events_processed`` (the final
``run(until=...)`` stop is not counted).
"""

import pytest

from repro.obs import Observer
from repro.scenarios import run_genomes, run_swarp
from repro.storage import BBMode


def _events(run) -> int:
    observer = Observer(metrics=["des"])
    run(observer)
    return int(observer.registry.counter("des.events_processed").value)


@pytest.mark.parametrize(
    "run, budget",
    [
        (lambda obs: run_swarp(n_pipelines=4, observer=obs), 892),
        # A striped operation is the all_of of its chunk transfers.
        (
            lambda obs: run_swarp(
                n_pipelines=4, bb_mode=BBMode.STRIPED, observer=obs
            ),
            1916,
        ),
        # Emulated runs stage inputs in with stage_file, whose
        # registration is a callback on the transfer.
        (
            lambda obs: run_swarp(
                n_pipelines=4, cores_per_task=1, emulated=True, seed=0,
                observer=obs,
            ),
            1436,
        ),
        (
            lambda obs: run_genomes(
                n_chromosomes=2, n_compute=2, input_fraction=0.6, observer=obs
            ),
            1149,
        ),
    ],
    ids=["swarp-4", "swarp-4-striped", "swarp-4-emulated", "genomes-2chr"],
)
def test_des_event_budget(run, budget):
    assert _events(run) == budget
