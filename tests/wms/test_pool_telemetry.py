"""Pinned allocator telemetry: the order of queue/grant/lease records.

The core allocator and the BB provisioner report every queueing
decision through the observer: ``cores_queued``/``cores_granted`` and
``bb_lease_*`` event records, wait intervals opened and closed at the
decision sites, and busy-core/queue-depth samples.  Nothing else fixes
the *order* of those records, so a refactor of the allocators could
reorder them without changing a makespan.  These digests pin them.
"""

import hashlib
import json

import pytest

from repro.obs import Observer
from repro.scenarios import run_contended, run_swarp


def _allocator_digest(observer: Observer) -> str:
    events = [
        event for event in observer.events
        if event["component"] == "compute"
        or event["event"].startswith("bb_lease_")
    ]
    waits = [interval.to_dict() for interval in observer.waits]
    compute_series = {
        name: list(observer.registry.timeseries(name).items())
        for name in observer.registry.names()
        if name.startswith("compute.")
        and name.endswith(("busy_cores", "queue_depth"))
    }
    assert events, "no allocator events recorded"
    blob = json.dumps(
        {"events": events, "waits": waits, "compute": compute_series},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


CONTENDED_DIGESTS = {
    "fifo": "5ab8359b0c48550cfd719138f70ab720c69b523ef2ae07c60c16c9c41503be15",
    "easy-backfill":
        "178a7ba4d5159274d3302fb835fe093d850b94870170d0a5b47539b454450d85",
    "conservative-backfill":
        "178a7ba4d5159274d3302fb835fe093d850b94870170d0a5b47539b454450d85",
    "plan": "16f7c020df29ec736f322666a0a92ff89710ba495128aaa05f086ec7c4f87f8c",
}


@pytest.mark.parametrize("policy", sorted(CONTENDED_DIGESTS))
def test_contended_allocator_telemetry_is_pinned(policy):
    observer = Observer()
    run_contended(queue_policy=policy, observer=observer)
    assert _allocator_digest(observer) == CONTENDED_DIGESTS[policy]


SWARP_DIGEST = (
    "e565905eddfd9f451bf0dc64efa7f69c7cd32097e04db94a5160d880f1815672"
)


def test_swarp_allocator_telemetry_is_pinned():
    observer = Observer()
    run_swarp(n_pipelines=4, observer=observer)
    assert _allocator_digest(observer) == SWARP_DIGEST
