"""Tests of the repo benchmark itself, on reduced-size workloads.

Run from the repository root::

    python3 -m pytest repobench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def traced(name: str, seed: int = 0):
    return layers.profile_call(lambda: WORKLOADS[name].run(seed, full=False))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_run_passes_output_check(name):
    workload = WORKLOADS[name]
    inputs = workload.build(full=False)
    result = workload.run(3, full=False)
    assert workload.check(result, 3, inputs, full=False) == result.makespan


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    keys = layers.entry_point_keys()
    first = layers.call_counts(traced(name)[1], keys)
    second = layers.call_counts(traced(name)[1], keys)
    assert first == second
    assert first["des.events"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_and_unattributed_sum_to_traced_wall(name):
    _, stats, wall = traced(name)
    profiled = sum(entry[2] for entry in stats.values())
    selfs = layers.self_time_by_layer(stats)
    # Attribution neither loses nor double-counts profiled self time ...
    assert math.isclose(sum(selfs.values()), profiled, rel_tol=1e-9)
    # ... and the profiler saw nearly all of the traced wall time.
    assert 0.0 <= wall - profiled < 0.05 * wall + 1e-3
    metrics = layers.ledger(stats, wall, untraced_wall=wall)
    total = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert math.isclose(total + metrics["unattributed_s"], wall, rel_tol=1e-9)


def test_builtin_time_is_charged_to_the_calling_layer():
    _, stats, _ = traced("contended-plan")
    selfs = layers.self_time_by_layer(stats)
    own = {layer: 0.0 for layer in layers.LAYERS}
    for (filename, _, _), entry in stats.items():
        layer = layers.layer_of(filename)
        if layer:
            own[layer] += entry[2]
    # wms calls builtins (sorted, min, list methods) in its policy search.
    assert selfs["wms"] > own["wms"]


def test_obs_hooks_run_only_when_monitored():
    keys = layers.entry_point_keys()
    for name in WORKLOADS:
        hooks = layers.call_counts(traced(name)[1], keys)["obs.hook_calls"]
        assert (hooks > 0) == (name == "genomes-monitored"), name


def test_contended_plan_has_no_network_flows():
    counts = layers.call_counts(traced("contended-plan")[1], layers.entry_point_keys())
    assert counts["network.transfers"] == 0
    assert counts["wms.plan_requests"] == WORKLOADS["contended-plan"].reduced["n_jobs"]


def test_check_rejects_a_makespan_off_its_reference():
    workload = WORKLOADS["genomes-full"]
    inputs = workload.build(full=False)
    result = workload.run(0, full=False)
    refs = {"genomes-full": {"*": result.makespan * (1 + 1e-8)}}
    # Reduced sizes have no references; check the reference rule at "full".
    with pytest.raises(CheckFailed, match="reference"):
        workload.check(result, 0, inputs, full=True, references=refs)
    refs = {"genomes-full": {"*": result.makespan * (1 + 1e-12)}}
    workload.check(result, 0, inputs, full=True, references=refs)


def test_check_rejects_incomplete_runs():
    workload = WORKLOADS["contended-plan"]
    inputs = workload.build(full=False)
    result = workload.run(0, full=False)
    result.trace.records.pop(next(iter(result.trace.records)))
    with pytest.raises(CheckFailed, match="tasks completed"):
        workload.check(result, 0, inputs, full=False)


def test_a_raising_operation_counts_as_failed():
    tally = run.Tally()

    def boom():
        raise RuntimeError("boom")

    result, wall = tally.operate(boom, lambda _: None)
    assert result is None and wall >= 0.0
    assert (tally.attempted, tally.failed) == (1, 1)
