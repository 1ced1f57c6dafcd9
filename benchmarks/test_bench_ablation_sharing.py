"""Ablation: max-min fair sharing vs. naive equal split.

DESIGN.md calls out the bandwidth-sharing discipline as a core design
choice of the flow-level network model.  This benchmark runs a
contended transfer pattern under both allocators and checks that
max-min's work conservation actually shows up as lower makespans —
i.e. the choice matters and the default is justified.
"""

import pytest

from repro import des
from repro.network import FlowNetwork, Link


def contended_makespan(allocator: str) -> float:
    """A hub link shared by local flows and two-hop flows.

    The two-hop flows are bound by their 100 B/s spokes under either
    discipline, so they finish at 50 s.  Max-min hands the hub capacity
    they leave unused to the local flows; equal split does not.  The
    local flows are large enough to outlive the two-hop ones, so the
    difference reaches the makespan: 52 s under max-min, 57 s under
    equal split.
    """
    env = des.Environment()
    net = FlowNetwork(env, allocator=allocator)
    hub = Link("hub", bandwidth=1000.0)
    spokes = [Link(f"spoke{i}", bandwidth=100.0) for i in range(4)]

    events = []
    for i, spoke in enumerate(spokes):
        events.append(net.transfer(5000, [hub, spoke], label=f"two-hop-{i}"))
    for i in range(4):
        events.append(net.transfer(8000, [hub], label=f"local-{i}"))

    done = {}

    def wait(env):
        yield env.all_of(events)
        done["makespan"] = env.now

    env.process(wait(env))
    env.run()
    return done["makespan"]


def test_bench_sharing_max_min(benchmark):
    makespan = benchmark.pedantic(
        lambda: contended_makespan("max-min"), rounds=3, iterations=1
    )
    assert makespan > 0


def test_bench_sharing_equal_split(benchmark):
    makespan = benchmark.pedantic(
        lambda: contended_makespan("equal-split"), rounds=3, iterations=1
    )
    assert makespan > 0


def test_max_min_is_work_conserving_in_simulation():
    """The ablation's point: equal split wastes freed capacity, so its
    makespan is strictly worse on the contended pattern."""
    fair = contended_makespan("max-min")
    naive = contended_makespan("equal-split")
    assert fair == pytest.approx(52.0)
    assert naive == pytest.approx(57.0)
