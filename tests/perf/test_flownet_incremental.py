"""FlowNetwork-level differential tests for the one flow engine.

The engine re-solves only dirty components, at the end of each instant,
with the dense water-filling kernel.  It is an optimization of the event
loop, not a model change, so:

* its makespans on seeded random simulations equal those recorded from
  the global oracle path the network used to run by default (to 1e-9:
  the kernel and the absolute finish times differ from that path in the
  last ulps);
* per flow, its completion times equal a run of the same engine with the
  progressive-filling oracle ``max_min_fair_rates`` as the component
  solver.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import des
from repro.network import FlowNetwork, Link, max_min_fair_rates
from repro.obs import Observer

_REL = 1e-9

#: Makespans of ``_run_random_sim(allocator, seed)`` recorded from the
#: global oracle path (every event re-solved every active flow) before
#: that path was removed.
ORACLE_PATH_MAKESPANS = {
    ("max-min", 1): 731.288496925602,
    ("max-min", 7): 627.6653784007697,
    ("max-min", 23): 568.1163886548416,
    ("max-min", 42): 677.232261320712,
    ("equal-split", 1): 731.2884969256021,
    ("equal-split", 7): 628.0412503037867,
    ("equal-split", 23): 568.7696665520014,
    ("equal-split", 42): 677.232261320712,
}


def _run_random_sim(allocator, seed: int, n_flows: int = 60):
    """Admit randomized flows over a clustered topology; return
    completion times by label."""
    rng = random.Random(seed)
    env = des.Environment()
    net = FlowNetwork(env, allocator=allocator)
    clusters = [
        (Link(f"c{i}:up", bandwidth=100.0 + i), Link(f"c{i}:down", bandwidth=70.0 + i))
        for i in range(4)
    ]
    core = Link("core", bandwidth=500.0)

    def workload():
        for n in range(n_flows):
            up, down = clusters[rng.randrange(len(clusters))]
            links = [up, down] + ([core] if rng.random() < 0.2 else [])
            size = rng.uniform(1.0, 5000.0)
            cap = rng.choice([float("inf"), 40.0, 15.0])
            net.transfer(size, links, max_rate=cap, label=f"f{n}")
            if rng.random() < 0.7:
                yield env.timeout(rng.uniform(0.0, 3.0))
        # else: next transfer starts at the same instant (batch case)

    env.process(workload())
    env.run()
    assert len(net.completed) == n_flows
    return {f.label: f.completed_at for f in net.completed}


@pytest.mark.parametrize("allocator, seed", sorted(ORACLE_PATH_MAKESPANS))
def test_makespan_matches_recorded_oracle_path(allocator, seed):
    makespan = max(_run_random_sim(allocator, seed).values())
    expected = ORACLE_PATH_MAKESPANS[(allocator, seed)]
    assert math.isclose(makespan, expected, rel_tol=_REL), (makespan, expected)


def test_incremental_matches_default_on_random_sims():
    """The kernel and the oracle, each as the engine's component solver,
    complete every flow at the same time."""
    for seed in (1, 7, 23):
        default = _run_random_sim("max-min", seed)
        oracle = _run_random_sim(max_min_fair_rates, seed)
        assert default.keys() == oracle.keys()
        for label, expected in oracle.items():
            assert math.isclose(
                default[label], expected, rel_tol=_REL, abs_tol=1e-9
            ), (label, default[label], expected)


def test_same_timestamp_admits_are_batched_into_one_solve():
    """N admits at one instant must cost one deferred solve, not N."""

    def run(allocator) -> tuple[float, float]:
        obs = Observer(metrics=["network"])
        env = des.Environment()
        obs.attach(env)
        net = FlowNetwork(env, allocator=allocator)
        link = Link("l", bandwidth=100.0)

        def start():
            for n in range(8):
                net.transfer(1000.0, [link], label=f"f{n}")
            yield env.timeout(0.0)

        env.process(start())
        env.run()
        solves = obs.registry.counter("network.solver_calls").value
        makespan = max(f.completed_at for f in net.completed)
        return solves, makespan

    for allocator in ("max-min", max_min_fair_rates):
        solves, makespan = run(allocator)
        assert makespan == pytest.approx(80.0, rel=_REL)
        # The 8 same-timestamp admits coalesce into one component solve;
        # the simultaneous completions drain without another.
        assert solves == 1, allocator


def test_incremental_zero_byte_and_loopback_flows():
    env = des.Environment()
    net = FlowNetwork(env)
    link = Link("l", bandwidth=100.0)
    seen = []

    def p():
        done_empty = net.transfer(0.0, [link], latency=0.5)
        done_loop = net.transfer(123.0, [], max_rate=10.0)
        flow = yield done_empty
        seen.append(("empty", env.now, flow.size))
        flow = yield done_loop
        seen.append(("loop", env.now, flow.size))

    env.process(p())
    env.run()
    assert ("empty", 0.5, 0.0) in seen
    assert any(k == "loop" and math.isclose(t, 12.3) for k, t, _ in seen)


def test_incremental_observer_counters_present():
    obs = Observer(metrics=["network"])
    env = des.Environment()
    obs.attach(env)
    net = FlowNetwork(env)
    link = Link("l", bandwidth=10.0)

    def p():
        yield net.transfer(100.0, [link])

    env.process(p())
    env.run()
    registry = obs.registry
    assert registry.counter("network.solver_calls").value >= 1
    assert registry.counter("network.links_touched").value >= 1
    assert registry.counter("network.flows_solved").value >= 1
