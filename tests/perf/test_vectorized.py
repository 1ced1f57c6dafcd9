"""Differential tests: the dense kernel and its engine against the oracle.

The kernel's contract (see ``docs/PERF.md``):

* same validation errors as :func:`max_min_fair_rates`;
* rates within 1e-9 relative of the oracle, whether called statelessly
  or through the dirty-component engine, across capacities spanning
  1e-12..1e6, flow caps, single-flow links, and arbitrary admit/drain
  interleavings;
* a deterministic event stream end to end: two identical runs and a
  serial-vs-parallel sweep must agree exactly.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fairshare import max_min_fair_rates
from repro.perf import (
    FlowSlots,
    VectorizedMaxMin,
    static_capacity,
    vectorized_max_min_rates,
)

_REL = 1e-9


def close(a: float, b: float) -> bool:
    # Relative-only: capacities go down to 1e-12, where an absolute
    # tolerance would mask real disagreement.
    return a == b or math.isclose(a, b, rel_tol=_REL, abs_tol=0.0)


def make_engine(capacities):
    return VectorizedMaxMin(static_capacity(capacities))


# ----------------------------------------------------------------------
# Stateless allocator: validation parity with the oracle
# ----------------------------------------------------------------------
def test_validation_matches_oracle():
    with pytest.raises(ValueError, match="non-positive capacity"):
        vectorized_max_min_rates([["l"]], {"l": 0.0})
    with pytest.raises(ValueError, match="unknown link"):
        vectorized_max_min_rates([["nope"]], {"l": 1.0})
    with pytest.raises(ValueError, match="flow_caps length"):
        vectorized_max_min_rates([["l"]], {"l": 1.0}, flow_caps=[1.0, 2.0])
    with pytest.raises(ValueError, match="no links and no cap"):
        vectorized_max_min_rates([[]], {})


def test_empty_problem():
    assert vectorized_max_min_rates([], {}) == []
    assert vectorized_max_min_rates([], {"l": 5.0}) == []


def test_fixed_cases_match_oracle():
    cases = [
        # (flow_links, capacities, flow_caps)
        ([["a"]], {"a": 100.0}, None),                       # single-flow link
        ([["a"], ["a"]], {"a": 100.0}, None),                # equal split
        ([["a"], ["a", "b"]], {"a": 100.0, "b": 20.0}, None),
        ([["a"], ["a"], ["b"]], {"a": 90.0, "b": 50.0}, [10.0, 1e18, 1e18]),
        ([[], ["a"]], {"a": 7.0}, [3.0, 1e18]),              # linkless capped
        ([["a"]], {"a": 1e-12}, None),                       # tiny capacity
        ([["a"], ["a"]], {"a": 1e6}, None),                  # huge capacity
        ([["a", "b"], ["b", "c"], ["a", "c"]],
         {"a": 1e-12, "b": 1.0, "c": 1e6}, None),            # mixed scales
    ]
    for flow_links, capacities, caps in cases:
        expected = max_min_fair_rates(flow_links, capacities, caps)
        got = vectorized_max_min_rates(flow_links, capacities, caps)
        assert len(got) == len(expected)
        assert all(close(g, e) for g, e in zip(got, expected)), (
            flow_links, capacities, caps, got, expected,
        )


def test_identical_constraint_flows_share_one_rate():
    # Ten flows with the same link set and cap form one group: their
    # rates are not merely close but the same float.
    rates = vectorized_max_min_rates(
        [["a", "b"]] * 10, {"a": 100.0, "b": 33.0}
    )
    assert len(set(rates)) == 1


def test_wide_problem_uses_dense_path():
    # 40 links forces the numpy argmin branch (>= _NP_MIN_LINKS); the
    # scalar branch is covered by the tiny cases above.  Both must
    # match the oracle.
    links = [f"l{i}" for i in range(40)]
    capacities = {link: 10.0 + i for i, link in enumerate(links)}
    flow_links = [[links[i % 40], links[(i * 7 + 1) % 40]] for i in range(80)]
    expected = max_min_fair_rates(flow_links, capacities)
    got = vectorized_max_min_rates(flow_links, capacities)
    assert all(close(g, e) for g, e in zip(got, expected))


# ----------------------------------------------------------------------
# Stateful engine: bookkeeping
# ----------------------------------------------------------------------
def test_admit_drain_bookkeeping():
    engine = make_engine({"l": 100.0})
    engine.admit(1, ["l"])
    engine.admit(2, ["l"])
    assert 1 in engine and len(engine) == 2
    assert engine.dirty
    engine.solve()
    assert not engine.dirty
    engine.drain(1)
    assert 1 not in engine and engine.dirty
    assert engine.solve() == {2: 100.0}


def test_admit_duplicate_fid_rejected():
    engine = make_engine({"l": 100.0})
    engine.admit(1, ["l"])
    with pytest.raises(ValueError, match="already admitted"):
        engine.admit(1, ["l"])


def test_drain_unknown_fid_rejected():
    engine = make_engine({"l": 100.0})
    with pytest.raises(KeyError, match="not admitted"):
        engine.drain(99)


def test_linkless_uncapped_flow_rejected():
    engine = make_engine({})
    with pytest.raises(ValueError, match="no links and no cap"):
        engine.admit(1, [])


def test_linkless_capped_flow_gets_its_cap():
    engine = make_engine({})
    engine.admit(1, [], cap=42.0)
    assert engine.solve() == {1: 42.0}


def test_solve_without_dirt_is_a_noop():
    engine = make_engine({"l": 100.0})
    engine.admit(1, ["l"])
    engine.solve()
    assert engine.solve() == {}
    assert engine.stats.solver_calls == 1


def test_group_granularity_stats():
    # 8 identical flows are one group: a solve touches 1 link but
    # reports 8 flows solved (stats count flows, not groups).
    engine = make_engine({"l": 100.0})
    for fid in range(8):
        engine.admit(fid, ["l"])
    changed = engine.solve()
    assert len(changed) == 8
    assert engine.stats.flows_solved == 8
    assert engine.stats.links_touched == 1
    assert all(close(rate, 12.5) for rate in changed.values())


def test_untouched_component_is_not_recomputed():
    engine = make_engine({"a": 100.0, "b": 60.0})
    engine.admit(1, ["a"])
    engine.admit(2, ["a"])
    engine.admit(3, ["b"])
    engine.solve()
    calls = engine.stats.solver_calls

    engine.admit(4, ["b"])
    changed = engine.solve()
    assert set(changed) == {3, 4}
    assert engine.stats.solver_calls == calls + 1
    assert engine.rate(1) == 50.0 and engine.rate(2) == 50.0
    assert changed[3] == 30.0 and changed[4] == 30.0


def test_full_solve_counted_only_when_component_spans_graph():
    engine = make_engine({"a": 10.0, "b": 10.0})
    engine.admit(1, ["a"])
    engine.admit(2, ["b"])
    engine.solve()
    assert engine.stats.full_solves == 0


# ----------------------------------------------------------------------
# Randomized differential suite
# ----------------------------------------------------------------------
LINKS = ("l0", "l1", "l2", "l3", "l4", "l5")


@st.composite
def flow_graphs(draw):
    """Random problems spanning capacities 1e-12..1e6."""
    n_links = draw(st.integers(min_value=1, max_value=len(LINKS)))
    links = LINKS[:n_links]
    capacities = {
        link: draw(st.floats(min_value=1e-12, max_value=1e6, allow_nan=False))
        for link in links
    }
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flow_links = [
        draw(st.lists(st.sampled_from(links), min_size=1, max_size=3, unique=True))
        for _ in range(n_flows)
    ]
    caps = [
        draw(st.one_of(st.just(float("inf")), st.floats(min_value=1e-12, max_value=1e5)))
        for _ in range(n_flows)
    ]
    return flow_links, capacities, caps


def flow_components(flow_links):
    """Flow ids grouped into link-sharing components, in fid order."""
    parent = list(range(len(flow_links)))

    def root(fid):
        while parent[fid] != fid:
            fid = parent[fid]
        return fid

    owner = {}
    for fid, links in enumerate(flow_links):
        for link in links:
            if link in owner:
                parent[root(fid)] = root(owner[link])
            else:
                owner[link] = fid
    components = {}
    for fid in range(len(flow_links)):
        components.setdefault(root(fid), []).append(fid)
    return list(components.values())


def check_three_way(flow_links, capacities, caps):
    """Oracle, stateless kernel and engine agree on every rate.

    The stateless kernel must match the oracle within 1e-9.  The engine
    solves each connected component on its own, so it is compared bit
    for bit with the kernel solved on that flow's own component, not on
    the whole graph: a whole-graph water-filling pass may freeze two
    components at one shared level, which differs from the per-component
    answer in the last bit.
    """
    oracle = max_min_fair_rates(flow_links, capacities, caps)
    vectorized = vectorized_max_min_rates(flow_links, capacities, caps)
    engine = make_engine(capacities)
    for fid, (links, cap) in enumerate(zip(flow_links, caps)):
        engine.admit(fid, links, cap)
    engine.solve()
    for fid, (o, v) in enumerate(zip(oracle, vectorized)):
        assert close(v, o), (v, o)
    for fids in flow_components(flow_links):
        links = {link for fid in fids for link in flow_links[fid]}
        own = vectorized_max_min_rates(
            [flow_links[fid] for fid in fids],
            {link: c for link, c in capacities.items() if link in links},
            [caps[fid] for fid in fids],
        )
        for fid, rate in zip(fids, own):
            assert engine.rate(fid) == rate, (fid, engine.rate(fid), rate)
            assert close(rate, oracle[fid]), (rate, oracle[fid])


def test_three_way_component_level_counterexample():
    """Two one-link components whose capacities differ in the last bit:
    a whole-graph pass rates both at 1e-12, the engine rates flow 1 at
    its own link's capacity."""
    check_three_way(
        [["l0"], ["l3"]],
        {"l0": 1e-12, "l3": 1.0000000000000002e-12},
        [float("inf"), float("inf")],
    )


@settings(max_examples=150, deadline=None)
@given(problem=flow_graphs())
def test_three_way_differential_random_graphs(problem):
    """Oracle, stateless kernel and engine agree on every rate."""
    check_three_way(*problem)


@st.composite
def admit_drain_sequences(draw):
    """A random interleaving of admits and drains over random links."""
    _, capacities, _ = draw(flow_graphs())
    links = sorted(capacities)
    n_ops = draw(st.integers(min_value=1, max_value=24))
    ops = []
    live: list[int] = []
    next_fid = 0
    for _ in range(n_ops):
        if live and draw(st.booleans()):
            victim = live.pop(draw(st.integers(0, len(live) - 1)))
            ops.append(("drain", victim, None, None))
        else:
            flinks = draw(
                st.lists(st.sampled_from(links), min_size=1, max_size=3, unique=True)
            )
            cap = draw(
                st.one_of(
                    st.just(float("inf")), st.floats(min_value=1e-12, max_value=1e5)
                )
            )
            ops.append(("admit", next_fid, flinks, cap))
            live.append(next_fid)
            next_fid += 1
    return capacities, ops


@settings(max_examples=100, deadline=None)
@given(problem=admit_drain_sequences())
def test_engine_differential_admit_drain(problem):
    """After every op, the engine equals a from-scratch global solve,
    with the kernel or the oracle as its component solver."""
    capacities, ops = problem
    vec = make_engine(capacities)
    oracle_engine = VectorizedMaxMin(static_capacity(capacities), max_min_fair_rates)
    reference: dict[int, tuple] = {}
    reference_caps: dict[int, float] = {}
    for op, fid, links, cap in ops:
        if op == "admit":
            vec.admit(fid, links, cap)
            oracle_engine.admit(fid, links, cap)
            reference[fid] = tuple(links)
            reference_caps[fid] = cap
        else:
            vec.drain(fid)
            oracle_engine.drain(fid)
            del reference[fid]
            del reference_caps[fid]
        vec.solve()
        oracle_engine.solve()
        if not reference:
            assert vec.rates == {}
            continue
        fids = list(reference)
        expected = max_min_fair_rates(
            [reference[f] for f in fids],
            capacities,
            [reference_caps[f] for f in fids],
        )
        for f, e in zip(fids, expected):
            assert close(vec.rate(f), e), (f, vec.rate(f), e)
            via_oracle = oracle_engine.rate(f)
            assert close(vec.rate(f), via_oracle) or close(via_oracle, e)


# ----------------------------------------------------------------------
# FlowSlots: the dense flow-progress records
# ----------------------------------------------------------------------
def test_slots_admit_drop_recycle():
    slots = FlowSlots(capacity=2)
    a = slots.admit(10, size=100.0, remaining=100.0)
    b = slots.admit(11, size=50.0, remaining=50.0)
    assert len(slots) == 2 and a != b
    slots.drop(10)
    assert len(slots) == 1
    # The freed slot is recycled before any growth.
    c = slots.admit(12, size=10.0, remaining=10.0)
    assert c == a
    assert slots.remaining_of(12) == 10.0


def test_slots_grow_preserves_state():
    slots = FlowSlots(capacity=1)
    for fid in range(5):
        slots.admit(fid, size=float(fid + 1), remaining=float(fid + 1))
    assert len(slots) == 5
    assert [slots.remaining_of(fid) for fid in range(5)] == [
        1.0, 2.0, 3.0, 4.0, 5.0,
    ]


def test_slots_advance_matches_scalar_arithmetic():
    slots = FlowSlots()
    slots.admit(1, size=100.0, remaining=100.0)
    slots.admit(2, size=30.0, remaining=30.0)
    slots.set_rate(1, 7.0, now=0.0)
    slots.set_rate(2, 3.0, now=0.0)
    dt = 2.5
    slots.advance(dt)
    # Bit-identical to the scalar bookkeeping, not merely close.
    assert slots.remaining_of(1) == max(0.0, 100.0 - 7.0 * dt)
    assert slots.remaining_of(2) == max(0.0, 30.0 - 3.0 * dt)
    slots.advance(1e9)
    assert slots.remaining_of(1) == 0.0  # clamped, never negative


def test_slots_finish_ordering():
    slots = FlowSlots()
    slots.admit(1, size=100.0, remaining=100.0)
    slots.admit(2, size=10.0, remaining=10.0)
    assert slots.peek_finish() is None  # no rates yet
    slots.set_rate(1, 10.0, now=5.0)
    slots.set_rate(2, 10.0, now=5.0)
    assert slots.peek_finish() == 6.0  # flow 2: 5.0 + 10/10
    assert slots.next_finished_fid() == 2
    slots.drop(2)
    assert slots.peek_finish() == 15.0
    assert slots.next_finished_fid() == 1


def test_slots_drained_fids_filters_stale_slots():
    slots = FlowSlots()
    slots.admit(1, size=100.0, remaining=100.0)
    slots.admit(2, size=10.0, remaining=10.0)
    slots.set_rate(1, 1.0, now=0.0)
    slots.set_rate(2, 10.0, now=0.0)
    slots.advance(1.0)  # flow 2 hits zero
    drained = slots.drained_fids(time_quantum=1e-12, eps=1e-9)
    assert drained == [2]
    # A freed slot's zero remaining must not resurface as drained.
    slots.drop(2)
    assert slots.drained_fids(time_quantum=1e-12, eps=1e-9) == []


def test_zero_byte_transfer_completes_under_vectorized():
    from repro.des import Environment
    from repro.network import FlowNetwork
    from repro.network.flownet import Link

    env = Environment()
    net = FlowNetwork(env)
    done = net.transfer(0.0, [Link("l", bandwidth=100.0)])
    env.run(until=done)
    assert done.processed


# ----------------------------------------------------------------------
# End-to-end determinism
# ----------------------------------------------------------------------
def _tiny_genomes(allocator):
    from repro.scenarios import run_genomes

    return run_genomes(
        system="cori",
        input_fraction=0.5,
        n_chromosomes=2,
        n_compute=2,
        network_allocator=allocator,
    ).makespan


#: ``_tiny_genomes`` makespan recorded from the global oracle path the
#: flow network used to run by default.
TINY_GENOMES_ORACLE_PATH_MAKESPAN = 166.64084210526318


def test_vectorized_run_is_deterministic_and_matches_other_allocators():
    first = _tiny_genomes("max-min")
    second = _tiny_genomes("max-min")
    assert first == second  # bit-identical event stream across runs
    assert first == _tiny_genomes(max_min_fair_rates)
    assert first == TINY_GENOMES_ORACLE_PATH_MAKESPAN


def test_vectorized_sweep_identical_serial_and_parallel():
    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec.cartesian(
        "fig13",
        "repro.experiments.fig13:compute_point",
        axes={"fraction": [0.0, 0.5, 1.0]},
        constants={"system": "cori", "n_chromosomes": 2},
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=4)
    assert serial.values() == parallel.values()
    assert len(serial.values()) == 3
