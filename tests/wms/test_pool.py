"""Tests for the policy-queued pool behind the core allocator and the
BB provisioner: validation, ordering, backfill through the pool, the
ledger invariants, and the plan coordinator's fail-fast checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import des
from repro.compute import AllocationError, ComputeService, CoreAllocator
from repro.platform import Platform
from repro.platform.presets import cori_spec
from repro.storage.base import InsufficientStorage
from repro.storage.provisioning import BBProvisioner
from repro.wms.policies import (
    UNKNOWN,
    PlanCoordinator,
    PolicyPool,
    policy_names,
    walltime_estimate,
)

GRANULARITY = 1.6e12  # 4 granules per 6.4 TB Cori BB node -> 8-granule pool


def _pool(env, total=4, policy="fifo"):
    return PolicyPool(
        env, total, policy, lambda request, grant_id: grant_id, "units",
        AllocationError,
    )


def _job(env, allocator, log, name, cores, duration, arrival=0.0,
         estimate=None):
    def body():
        yield env.timeout(arrival)
        allocation = yield allocator.request(cores, task=name,
                                             estimate=estimate)
        log.append((name, "start", env.now))
        yield env.timeout(duration)
        allocation.release()
        log.append((name, "end", env.now))

    return env.process(body())


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_pool_amount_validation():
    env = des.Environment()
    pool = _pool(env)
    for amount in (0, -1):
        with pytest.raises(ValueError, match="units must be positive"):
            pool.enqueue(amount)
        with pytest.raises(ValueError, match="units must be positive"):
            pool.claim(amount)
    assert not pool.queue and pool.free == 4


def test_owners_require_a_non_empty_pool():
    env = des.Environment()
    with pytest.raises(ValueError, match="total_cores must be positive"):
        CoreAllocator(env, 0)
    platform = Platform(env, cori_spec(n_compute=1, n_bb_nodes=1))
    with pytest.raises(ValueError, match="no BB nodes"):
        BBProvisioner(platform, granularity=GRANULARITY, bb_hosts=[])


def test_oversized_request_rejected_at_enqueue():
    env = des.Environment()
    with pytest.raises(AllocationError, match="requested 5 cores"):
        CoreAllocator(env, 4).request(5)
    platform = Platform(env, cori_spec(n_compute=1, n_bb_nodes=2))
    prov = BBProvisioner(platform, granularity=GRANULARITY)
    with pytest.raises(InsufficientStorage, match="requested 9 granules"):
        prov.request(9 * GRANULARITY)
    assert prov.queue_length == 0


def test_walltime_estimate_accepts_none_and_finite_non_negative():
    assert walltime_estimate(None) == UNKNOWN
    assert walltime_estimate(0) == 0.0
    assert walltime_estimate(2.5) == 2.5


def _core_owner():
    env = des.Environment()
    allocator = CoreAllocator(env, 4)
    return allocator.request, allocator.claim, 2


def _bb_owner():
    env = des.Environment()
    platform = Platform(env, cori_spec(n_compute=1, n_bb_nodes=2))
    prov = BBProvisioner(platform, granularity=GRANULARITY)
    return prov.request, prov.claim, 2 * GRANULARITY


@pytest.mark.parametrize("owner", [_core_owner, _bb_owner],
                         ids=["cores", "granules"])
@pytest.mark.parametrize("estimate", [math.nan, -5.0, math.inf, -math.inf])
def test_bad_estimates_rejected_by_both_allocators(owner, estimate):
    request, claim, amount = owner()
    with pytest.raises(ValueError, match="estimate"):
        request(amount, estimate=estimate)
    with pytest.raises(ValueError, match="estimate"):
        claim(amount, estimate=estimate)
    # Nothing was booked: a good request is still granted at once.
    assert request(amount, estimate=1.0).triggered


# ----------------------------------------------------------------------
# Granting through the pool
# ----------------------------------------------------------------------
def test_grant_and_release_restore_the_pool():
    env = des.Environment()
    allocator = CoreAllocator(env, 4)
    log = []
    done = _job(env, allocator, log, "j", 2, 10.0)
    env.run(until=done)
    assert log == [("j", "start", 0), ("j", "end", 10)]
    assert allocator.free_cores == 4
    assert not allocator.pool.running


def test_fifo_ordering():
    env = des.Environment()
    allocator = CoreAllocator(env, 4)
    log = []
    _job(env, allocator, log, "first", 4, 10.0)
    _job(env, allocator, log, "second", 4, 10.0)
    env.run()
    assert log == [
        ("first", "start", 0),
        ("first", "end", 10),
        ("second", "start", 10),
        ("second", "end", 20),
    ]


def test_fitting_requests_granted_in_one_instant():
    env = des.Environment()
    allocator = CoreAllocator(env, 4)
    log = []
    _job(env, allocator, log, "a", 2, 10.0)
    _job(env, allocator, log, "b", 2, 10.0)
    env.run()
    starts = {name: t for name, what, t in log if what == "start"}
    assert starts == {"a": 0, "b": 0}


def test_easy_backfill_small_request_jumps_queue():
    """The head needs the whole pool; a small short request backfills
    into the idle units without delaying the head."""
    env = des.Environment()
    allocator = CoreAllocator(env, 4, policy="easy-backfill")
    log = []
    _job(env, allocator, log, "runner", 2, 20.0, estimate=20.0)
    _job(env, allocator, log, "head", 4, 10.0, arrival=0.1, estimate=50.0)
    _job(env, allocator, log, "small", 2, 10.0, arrival=0.2, estimate=10.0)
    env.run()
    starts = {name: t for name, what, t in log if what == "start"}
    assert starts == {"runner": 0.0, "small": 0.2, "head": 20.0}


def test_easy_backfill_never_delays_head():
    """A long backfill candidate that would delay the head must wait."""
    env = des.Environment()
    allocator = CoreAllocator(env, 4, policy="easy-backfill")
    log = []
    _job(env, allocator, log, "runner", 2, 20.0, estimate=20.0)
    _job(env, allocator, log, "head", 4, 10.0, arrival=0.1, estimate=50.0)
    _job(env, allocator, log, "long", 2, 30.0, arrival=0.2, estimate=30.0)
    env.run()
    starts = {name: t for name, what, t in log if what == "start"}
    assert starts["head"] == 20.0
    assert starts["long"] >= 30.0  # after the head finished


def test_queue_and_running_introspection():
    env = des.Environment()
    pool = _pool(env)
    first = pool.enqueue(4, "a", estimate=10.0)
    second = pool.enqueue(4, "b")
    assert first.triggered and not second.triggered
    grant_id = first.value
    assert [r.tag for r in pool.queue] == ["b"]
    assert [g.amount for g in pool.running.values()] == [4]
    assert pool.running[grant_id].deadline == 10.0
    # A claim never overtakes the queue, even once units are free.
    pool.release(4, grant_id)
    assert pool.claim(1) is None
    pool.dispatch()
    assert second.triggered and not pool.queue
    assert [g.deadline for g in pool.running.values()] == [UNKNOWN]


def test_claim_only_when_queue_empty():
    env = des.Environment()
    pool = _pool(env)
    grant_id = pool.claim(3, estimate=2.0)
    assert grant_id is not None and pool.free == 1
    assert pool.claim(2) is None  # does not fit
    blocked = pool.enqueue(2, "q")
    assert not blocked.triggered
    assert pool.claim(1) is None  # fits, but someone is queued


def test_over_release_raises_the_owners_error():
    env = des.Environment()
    platform = Platform(env, cori_spec(n_compute=1, n_bb_nodes=1))
    prov = BBProvisioner(platform, granularity=GRANULARITY)
    lease = prov.claim(GRANULARITY)
    lease.release()
    with pytest.raises(InsufficientStorage, match="double release"):
        prov._release(lease)


def test_provisioner_carves_round_robin_over_nodes():
    env = des.Environment()
    platform = Platform(env, cori_spec(n_compute=1, n_bb_nodes=2))
    prov = BBProvisioner(platform, granularity=GRANULARITY)
    first = prov.claim(3 * GRANULARITY)
    second = prov.claim(5 * GRANULARITY)
    assert first.per_host_granules == {"bb0": 2, "bb1": 1}
    assert second.per_host_granules == {"bb0": 2, "bb1": 3}
    assert prov.free_granules == 0
    second.release()
    first.release()
    assert prov.free_granules == prov.total_granules


# ----------------------------------------------------------------------
# Ledger properties
# ----------------------------------------------------------------------
@st.composite
def request_mixes(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    return [
        (
            draw(st.integers(min_value=1, max_value=8)),        # cores
            draw(st.floats(min_value=0.5, max_value=20.0)),     # runtime
            draw(st.floats(min_value=0.0, max_value=10.0)),     # arrival
            draw(st.one_of(st.none(), st.floats(0.1, 30.0))),   # estimate
        )
        for _ in range(n)
    ]


def _run_mix(mix, policy):
    env = des.Environment()
    allocator = CoreAllocator(env, 8, policy=policy)
    usage = []
    log = []
    for i, (cores, runtime, arrival, estimate) in enumerate(mix):
        def body(cores=cores, runtime=runtime, arrival=arrival,
                 estimate=estimate, name=f"j{i}"):
            yield env.timeout(arrival)
            allocation = yield allocator.request(cores, task=name,
                                                 estimate=estimate)
            usage.append(allocator.used_cores)
            log.append(name)
            yield env.timeout(runtime)
            allocation.release()

        env.process(body())
    env.run()
    return allocator, usage, log


@settings(max_examples=40, deadline=None)
@given(mix=request_mixes(), policy=st.sampled_from(policy_names()))
def test_every_request_is_granted_and_released(mix, policy):
    allocator, _, log = _run_mix(mix, policy)
    assert sorted(log) == sorted(f"j{i}" for i in range(len(mix)))
    assert allocator.queue_length == 0
    assert not allocator.pool.running
    assert allocator.free_cores == 8


@settings(max_examples=40, deadline=None)
@given(mix=request_mixes(), policy=st.sampled_from(policy_names()))
def test_pool_never_oversubscribed(mix, policy):
    _, usage, _ = _run_mix(mix, policy)
    assert all(0 < used <= 8 for used in usage)


# ----------------------------------------------------------------------
# PlanCoordinator: impossible requests fail fast
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_plan():
    env = des.Environment()
    platform = Platform(env, cori_spec(n_compute=1, n_bb_nodes=1))
    compute = ComputeService(platform, ["cn0"])
    prov = BBProvisioner(platform)
    return env, compute, prov, PlanCoordinator(compute, prov)


def test_plan_rejects_more_cores_than_the_host(tiny_plan):
    env, compute, prov, coord = tiny_plan
    with pytest.raises(AllocationError):
        coord.request("cn0", 10**6, 1e9, job="too-wide")
    assert not coord._pending


def test_plan_rejects_more_granules_than_the_pool(tiny_plan):
    env, compute, prov, coord = tiny_plan
    with pytest.raises(InsufficientStorage):
        coord.request("cn0", 1, 1e20, job="too-big")
    assert not coord._pending


def test_plan_rejects_bad_estimates(tiny_plan):
    env, compute, prov, coord = tiny_plan
    with pytest.raises(ValueError, match="estimate"):
        coord.request("cn0", 1, 1e9, job="nan", estimate=math.nan)
    assert not coord._pending
