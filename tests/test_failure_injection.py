"""Failure-injection tests: the system fails loudly and precisely.

A simulator that silently absorbs misconfiguration produces wrong
science; these tests pin down the failure behaviour of each layer.
"""

import pytest

from repro import des
from repro.compute import AllocationError, ComputeService
from repro.platform import Platform
from repro.platform.presets import TABLE_I, cori_spec
from repro.platform.units import GB, MB
from repro.storage import (
    BBMode,
    InsufficientStorage,
    ParallelFileSystem,
    SharedBurstBuffer,
)
from repro.wms import AllBB, EngineConfig, WorkflowEngine
from repro.workflow import File, Task, Workflow

SPEED = TABLE_I["cori"]["core_speed"]


def build(workflow, bb_capacity=None, config=None):
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=1, n_bb_nodes=1))
    bb = SharedBurstBuffer(plat, ["bb0"], BBMode.PRIVATE, owner_host="cn0")
    if bb_capacity is not None:
        bb.capacity = bb_capacity
    engine = WorkflowEngine(
        plat,
        workflow,
        ComputeService(plat, ["cn0"]),
        ParallelFileSystem(plat),
        bb_for_host=lambda h: bb,
        placement=AllBB(),
        host_assignment=lambda t: "cn0",
        config=config,
    )
    return engine


def test_bb_overflow_mid_workflow_raises():
    """Writing outputs beyond the BB capacity aborts the run with a
    precise error instead of silently spilling."""
    tasks = [
        Task(
            f"t{i}",
            flops=SPEED,
            outputs=(File(f"big{i}", 600 * MB),),
            cores=1,
        )
        for i in range(3)
    ]
    engine = build(Workflow("overflow", tasks), bb_capacity=1 * GB)
    with pytest.raises(InsufficientStorage, match="cannot store"):
        engine.run()


def test_eviction_rescues_tight_capacity():
    """With eviction enabled, consumed intermediates leave the BB and a
    chain fits in a buffer smaller than its total data."""
    previous = File("c0", 600 * MB)
    tasks = [Task("t0", flops=SPEED, outputs=(previous,), cores=1)]
    for i in range(1, 4):
        out = File(f"c{i}", 600 * MB)
        tasks.append(
            Task(f"t{i}", flops=SPEED, inputs=(previous,), outputs=(out,), cores=1)
        )
        previous = out
    wf = Workflow("chain", tasks)

    # Without eviction: 4 × 600 MB > 1.4 GB → overflow.
    with pytest.raises(InsufficientStorage):
        build(wf, bb_capacity=1.4 * GB).run()

    # With eviction the same buffer suffices (≤ 2 files alive at once).
    engine = build(
        wf,
        bb_capacity=1.4 * GB,
        config=EngineConfig(evict_consumed_intermediates=True),
    )
    trace = engine.run()
    assert len(trace.records) == 4


def test_missing_route_raises_key_error():
    from repro.platform.spec import DiskSpec, HostSpec, PlatformSpec

    env = des.Environment()
    spec = PlatformSpec(
        name="isolated",
        hosts=(
            HostSpec(name="cn0", cores=4, core_speed=SPEED),
            HostSpec(
                name="pfs",
                cores=1,
                core_speed=SPEED,
                disks=(DiskSpec("lustre", read_bandwidth=1e8, write_bandwidth=1e8),),
            ),
        ),
    )
    plat = Platform(env, spec)
    pfs = ParallelFileSystem(plat)
    with pytest.raises(KeyError, match="no route"):
        env.run(until=pfs.write(File("f", MB), src_host="cn0"))


def test_task_larger_than_any_host_fails_fast():
    env = des.Environment()
    plat = Platform(env, cori_spec())
    svc = ComputeService(plat, ["cn0"])
    with pytest.raises(AllocationError):
        svc.allocator("cn0").request(33)


def test_engine_surfaces_unknown_host_assignment():
    wf = Workflow("w", [Task("t", flops=SPEED, cores=1)])
    env = des.Environment()
    plat = Platform(env, cori_spec())
    engine = WorkflowEngine(
        plat,
        wf,
        ComputeService(plat, ["cn0"]),
        ParallelFileSystem(plat),
        host_assignment=lambda t: "ghost",
    )
    with pytest.raises(KeyError, match="ghost"):
        engine.run()


def test_workflow_consuming_nonexistent_file_fails_loudly():
    """A task reading a file nobody provides aborts with the file name."""
    orphan = File("never-produced", MB)
    consumer = Task("c", flops=SPEED, inputs=(orphan,), cores=1)
    # No producer, and the engine registers external inputs on the PFS —
    # but here we disable that by removing the file from the PFS first.
    engine = build(Workflow("w", [consumer]))
    engine.pfs.delete(orphan)  # sabotage after construction

    # File still gets registered during _initialize_files, so sabotage
    # the registry too to simulate a lost file.
    trace_error = None
    engine.registry.unregister(orphan, engine.pfs)
    try:
        engine._initialize_files = lambda: None  # skip re-registration
        engine.run()
    except Exception as exc:  # noqa: BLE001 - asserting the message below
        trace_error = exc
    assert trace_error is not None
    assert "never-produced" in str(trace_error)


# ----------------------------------------------------------------------
# Failing transfers reach whoever waits on them
# ----------------------------------------------------------------------
class TransferLost(Exception):
    """Stands in for any failure of a flow's completion event."""


def _failing_transfer(env, exc, delay=0.5):
    """A transfer event that fails ``delay`` seconds from now."""
    event = env.event()
    env.schedule_callback(lambda _e: event.fail(exc), delay)
    return event


def _catch(env, event):
    """Wait on ``event`` from a process; return the exceptions caught."""
    caught = []

    def waiter():
        try:
            yield event
        except TransferLost as exc:
            caught.append(exc)

    env.process(waiter())
    # An un-defused failure anywhere would re-raise out of run().
    env.run()
    return caught


def test_staging_failure_reaches_the_waiter_and_registers_nothing():
    from repro.storage import FileRegistry, stage_file

    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=1, n_bb_nodes=1))
    pfs = ParallelFileSystem(plat)
    bb = SharedBurstBuffer(plat, ["bb0"], BBMode.PRIVATE, owner_host="cn0")
    f = File("in", 10 * MB)
    pfs.add_file(f)
    registry = FileRegistry()
    lost = TransferLost("stage")
    plat.transfer_between_disks = lambda *a, **k: _failing_transfer(env, lost)

    caught = _catch(env, stage_file(f, pfs, bb, registry=registry))

    assert len(caught) == 1 and caught[0] is lost
    assert not registry.has(f)


@pytest.mark.parametrize("write", [True, False], ids=["write", "read"])
def test_striped_chunk_failure_fails_the_operation(write):
    """One lost chunk fails the striped operation with that exception;
    the other chunk still lands, and nothing is left un-defused."""
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=1, n_bb_nodes=2))
    bb = SharedBurstBuffer(plat, ["bb0", "bb1"], BBMode.STRIPED)
    f = File("striped", 20 * MB)
    lost = TransferLost("chunk")
    name = "write_to_disk" if write else "read_from_disk"
    real = getattr(plat, name)
    landed = []

    def move(size, disk_host, *args, **kwargs):
        if disk_host == "bb1":
            return _failing_transfer(env, lost)
        event = real(size, disk_host, *args, **kwargs)
        event.callbacks.append(lambda e: landed.append(disk_host))
        return event

    setattr(plat, name, move)
    if write:
        operation = bb.write(f, "cn0")
    else:
        bb.add_file(f)
        operation = bb.read(f, "cn0")

    caught = _catch(env, operation)

    assert len(caught) == 1 and caught[0] is lost
    assert landed == ["bb0"]


def test_read_failure_fails_the_task_and_logs_no_io():
    """A lost input read fails the reading task with the original
    exception; only the read that landed is logged."""
    good, bad = File("good", 10 * MB), File("bad", 10 * MB)
    task = Task("t", flops=SPEED, inputs=(good, bad), cores=1)
    env = des.Environment()
    plat = Platform(env, cori_spec(n_compute=1, n_bb_nodes=1))
    pfs = ParallelFileSystem(plat)
    engine = WorkflowEngine(
        plat, Workflow("w", [task]), ComputeService(plat, ["cn0"]), pfs,
        host_assignment=lambda t: "cn0",
    )
    lost = TransferLost("read")
    real = pfs._read_flow
    pfs._read_flow = lambda file, host: (
        _failing_transfer(env, lost) if file is bad else real(file, host)
    )

    with pytest.raises(TransferLost) as info:
        engine.run()
    assert info.value is lost
    env.run()  # drains the rest: no second, un-defused failure
    assert [op.file for op in engine.trace.io_operations] == ["good"]
    assert "t" not in engine.trace.records
