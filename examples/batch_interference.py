#!/usr/bin/env python3
"""Co-running workflow jobs competing for a shared burst buffer.

The paper carefully *avoided* sharing interference ("we insure no other
jobs are running concurrently on the same node"), yet identified it as
the key source of variability on the shared BB architecture.  Here we
study exactly the scenario the authors had to dodge: two SWarp workflow
jobs on separate nodes of one machine, both hammering the same shared
burst buffer — against the same two jobs run back to back, as the
paper's node-exclusive Slurm/LSF allocations did.

Run:  python examples/batch_interference.py
"""

from repro import des
from repro.compute import ComputeService
from repro.platform import Platform
from repro.platform.presets import bb_node_names, cori_spec
from repro.storage import BBMode, ParallelFileSystem, SharedBurstBuffer
from repro.wms import AllBB, WorkflowEngine
from repro.workflow.swarp import make_swarp


def run_machine(concurrent: bool) -> dict[str, float]:
    """Two 1-node SWarp jobs; side by side or back to back."""
    env = des.Environment()
    platform = Platform(env, cori_spec(n_compute=2, n_bb_nodes=1))
    pfs = ParallelFileSystem(platform)
    shared_bb = SharedBurstBuffer(platform, bb_node_names(1), BBMode.STRIPED)
    runtimes: dict[str, float] = {}

    def job(name: str, host: str):
        engine = WorkflowEngine(
            platform,
            make_swarp(n_pipelines=4, cores_per_task=8, include_stage_in=False),
            ComputeService(platform, [host]),
            pfs,
            bb_for_host=lambda h: shared_bb,
            placement=AllBB(),
            host_assignment=lambda task: host,
        )
        start = env.now
        yield engine.start()
        runtimes[name] = env.now - start

    if concurrent:
        env.process(job("job-A", "cn0"))
        env.process(job("job-B", "cn1"))
    else:
        # Exclusive access: job-B starts only once job-A has finished.
        def back_to_back():
            yield env.process(job("job-A", "cn0"))
            yield env.process(job("job-B", "cn0"))

        env.process(back_to_back())
    env.run()
    return runtimes


def main() -> None:
    exclusive = run_machine(concurrent=False)
    shared = run_machine(concurrent=True)

    print("SWarp job runtimes on a 2-node machine with ONE shared BB node:\n")
    print(f"{'job':8s} {'exclusive':>11s} {'co-running':>11s} {'slowdown':>9s}")
    for name in sorted(exclusive):
        slow = shared[name] / exclusive[name]
        print(f"{name:8s} {exclusive[name]:10.1f}s {shared[name]:10.1f}s "
              f"{slow:8.2f}x")

    print("\nCo-running jobs contend on the BB node's disk and show the")
    print("sharing interference the paper's methodology deliberately")
    print("excluded from its measurements (Section III-D).")


if __name__ == "__main__":
    main()
