"""WRENCH-style simulator: files in, trace out.

The paper (Section IV-A): "Our WRENCH simulator takes as input a
description of a workflow and a description of an execution platform ...
the simulator simulates the execution of the workflow and outputs a
time-stamped event trace."

:func:`run_workflow` is the one place a workflow run is assembled: the
environment, the platform, the PFS, the burst buffers the host roles
call for, the compute service and the workflow engine.  Every workflow
run goes through it — :class:`Simulator` (and so :func:`repro.simulate`
and ``repro-simulate``) as well as the scenario builders of
:mod:`repro.scenarios`.

:class:`Simulator` is the files-in/trace-out entry point: give it a
platform description (a :class:`~repro.platform.PlatformSpec` or a JSON
file), a workflow (a :class:`~repro.workflow.Workflow` or a WfCommons
JSON trace) and a :class:`~repro.config.Config`, and run.  The CLI
wrapper is ``repro-simulate``.  Most callers want the one-call
:func:`repro.simulate` facade instead of instantiating this class.

Storage roles come from each host's explicit
:class:`~repro.platform.HostRole` (``compute``, ``shared_bb``,
``local_bb``, ``pfs``); a host that declares none is rejected.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro import des
from repro.compute import ComputeService
from repro.config import Config
from repro.emulation.calibration import (
    EmulationEffects,
    TierEffects,
    tier_latencies,
)
from repro.emulation.compute import EmulatedComputeService
from repro.emulation.trials import interference_factor
from repro.network import DEFAULT_ALLOCATOR, allocator_names
from repro.obs import Observer
from repro.platform import HostRole, Platform, PlatformSpec, platform_from_json
from repro.storage import (
    BBMode,
    OnNodeBurstBuffer,
    ParallelFileSystem,
    SharedBurstBuffer,
    StorageService,
)
from repro.traces.events import ExecutionTrace
from repro.wms import EngineConfig, FractionPlacement, WorkflowEngine
from repro.wms.policies import DEFAULT_POLICY, policy_names
from repro.workflow.model import Workflow
from repro.workflow.wfformat import workflow_from_wfformat


@dataclass
class ScenarioResult:
    """Everything a harness needs from one simulated execution.

    ``engine``/``workflow`` are ``None`` for scenarios that drive the
    allocators directly instead of executing a workflow DAG (the
    contended multi-job BB scenario).
    """

    trace: ExecutionTrace
    platform: Platform
    engine: Optional[WorkflowEngine]
    workflow: Optional[Workflow]

    @property
    def makespan(self) -> float:
        return self.trace.makespan

    def mean_duration(self, group: str) -> float:
        return self.trace.group_mean_duration(group)

    @property
    def pipeline_makespan(self) -> float:
        """Makespan of the compute pipelines, excluding stage-in.

        Figures 5, 10, and 11 report task/pipeline times with staging
        done beforehand; this is the matching quantity.
        """
        records = [
            r
            for r in self.trace.records.values()
            if r.group not in ("stage_in",)
        ]
        if not records:
            return 0.0
        start = min(r.start for r in records)
        end = max(r.end for r in records)
        return end - start


@dataclass(frozen=True)
class _Roles:
    """A platform's hosts, grouped by declared role."""

    compute: list[str]
    shared_bb: list[str]
    #: Compute host → the ``local_bb`` host attached to it.
    local_bb: dict[str, str]
    pfs: str


def _host_roles(spec: PlatformSpec) -> _Roles:
    """Group ``spec``'s hosts by role; reject descriptions missing one."""
    for h in spec.hosts:
        if h.role is None:
            raise ValueError(
                f"host {h.name!r} declares no role; declare "
                "role=compute|shared_bb|local_bb|pfs"
            )
    compute = [h.name for h in spec.hosts_with_role(HostRole.COMPUTE)]
    if not compute:
        raise ValueError("platform has no compute hosts (role=compute)")
    local_bb: dict[str, str] = {}
    for h in spec.hosts_with_role(HostRole.LOCAL_BB):
        if h.attached_to is None:
            raise ValueError(
                f"local_bb host {h.name!r} declares no attached_to "
                "compute host"
            )
        local_bb[h.attached_to] = h.name
    pfs = spec.hosts_with_role(HostRole.PFS)
    if not pfs:
        raise ValueError("platform has no PFS host (role=pfs)")
    return _Roles(
        compute=compute,
        shared_bb=[h.name for h in spec.hosts_with_role(HostRole.SHARED_BB)],
        local_bb=local_bb,
        pfs=pfs[0].name,
    )


def _noisy_tier(
    tier: TierEffects, rng: Optional[np.random.Generator]
) -> TierEffects:
    """Apply one trial's interference to a tier's knobs."""
    if rng is None:
        return tier
    factor = interference_factor(rng, tier.interference_sigma)
    return replace(
        tier,
        read_latency=tier.read_latency * factor,
        write_latency=tier.write_latency * factor,
        stream_cap=tier.stream_cap / factor,
        metadata_service_time=tier.metadata_service_time * factor,
    )


def run_workflow(
    spec: PlatformSpec,
    workflow: Workflow,
    config: Config,
    *,
    observer: Optional[Observer] = None,
    effects: Optional[EmulationEffects] = None,
    rng: Optional[np.random.Generator] = None,
    engine: Optional[EngineConfig] = None,
) -> ScenarioResult:
    """Assemble one workflow run from host roles and ``config``; run it.

    Burst buffers follow the host roles.  A compute host with an
    attached ``local_bb`` host gets its own on-node BB.  Otherwise the
    ``shared_bb`` hosts back one striped allocation shared by the whole
    run, or one owner-pinned private allocation per compute host.

    ``effects`` runs the emulated machine instead of the paper's simple
    model: each storage service takes its emulated tier (``pfs``,
    ``bb_private``, ``bb_striped`` or ``bb_onnode``) and compute follows
    the emulated ground truth.  With ``rng``, each service perturbs its
    tier with one draw, in creation order: the PFS, then each BB on
    first use (a striped allocation is created up front).
    """
    roles = _host_roles(spec)
    placement = FractionPlacement(
        input_fraction=config.input_fraction,
        intermediate_fraction=config.intermediate_fraction,
        output_fraction=config.output_fraction,
    )
    engine = engine or EngineConfig()
    private = config.bb_mode == BBMode.PRIVATE

    env = des.Environment()
    if observer is not None:
        observer.attach(env)
    platform = Platform(env, spec, allocator=config.network_allocator)

    def tier_knobs(tier: Optional[TierEffects]) -> dict[str, Any]:
        """Service keyword arguments of one emulated tier."""
        if tier is None:
            return {}
        tier = _noisy_tier(tier, rng)
        return {
            "latencies": tier_latencies(tier),
            "max_stream_rate": tier.stream_cap,
            "metadata_service_time": tier.metadata_service_time,
        }

    pfs = ParallelFileSystem(
        platform, roles.pfs, **tier_knobs(effects.pfs if effects else None)
    )

    def new_bb(host: Optional[str]) -> StorageService:
        if host in roles.local_bb:
            knobs = tier_knobs(effects.bb_tier(None) if effects else None)
            knobs.pop("metadata_service_time", None)  # no metadata server
            return OnNodeBurstBuffer(platform, roles.local_bb[host], **knobs)
        knobs = tier_knobs(effects.bb_tier(config.bb_mode) if effects else None)
        if effects:
            knobs["per_stripe_latency"] = effects.per_stripe_latency
        return SharedBurstBuffer(
            platform, roles.shared_bb, config.bb_mode, owner_host=host, **knobs
        )

    services: dict[Optional[str], StorageService] = {}
    if roles.shared_bb and not private:
        shared = services[None] = new_bb(None)
        if (
            effects
            and effects.striped_anomaly_low
            <= config.input_fraction
            < effects.striped_anomaly_high
        ):
            # The reproducible Figure 4 anomaly: staging into a striped
            # allocation degrades in this fraction band.
            engine = replace(
                engine,
                stage_extra_latency=(
                    shared.latencies.write
                    + shared.metadata_service_time
                    + shared.per_stripe_latency
                )
                * (effects.striped_anomaly_factor - 1.0),
            )

    def bb_for_host(host: str) -> Optional[StorageService]:
        if host in roles.local_bb or (roles.shared_bb and private):
            key: Optional[str] = host
        elif roles.shared_bb:
            key = None
        else:
            return None
        if key not in services:
            services[key] = new_bb(key)
        return services[key]

    if effects:
        compute: ComputeService = EmulatedComputeService(
            platform,
            roles.compute,
            effects=effects,
            queue_policy=config.queue_policy,
        )
    else:
        compute = ComputeService(
            platform,
            roles.compute,
            use_amdahl_alpha=config.use_amdahl_alpha,
            queue_policy=config.queue_policy,
        )
    if observer is not None and config.queue_policy != DEFAULT_POLICY:
        # Structured provenance for non-default disciplines (the
        # manifest always carries queue_policy; default runs keep
        # their historical event stream byte-identical).
        observer.log_event("wms", "queue_policy", policy=config.queue_policy)

    wms = WorkflowEngine(
        platform,
        workflow,
        compute,
        pfs,
        bb_for_host=bb_for_host if roles.shared_bb or roles.local_bb else None,
        placement=placement,
        config=engine,
    )
    trace = wms.run()
    return ScenarioResult(
        trace=trace, platform=platform, engine=wms, workflow=workflow
    )


class Simulator:
    """One-shot workflow simulation on a described platform.

    ``config`` is anything :meth:`repro.Config.from_any` accepts; the
    platform's host roles are checked here, so a description with a
    host that declares no role fails at construction.
    """

    def __init__(
        self,
        platform: "PlatformSpec | str | Path",
        workflow: "Workflow | str | Path",
        config: "Config | Mapping[str, Any] | str | Path | None" = None,
        observer: Optional[Observer] = None,
    ) -> None:
        if not isinstance(platform, PlatformSpec):
            platform = platform_from_json(platform)
        if not isinstance(workflow, Workflow):
            workflow = workflow_from_wfformat(workflow)
        _host_roles(platform)
        self.spec = platform
        self.workflow = workflow
        self.config = Config.from_any(config)
        #: Optional telemetry sink; attached to the run's environment
        #: before any service is built, so every sample is captured.
        self.observer = observer

    def run(self) -> ExecutionTrace:
        """Simulate the workflow execution; returns the event trace."""
        return run_workflow(
            self.spec, self.workflow, self.config, observer=self.observer
        ).trace

    def export_telemetry(
        self,
        directory: "str | Path",
        trace: Optional[ExecutionTrace] = None,
        profile=None,
    ) -> Path:
        """Write this run's telemetry (manifest, Chrome trace, CSVs).

        Requires the simulator to have been constructed with an
        :class:`~repro.obs.Observer` and :meth:`run` to have completed;
        ``trace`` enriches the manifest with result figures.  ``profile``
        (a :class:`~repro.profile.Profile`) additionally writes
        ``profile.json``/``profile.folded`` and annotates the Perfetto
        trace with the critical-path lane.
        """
        from repro.obs import build_manifest, export_run

        if self.observer is None:
            raise ValueError("simulator was constructed without an observer")
        manifest = build_manifest(
            config=self.config,
            platform=self.spec,
            workflow=self.workflow,
            trace=trace,
            observer=self.observer,
        )
        return export_run(
            self.observer, directory, manifest=manifest, profile=profile
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: simulate a workflow JSON on a platform JSON."""
    parser = argparse.ArgumentParser(
        prog="repro-simulate",
        description="Simulate a WfCommons workflow on a JSON-described "
        "platform with burst buffers.",
    )
    parser.add_argument("--platform", required=True, help="platform JSON file")
    parser.add_argument("--workflow", required=True, help="WfCommons JSON file")
    parser.add_argument(
        "--mode",
        choices=[m.value for m in BBMode],
        default=BBMode.STRIPED.value,
        help="shared burst buffer allocation mode",
    )
    parser.add_argument("--input-fraction", type=float, default=1.0)
    parser.add_argument("--intermediate-fraction", type=float, default=1.0)
    parser.add_argument("--output-fraction", type=float, default=0.0)
    parser.add_argument(
        "--network-allocator",
        choices=allocator_names(),
        default=DEFAULT_ALLOCATOR,
        help="bandwidth-sharing discipline for the flow network",
    )
    parser.add_argument(
        "--queue-policy",
        choices=policy_names(),
        default=DEFAULT_POLICY,
        help="queueing discipline for core allocation (fifo = strict "
        "FIFO, the paper's model; backfill/plan use walltime estimates)",
    )
    parser.add_argument("-o", "--output", help="write the trace JSON here")
    parser.add_argument(
        "--gantt", action="store_true", help="print an ASCII Gantt chart"
    )
    parser.add_argument(
        "--obs-dir",
        help="export run telemetry (manifest, Perfetto trace, metric CSVs) "
        "into this directory",
    )
    parser.add_argument(
        "--obs-metrics",
        help="comma-separated metric groups to collect "
        "(storage,network,compute,engine,des); default: all",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the critical-path makespan attribution; with "
        "--obs-dir, also write profile.json + profile.folded and "
        "annotate the Perfetto trace",
    )
    parser.add_argument(
        "--live",
        help="stream live telemetry into this directory while the run "
        "executes (tail with `repro-obs watch`)",
    )
    parser.add_argument(
        "--monitors",
        action="store_true",
        help="run the online invariant monitors (BB occupancy, link "
        "capacity, clock monotonicity, lease balance); a violation "
        "aborts the run with the offending event chain",
    )
    args = parser.parse_args(argv)

    groups = (
        tuple(g.strip() for g in args.obs_metrics.split(",") if g.strip())
        if args.obs_metrics
        else None
    )
    config = Config(
        bb_mode=BBMode(args.mode),
        input_fraction=args.input_fraction,
        intermediate_fraction=args.intermediate_fraction,
        output_fraction=args.output_fraction,
        network_allocator=args.network_allocator,
        queue_policy=args.queue_policy,
        metrics=groups,
        monitors=args.monitors,
        live_dir=args.live,
        obs_dir=args.obs_dir,
        profile=args.profile,
    )
    observer = config.make_observer()

    simulator = Simulator(
        Path(args.platform), Path(args.workflow), config, observer=observer
    )
    trace = simulator.run()
    print(f"workflow: {trace.workflow_name}")
    print(f"tasks:    {len(trace.records)}")
    print(f"makespan: {trace.makespan:.3f}s")
    if args.gantt:
        from repro.traces.gantt import render_gantt

        print()
        print(render_gantt(trace))
    if args.output:
        trace.to_json(args.output)
        print(f"trace written to {args.output}")
    profile = None
    if args.profile:
        from repro.profile import build_profile

        profile = build_profile(trace, observer=observer)
        print()
        print("critical-path attribution (sums to the makespan):")
        for resource, seconds in sorted(
            profile.attribution.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            share = profile.shares.get(resource, 0.0)
            print(f"  {resource:<28} {seconds:>12.3f}s {100 * share:>6.1f}%")
        print(f"  dominant: {profile.dominant_resource} "
              f"({profile.dominant_class}-bound)")
    if args.obs_dir:
        directory = simulator.export_telemetry(
            args.obs_dir, trace=trace, profile=profile
        )
        print(f"telemetry written to {directory}")
    elif observer is not None and observer.bus is not None:
        observer.bus.close()  # export_run closes it on the --obs-dir path
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
