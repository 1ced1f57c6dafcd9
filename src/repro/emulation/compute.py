"""Emulated compute service: true alphas, interference, core degradation."""

from __future__ import annotations

from typing import Optional

from repro.compute.service import ComputeService
from repro.emulation.calibration import SWARP_TRUTH, EmulationEffects
from repro.model.equations import amdahl_time
from repro.platform.runtime import Platform
from repro.workflow.model import Task


class EmulatedComputeService(ComputeService):
    """Compute service with the emulator's ground-truth timing.

    Differences from the plain service:

    * tasks run with their *true* Amdahl alpha (from the per-group
      :data:`~repro.emulation.calibration.SWARP_TRUTH` table, else their
      own), not the paper's perfect-speedup assumption;
    * beyond-8-cores degradation for Resample-like tasks (Figure 6);
    * memory-bandwidth interference: compute slows by
      ``1 + c × other_busy_cores`` on the host (drives Figure 7's
      slowdown together with BB contention).
    """

    def __init__(
        self,
        platform: Platform,
        hosts: Optional[list[str]] = None,
        effects: Optional[EmulationEffects] = None,
        queue_policy: "str | object | None" = None,
    ) -> None:
        super().__init__(
            platform, hosts, use_amdahl_alpha=True, queue_policy=queue_policy
        )
        if effects is None:
            raise ValueError("EmulatedComputeService requires effects")
        self.effects = effects

    def compute_time(self, task: Task, host: str, cores: Optional[int] = None) -> float:
        p = cores if cores is not None else task.cores
        p = min(p, self.allocator(host).total_cores)
        speed = self.platform.host(host).core_speed

        truth = SWARP_TRUTH.get(task.group)
        if truth is not None:
            tc1 = truth.flops() / speed
            alpha = truth.alpha
            degrades = truth.degrades_beyond_8
        else:
            tc1 = task.flops / speed
            alpha = task.alpha
            degrades = False

        base = amdahl_time(tc1, p, alpha)
        if degrades and p > 8:
            base *= 1.0 + self.effects.beyond8_degradation * (p - 8)

        # Interference from other tasks busy on the same host right now.
        busy_others = max(0, self.allocator(host).used_cores - p)
        base *= 1.0 + self.effects.compute_interference * busy_others
        return base
