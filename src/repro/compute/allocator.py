"""Multi-core allocation: grant p cores atomically, policy-queued.

The DES :class:`~repro.des.resources.Resource` grants one slot at a
time; task execution needs *p cores at once*.  The allocator keeps a
:class:`~repro.wms.policies.PolicyPool` of cores and grants according
to a named :class:`~repro.wms.policies.QueuePolicy` — strict FIFO by
default (no backfilling, matching the paper's single-node Slurm/LSF
allocations), with EASY/conservative backfilling and plan-based
scheduling available through the queue-policy registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.des import Environment, Event
from repro.obs.waits import WaitCause


class AllocationError(Exception):
    """Raised for impossible requests (more cores than the host has)."""


@dataclass
class CoreAllocation:
    """A granted block of cores; release it when the task finishes."""

    allocator: "CoreAllocator"
    cores: int
    released: bool = False
    #: Key into the pool's running-grant table (backfill policies
    #: project release times from it); ``None`` for hand-built objects.
    grant_id: Optional[int] = None

    def release(self) -> None:
        if not self.released:
            self.released = True
            self.allocator._release(self.cores, grant_id=self.grant_id)

    def __enter__(self) -> "CoreAllocation":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class CoreAllocator:
    """Policy-queued gang allocator over a host's cores.

    A thin owner of a :class:`~repro.wms.policies.PolicyPool` whose
    units are cores: the pool queues, grants and releases; the
    allocator hands out :class:`CoreAllocation` payloads and reports
    telemetry at its decision sites.  ``label`` names the host in
    telemetry (busy-core and queue-depth series); it has no scheduling
    effect.  ``policy`` is a queue-policy registry name, a
    :class:`~repro.wms.policies.QueuePolicy`, or ``None`` for the
    default (``fifo`` — the historical behaviour, byte-identical).
    """

    def __init__(
        self,
        env: Environment,
        total_cores: int,
        label: str = "",
        policy: "str | object | None" = None,
    ) -> None:
        if total_cores <= 0:
            raise ValueError("total_cores must be positive")
        # Lazy: importing repro.wms.policies at module level would pull
        # repro.wms.__init__ -> engine -> compute.service back into this
        # partially-initialized module.
        from repro.wms.policies import PolicyPool

        self.env = env
        self.total_cores = total_cores
        self.label = label
        self.pool = PolicyPool(
            env, total_cores, policy, self._grant_queued, "cores",
            AllocationError,
        )

    @property
    def policy(self):
        return self.pool.policy

    @property
    def free_cores(self) -> int:
        return self.pool.free

    @property
    def used_cores(self) -> int:
        return self.total_cores - self.pool.free

    @property
    def queue_length(self) -> int:
        return len(self.pool.queue)

    def request(
        self, cores: int, task: str = "", estimate: Optional[float] = None
    ) -> Event:
        """Request ``cores`` cores.

        The returned event fires with a :class:`CoreAllocation` once the
        cores are granted.  Requests exceeding the host size fail fast.
        ``task`` names the requester in wait-cause telemetry (a request
        that cannot be granted immediately opens a ``CORES`` wait
        interval for it); it has no scheduling effect.  ``estimate`` is
        the requester's walltime estimate in seconds — backfill policies
        use it to protect earlier requests' projected grant times; the
        default ``fifo`` policy ignores it.
        """
        event = self.pool.enqueue(cores, task, estimate)
        self._notify()
        if not event.triggered:
            # The decision site for core waits: the request just queued
            # behind the policy instead of being granted in this instant.
            obs = self.env.obs
            if obs is not None:
                obs.on_task_blocked(task, WaitCause.CORES, detail=self.label)
                obs.log_event(
                    "compute", "cores_queued",
                    host=self.label, task=task, cores=cores,
                    free=self.pool.free, queue=len(self.pool.queue),
                )
        return event

    def claim(
        self, cores: int, task: str = "", estimate: Optional[float] = None
    ) -> Optional[CoreAllocation]:
        """Grant ``cores`` immediately, or not at all.

        The plan coordinator's primitive: succeeds only when the cores
        are free *and* no request is queued (claims must never overtake
        the policy's queue).  Emits the same grant telemetry as the
        queued path.  Returns ``None`` when the claim cannot be granted
        in this instant.
        """
        grant_id = self.pool.claim(cores, estimate)
        if grant_id is None:
            return None
        allocation = self._granted(cores, task, grant_id)
        self._notify()
        return allocation

    def _release(self, cores: int, grant_id: Optional[int] = None) -> None:
        self.pool.release(cores, grant_id)
        self.pool.dispatch()
        self._notify()

    def _grant_queued(self, request, grant_id: int) -> CoreAllocation:
        """The pool's grant callback for a request that went through the
        queue."""
        obs = self.env.obs
        if obs is not None:
            # Closes the CORES interval opened when the request queued;
            # a same-instant grant never opened one, and the observer
            # ignores unmatched unblocks.
            obs.on_task_unblocked(request.tag, WaitCause.CORES)
        return self._granted(request.amount, request.tag, grant_id)

    def _granted(self, cores: int, task: str, grant_id: int) -> CoreAllocation:
        """Report a booked grant and build its payload."""
        obs = self.env.obs
        if obs is not None:
            obs.log_event(
                "compute", "cores_granted",
                host=self.label, task=task, cores=cores, free=self.pool.free,
            )
        return CoreAllocation(self, cores, grant_id=grant_id)

    def _notify(self) -> None:
        """Publish busy-core and queue-depth samples after a change."""
        obs = self.env.obs
        if obs is not None:
            obs.on_core_allocation(
                self.label, self.used_cores, self.total_cores,
                len(self.pool.queue),
            )
