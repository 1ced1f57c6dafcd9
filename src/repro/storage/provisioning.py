"""Burst-buffer allocation provisioning (DataWarp-style).

On Cori, a job requests a BB *allocation size*; DataWarp rounds it up
to its allocation granularity and spreads the allocation over as many
BB nodes as granules — "as there are far more compute nodes than I/O
and BB nodes, a given BB allocation is usually spread over multiple BB
nodes" (paper Section III-D).  This module models that sizing step:
from a requested capacity to the set of BB nodes backing it, which is
exactly the striping width a :class:`SharedBurstBuffer` then uses.

BB nodes are discovered through each host's declared
:class:`~repro.platform.HostRole` (``shared_bb``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.des import Environment, Event
from repro.obs.waits import WaitCause
from repro.platform.presets import BB_DISK
from repro.platform.runtime import Platform
from repro.platform.spec import HostRole
from repro.platform.units import GiB
from repro.storage.base import InsufficientStorage
from repro.storage.burst_buffer import BBMode, SharedBurstBuffer

#: Cray DataWarp's default allocation granularity on Cori-era systems.
DEFAULT_GRANULARITY = 20 * GiB


def discover_bb_hosts(platform: Platform) -> list[str]:
    """The platform's shared-BB nodes (hosts declaring ``role=shared_bb``)."""
    return sorted(
        h.name for h in platform.spec.hosts if h.role is HostRole.SHARED_BB
    )


@dataclass(frozen=True)
class BBAllocation:
    """A provisioned burst-buffer allocation."""

    requested: float          # bytes asked for
    granted: float            # bytes granted (rounded up to granules)
    granularity: float
    bb_hosts: tuple[str, ...]  # the nodes backing the allocation

    @property
    def granules(self) -> int:
        return round(self.granted / self.granularity)

    @property
    def stripe_width(self) -> int:
        """Number of distinct BB nodes the allocation spans."""
        return len(self.bb_hosts)


def provision_allocation(
    platform: Platform,
    size: float,
    granularity: float = DEFAULT_GRANULARITY,
    bb_hosts: Optional[Sequence[str]] = None,
    disk: str = BB_DISK,
) -> BBAllocation:
    """Provision a BB allocation of at least ``size`` bytes.

    Granules are distributed round-robin over the available BB nodes
    (so a small allocation touches few nodes and a large one stripes
    wide — DataWarp's behaviour), subject to per-node capacity.

    Raises :class:`InsufficientStorage` when the platform's BB nodes
    cannot hold the granted size.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    bb_hosts = _pool_hosts(platform, bb_hosts)
    granules = math.ceil(size / granularity)
    per_host = _carve(
        _granule_capacity(platform, bb_hosts, disk, granularity),
        bb_hosts, granules,
    )
    return BBAllocation(
        requested=float(size),
        granted=float(granules * granularity),
        granularity=float(granularity),
        bb_hosts=tuple(per_host),
    )


def _pool_hosts(
    platform: Platform, bb_hosts: Optional[Sequence[str]]
) -> list[str]:
    """The BB nodes to provision from: ``bb_hosts`` or the discovered ones."""
    if bb_hosts is None:
        bb_hosts = discover_bb_hosts(platform)
    if not bb_hosts:
        raise ValueError("platform has no BB nodes to provision from")
    return list(bb_hosts)


def _granule_capacity(
    platform: Platform, bb_hosts: Sequence[str], disk: str, granularity: float
) -> dict[str, int]:
    """Whole granules each BB node's ``disk`` can hold."""
    return {
        h: int(platform.host(h).disk(disk).capacity // granularity)
        for h in bb_hosts
    }


def _carve(
    free: dict[str, int], bb_hosts: Sequence[str], granules: int
) -> dict[str, int]:
    """Deal ``granules`` round-robin over ``bb_hosts``, at most ``free[h]``
    each, so a small allocation touches few nodes and a large one stripes
    wide (DataWarp's behaviour).  Returns the non-zero per-node counts in
    ``bb_hosts`` order.
    """
    available = sum(free[h] for h in bb_hosts)
    if granules > available:
        raise InsufficientStorage(
            f"allocation of {granules} granules exceeds the {available} "
            f"free in the BB pool"
        )
    assigned = dict.fromkeys(bb_hosts, 0)
    remaining = granules
    while remaining > 0:
        for h in bb_hosts:
            if remaining == 0:
                break
            if assigned[h] < free[h]:
                assigned[h] += 1
                remaining -= 1
    return {h: n for h, n in assigned.items() if n > 0}


@dataclass
class BBLease:
    """A granted (and releasable) provisioned allocation.

    The payload of the event returned by :meth:`BBProvisioner.request`.
    Release it when the job's stage-out completes so queued requests can
    be granted.
    """

    provisioner: "BBProvisioner"
    allocation: BBAllocation
    per_host_granules: dict[str, int]
    released: bool = False
    #: Key into the pool's running-grant table (backfill policies
    #: project release times from it); ``None`` for hand-built objects.
    grant_id: Optional[int] = None

    def release(self) -> None:
        if not self.released:
            self.released = True
            self.provisioner._release(self)

    def __enter__(self) -> "BBLease":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class BBProvisioner:
    """DES-aware DataWarp allocation queue over a finite granule pool.

    :func:`provision_allocation` sizes a single allocation against an
    *empty* pool; real DataWarp jobs queue when the pool is exhausted
    and are granted as earlier allocations are torn down.  This class
    models that lifecycle as a thin owner of a
    :class:`~repro.wms.policies.PolicyPool` whose units are granules:
    :meth:`request` returns a DES event that fires with a
    :class:`BBLease` once enough granules are free, in the order the
    configured queue policy dictates — strict FIFO by default (no
    backfilling, matching the core allocator's conservative queueing),
    with backfill and plan policies available through the
    :mod:`repro.wms.policies` registry.  Granted granules are carved
    round-robin over the BB nodes with free space.

    A request that cannot be granted immediately is a *decision site*
    for the profiler: it opens a ``BB_CAPACITY`` wait interval for the
    requesting job (``env.obs`` hooks; zero-cost when disabled).
    """

    def __init__(
        self,
        platform: Platform,
        granularity: float = DEFAULT_GRANULARITY,
        bb_hosts: Optional[Sequence[str]] = None,
        disk: str = BB_DISK,
        policy: "str | object | None" = None,
    ) -> None:
        # Lazy: repro.wms.policies at module level would cycle through
        # repro.wms.__init__ -> engine -> storage imports.
        from repro.wms.policies import PolicyPool

        if granularity <= 0:
            raise ValueError("granularity must be positive")
        self.platform = platform
        self.env: Environment = platform.env
        self.granularity = float(granularity)
        self.bb_hosts = _pool_hosts(platform, bb_hosts)
        #: Free granules per BB node; the pool keeps their sum.
        self._free = _granule_capacity(
            platform, self.bb_hosts, disk, granularity
        )
        self.total_granules = sum(self._free.values())
        self.pool = PolicyPool(
            self.env, self.total_granules, policy, self._grant_queued,
            "granules", InsufficientStorage,
        )

    @property
    def policy(self):
        return self.pool.policy

    @property
    def free_granules(self) -> int:
        return self.pool.free

    @property
    def queue_length(self) -> int:
        return len(self.pool.queue)

    def granules_for(self, size: float) -> int:
        """Granules backing an allocation of ``size`` bytes."""
        if size <= 0:
            raise ValueError("size must be positive")
        return math.ceil(size / self.granularity)

    def request(
        self, size: float, job: str = "", estimate: Optional[float] = None
    ) -> Event:
        """Request an allocation of at least ``size`` bytes.

        The returned event fires with a :class:`BBLease`.  Requests
        larger than the whole pool can never be satisfied and raise
        :class:`InsufficientStorage` immediately.  ``job`` names the
        requester in wait-cause telemetry only; ``estimate`` is a
        walltime hint for the backfill policies (ignored by ``fifo``).
        """
        granules = self.granules_for(size)
        event = self.pool.enqueue(granules, job, estimate)
        if not event.triggered:
            # Decision site: the pool could not satisfy the request in
            # this instant, so the job queues behind running allocations.
            obs = self.env.obs
            if obs is not None:
                obs.on_task_blocked(job, WaitCause.BB_CAPACITY, detail="bb-pool")
                obs.on_bb_lease(
                    "queued", granules, self.pool.free, self.total_granules,
                    job,
                )
        return event

    def claim(
        self, size: float, job: str = "", estimate: Optional[float] = None
    ) -> Optional[BBLease]:
        """Grant an allocation immediately, or not at all.

        The plan coordinator's primitive: succeeds only when enough
        granules are free *and* no request is queued (claims must never
        overtake the policy's queue).  Emits the same ``granted`` lease
        telemetry as the queued path, keeping the lease-balance monitor
        ledger exact.  Returns ``None`` when the claim cannot be
        granted in this instant.
        """
        granules = self.granules_for(size)
        grant_id = self.pool.claim(granules, estimate)
        if grant_id is None:
            return None
        return self._leased(granules, job, grant_id)

    def _release(self, lease: BBLease) -> None:
        self.pool.release(
            sum(lease.per_host_granules.values()), lease.grant_id
        )
        for host, granules in lease.per_host_granules.items():
            self._free[host] += granules
        obs = self.env.obs
        if obs is not None:
            obs.on_bb_lease(
                "released", lease.allocation.granules, self.pool.free,
                self.total_granules, "",
            )
        self.pool.dispatch()

    def _grant_queued(self, request, grant_id: int) -> BBLease:
        """The pool's grant callback for a request that went through the
        queue."""
        obs = self.env.obs
        if obs is not None:
            obs.on_task_unblocked(request.tag, WaitCause.BB_CAPACITY)
        return self._leased(request.amount, request.tag, grant_id)

    def _leased(self, granules: int, job: str, grant_id: int) -> BBLease:
        """Carve booked granules over the nodes and report the lease."""
        per_host = _carve(self._free, self.bb_hosts, granules)
        for h, n in per_host.items():
            self._free[h] -= n
        granted = granules * self.granularity
        allocation = BBAllocation(
            requested=granted,
            granted=granted,
            granularity=self.granularity,
            bb_hosts=tuple(per_host),
        )
        obs = self.env.obs
        if obs is not None:
            obs.on_bb_lease(
                "granted", granules, self.pool.free, self.total_granules, job,
            )
        return BBLease(self, allocation, per_host, grant_id=grant_id)


def burst_buffer_for_allocation(
    platform: Platform,
    allocation: BBAllocation,
    mode: BBMode = BBMode.STRIPED,
    owner_host: Optional[str] = None,
    **kwargs,
) -> SharedBurstBuffer:
    """Build the storage service backed by a provisioned allocation.

    The service's capacity is clamped to the *granted* size (DataWarp
    enforces the allocation, not the device capacity), and striping
    spans exactly the allocation's nodes.  The clamp is applied at
    construction, so capacity gauges and the occupancy monitor see the
    allocation's capacity from the very first sample.
    """
    return SharedBurstBuffer(
        platform,
        list(allocation.bb_hosts),
        mode,
        owner_host=owner_host,
        capacity=allocation.granted,
        **kwargs,
    )
