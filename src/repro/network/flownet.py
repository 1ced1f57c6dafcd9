"""The flow network: event-driven fluid simulation of concurrent transfers.

A :class:`FlowNetwork` is attached to a DES environment.  Callers start
transfers with :meth:`FlowNetwork.transfer`, which returns a DES event
that fires when the last byte arrives.  Between events every flow
progresses linearly at its assigned rate, so the model is
work-conserving and exact for piecewise-constant rate processes.

There is one event path:

* admits and drains mark the touched links of
  :class:`repro.perf.VectorizedMaxMin` dirty, and one end-of-instant
  flush (a ``DEFERRED``-priority event) re-solves only the connected
  components they reach, so N same-timestamp admits cost one solve;
* per-flow progress lives in :class:`repro.perf.FlowSlots` arrays, so
  advancing time, sweeping drained flows and finding the next
  completion are whole-array numpy operations that allocate nothing
  per event.  :class:`Flow` objects remain the public record; their
  ``remaining`` is synced from the arrays on access and completion.

The ``allocator`` knob chooses only how one dirty component's rates are
computed (see :mod:`repro.network.allocators`).
"""
# lint: hot-path - rate updates and progress sweeps run per network event

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.des import Environment, Event, EventPriority
from repro.network.allocators import resolve_allocator
from repro.network.link import Link
from repro.perf import FlowSlots, VectorizedMaxMin

_EPS = 1e-9


@dataclass
class Flow:
    """One in-flight transfer."""

    fid: int
    size: float                      # total bytes
    links: tuple[Link, ...]          # capacity-bearing resources traversed
    remaining: float                 # bytes still to move
    rate: float = 0.0                # current allocated rate (bytes/s)
    max_rate: float = float("inf")   # private cap (e.g. POSIX stream limit)
    started_at: float = 0.0
    completed_at: Optional[float] = None
    done_event: Optional[Event] = None
    label: str = ""

    @property
    def elapsed(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    @property
    def achieved_bandwidth(self) -> Optional[float]:
        """Mean end-to-end bandwidth, available once the flow completed.

        ``None`` while in flight, and also for zero-byte flows: a
        metadata-only transfer has no meaningful bandwidth, and
        ``0 / latency == 0.0`` would otherwise drag every bandwidth
        average toward zero.
        """
        elapsed = self.elapsed
        if elapsed is None or elapsed <= 0 or self.size <= 0:
            return None
        return self.size / elapsed


class FlowNetwork:
    """Manages concurrent flows over a shared set of links.

    ``allocator`` selects the bandwidth-sharing discipline: a registry
    name (``"max-min"``, ``"equal-split"`` — see
    :mod:`repro.network.allocators`) or any callable satisfying the
    :class:`~repro.network.allocators.RateAllocator` protocol.  The
    default is max-min fairness (SimGrid's fluid model).
    """

    def __init__(
        self,
        env: Environment,
        allocator="max-min",
    ) -> None:
        self.env = env
        self._flows: dict[int, Flow] = {}
        self._fid = itertools.count(1)
        self._last_update = env.now
        # Generation counter invalidates stale completion wake-ups.
        self._generation = 0
        #: Completed-flow log (bounded use: bandwidth accounting in traces).
        self.completed: list[Flow] = []
        self._links_by_name: dict[str, Link] = {}
        self._engine = VectorizedMaxMin(
            _capacity_fn(self._links_by_name), resolve_allocator(allocator)
        )
        self._slots = FlowSlots()
        self._flush_pending = False
        #: Whether a drain sweep could find nothing new: no progress,
        #: rate change or drainable admit since the last sweep.
        self._swept = True

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def transfer(
        self,
        size: float,
        links: "list[Link] | tuple[Link, ...]",
        latency: float = 0.0,
        max_rate: float = float("inf"),
        label: str = "",
    ) -> Event:
        """Start a transfer of ``size`` bytes across ``links``.

        Returns an event that succeeds (with the :class:`Flow`) when the
        transfer finishes.  ``latency`` is an additional one-shot delay
        before bytes start moving (route latency + any service overhead
        such as metadata round-trips).  Zero-byte transfers complete after
        just the latency.
        """
        if size < 0:
            raise ValueError(f"negative transfer size: {size}")
        if max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {max_rate}")

        done = self.env.event()
        flow = Flow(
            fid=next(self._fid),
            size=float(size),
            links=tuple(links),
            remaining=float(size),
            max_rate=max_rate,
            started_at=self.env.now,
            done_event=done,
            label=label,
        )
        if not flow.links and max_rate == float("inf"):
            # Loopback with no cap: completes after latency alone.
            self.env.schedule_callback(lambda _e: self._finish(flow), latency)
            return done

        total_latency = latency + sum(link.latency for link in flow.links)
        if total_latency > 0:
            self.env.schedule_callback(lambda _e: self._admit(flow), total_latency)
        else:
            self._admit(flow)
        return done

    @property
    def active_flows(self) -> list[Flow]:
        """In-flight flows, with ``remaining`` synced to the current
        progress arrays."""
        flows = self._flows
        remaining = self._slots.remaining
        for fid, slot in self._slots.slot_of.items():
            flows[fid].remaining = float(remaining[slot])
        return list(flows.values())

    def utilization(self, link: Link) -> float:
        """Current aggregate rate over ``link`` divided by its capacity."""
        load = sum(f.rate for f in self._flows.values() if link in f.links)
        return load / link.bandwidth

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _admit(self, flow: Flow) -> None:
        self._advance_progress()
        flow.started_at = min(flow.started_at, self.env.now)
        if flow.remaining <= 0:
            # Zero-byte payload: finish immediately (the done event still
            # fires through the queue, at the current timestamp).
            self._finish(flow)
            self._reschedule()
            return
        # Flows drained since the last wake-up must leave before rates
        # are recomputed — a lingering near-empty flow would claim a full
        # max-min share and depress everyone else's rate until the next
        # completion wake.
        self._sweep_drained()
        self._flows[flow.fid] = flow
        obs = self.env.obs
        if obs is not None:
            obs.on_flow_admitted(len(self._flows))
        for link in flow.links:
            self._links_by_name.setdefault(link.name, link)
        self._engine.admit(
            flow.fid, [link.name for link in flow.links], flow.max_rate
        )
        self._slots.admit(flow.fid, flow.size, flow.remaining)
        # The sweep's threshold for a flow with no rate yet.
        if flow.remaining <= flow.size * _EPS + _EPS:
            self._swept = False
        self._schedule_flush()

    def _advance_progress(self) -> None:
        """Move every active flow forward to the current instant."""
        dt = self.env.now - self._last_update
        if dt > 0:
            self._slots.advance(dt)
            self._swept = False
        self._last_update = self.env.now

    def _reschedule(self) -> None:
        """(Re)arm the wake-up for the next flow completion."""
        self._generation += 1
        finish = self._slots.peek_finish()
        if finish is None:
            return
        generation = self._generation
        self.env.schedule_callback(
            lambda _e: self._on_wake(generation),
            max(0.0, finish - self.env.now),
            EventPriority.HIGH,
        )

    def _remove_flow(self, flow: Flow) -> None:
        """Drop ``flow`` from the active set, the engine and the slots."""
        del self._flows[flow.fid]
        self._engine.drain(flow.fid)
        self._slots.drop(flow.fid)

    def _sweep_drained(self) -> bool:
        """Finish every flow whose residue is below its threshold.

        Progress must already be advanced to ``env.now``.  Returns
        whether anything finished (callers then owe a recomputation).
        """
        if self._swept:
            return False
        time_quantum = max(1e-12, abs(self.env.now) * 1e-12)
        drained = self._slots.drained_fids(time_quantum, _EPS)
        for fid in drained:
            flow = self._flows[fid]
            self._remove_flow(flow)
            self._finish(flow)
        self._swept = True
        return bool(drained)

    def _on_wake(self, generation: int) -> None:
        if generation != self._generation:
            return  # stale wake-up; a newer recomputation superseded it
        self._advance_progress()
        if not self._sweep_drained():
            # The wake's finish estimate can undershoot a flow's byte
            # threshold by float residue (rate * (T - t0) vs remaining
            # rounding).  Finishing the due flow(s) outright is exact to
            # ulp-level and avoids re-arming a zero-delay wake forever.
            while True:
                finish = self._slots.peek_finish()
                if finish is None or finish > self.env.now:
                    break
                flow = self._flows[self._slots.next_finished_fid()]
                self._remove_flow(flow)
                self._finish(flow)
        if self._engine.dirty:
            self._solve_and_apply()
        self._reschedule()

    def _finish(self, flow: Flow) -> None:
        flow.remaining = 0.0
        flow.rate = 0.0
        flow.completed_at = self.env.now
        self.completed.append(flow)
        obs = self.env.obs
        if obs is not None:
            # The flow is already out of (or never entered) _flows, so
            # the count reflects concurrency after this completion.
            obs.on_flow_finished(flow, len(self._flows))
            obs.log_event(
                "network", "flow_completed",
                label=flow.label, size=flow.size,
                elapsed=flow.elapsed, active=len(self._flows),
            )
        # Drop the flow -> event link before the event takes the flow as
        # its value, so a finished transfer is freed by reference
        # counting rather than left for the cycle collector.
        done, flow.done_event = flow.done_event, None
        assert done is not None
        done.succeed(flow)

    def _schedule_flush(self) -> None:
        """Arm one end-of-instant solve covering every same-timestamp
        admit/drain (the batch that replaces N per-admit solves)."""
        if self._flush_pending:
            return
        self._flush_pending = True
        self.env.schedule_callback(self._flush, 0.0, EventPriority.DEFERRED)

    def _flush(self, _event: Event) -> None:
        self._flush_pending = False
        self._advance_progress()
        if self._engine.dirty:
            self._solve_and_apply()
        self._reschedule()

    def _solve_and_apply(self) -> None:
        stats = self._engine.stats
        calls = stats.solver_calls
        links = stats.links_touched
        solved = stats.flows_solved
        changed = self._engine.solve()
        self._swept = False
        now = self.env.now
        flows = self._flows
        slots = self._slots
        for fid, rate in changed.items():
            flows[fid].rate = rate
            slots.set_rate(fid, rate, now)
        obs = self.env.obs
        if obs is not None:
            obs.on_rate_solve(
                stats.flows_solved - solved,
                stats.links_touched - links,
                solver_calls=stats.solver_calls - calls,
            )
            # Only the re-solved components: every other link keeps the
            # rates and user counts it had at its last check.
            obs.on_rates_assigned([flows[fid] for fid in changed])


def _capacity_fn(links_by_name: dict[str, Link]):
    """The engine's ``(link name, users) -> capacity`` lookup.

    A closure over the link table rather than a bound method, so the
    engine holds no reference back to its :class:`FlowNetwork`.
    """

    def capacity(name: str, n_users: int) -> float:
        return links_by_name[name].effective_bandwidth(n_users)

    return capacity
