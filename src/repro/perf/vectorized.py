"""The flow engine's rate solver: dense dirty-component water-filling.

The oracle (:func:`~repro.network.fairshare.max_min_fair_rates`) walks
every link and every active flow once per progressive-filling round —
``O(rounds x (links + flows))`` Python-interpreter work per solve.  This
module replaces that inner loop with dense per-link state:

* **Saturation levels instead of repeated subtraction.**  While the set
  of unfrozen flows is constant, every unfrozen flow's rate equals one
  shared *level*, and each link's remaining capacity is linear in that
  level.  The level at which link ``l`` saturates is therefore a single
  number ``SAT[l] = level + remaining[l] / users[l]`` that only changes
  when ``users[l]`` changes.  A whole round collapses to ``argmin`` over
  the dense ``SAT`` vector (numpy on large components, a plain scan on
  tiny ones) plus amortized O(edges) bookkeeping for the flows frozen by
  the saturating link.
* **Identical-constraint flow groups.**  Flows with the same link set
  and the same rate cap are exchangeable under max-min fairness: they
  carry identical rates through every round.  The kernel solves one
  *group* per distinct ``(links, cap)`` class with a user-count weight,
  then broadcasts the group rate to its member flows.  Simulation
  workloads are full of such classes (N parallel stage-ins over one
  route), so this shrinks both the dense vectors and the freeze work.
* **Oracle-compatible freezing.**  The oracle freezes a link when its
  remaining capacity falls below ``REL_TOL x capacity``, i.e. slightly
  *early*.  The kernel mirrors that with a per-link freeze threshold
  ``FREEZE_AT[l] = SAT[l] - REL_TOL x capacity[l] / users[l]``, so
  freeze sets — and hence the resulting rate vectors — track the oracle
  to float-roundoff (well inside the 1e-9 differential tolerance; see
  ``docs/PERF.md`` for the exact argument).
* **Dirty components.**  Max-min fairness decomposes exactly over the
  connected components of the bipartite flow/link graph, so an admit or
  drain can only change rates inside the component(s) it touches.

Entry points:

* :func:`vectorized_max_min_rates` — the stateless kernel, registered
  as the ``"max-min"``
  :class:`~repro.network.allocators.RateAllocator`.
* :class:`VectorizedMaxMin` — the stateful engine behind
  :class:`~repro.network.FlowNetwork`: admit/drain mark links dirty and
  :meth:`~VectorizedMaxMin.solve` re-solves only the components they
  reach, at *group* granularity.  Any other allocator callable is
  applied to a dirty component's member flows instead of the kernel.
* :class:`FlowSlots` — slot-allocated dense per-flow arrays (remaining
  bytes, rate, finish time) that let the flow network advance and sweep
  all in-flight transfers without per-event allocation.
"""
# lint: hot-path - solve() runs on every flow admit/drain

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as _np

#: Relative tolerance for deciding that a flow sits at its cap or that a
#: link is saturated, shared with the oracle.  The tolerance MUST be
#: relative (scaled by the cap or capacity it is compared against): an
#: absolute epsilon freezes every flow whose cap is within epsilon of
#: another's, which mis-allocates whenever caps themselves are
#: epsilon-sized (e.g. the tiny finish thresholds the flow network
#: produces for nearly-drained transfers).
REL_TOL = 1e-9

_INF = float("inf")

#: Below this many links a Python scan beats ``np.argmin`` (call
#: overhead dominates on tiny vectors).  Results are identical either
#: way: both pick the first minimum in link-index order.
_NP_MIN_LINKS = 16

#: Capacity of a link given how many flows currently use it.  The user
#: count matters because :class:`~repro.network.Link` applies an optional
#: concurrency penalty to its aggregate bandwidth.
CapacityFn = Callable[[Hashable, int], float]


def static_capacity(capacities: Mapping[Hashable, float]) -> CapacityFn:
    """A :data:`CapacityFn` over a fixed capacity table (no penalty)."""

    def capacity(link: Hashable, n_users: int) -> float:
        return capacities[link]

    return capacity


@dataclass
class SolverStats:
    """Work counters for one engine (reset with :meth:`reset`).

    ``solver_calls`` counts component solves, ``links_touched`` /
    ``flows_solved`` the total subproblem sizes (member flows, not
    groups), and ``full_solves`` how often a component spanned the whole
    graph (the case where dirty tracking buys nothing).
    """

    solver_calls: int = 0
    links_touched: int = 0
    flows_solved: int = 0
    full_solves: int = 0

    def reset(self) -> None:
        self.solver_calls = 0
        self.links_touched = 0
        self.flows_solved = 0
        self.full_solves = 0


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
def _waterfill_groups(
    group_links: Sequence[Sequence[int]],
    group_caps: Sequence[float],
    weights: Sequence[int],
    link_caps: Sequence[float],
) -> list[float]:
    """Water-fill one component of identical-constraint flow groups.

    ``group_links`` holds local (dense) link indices; ``weights`` the
    member-flow count of each group.  Returns the per-group rate — every
    member flow of a group carries exactly that rate.
    """
    n_links = len(link_caps)
    n_groups = len(group_links)

    # Dense per-link state.  ``rem``/``base`` implement lazy
    # materialization: ``rem[l]`` is the remaining capacity at level
    # ``base[l]``; between user-count changes it decays linearly with
    # slope ``usr[l]``, which SAT/FREEZE_AT already encode.
    usr = [0.0] * n_links
    link_groups: list[list[int]] = [[] for _ in range(n_links)]
    for g, links in enumerate(group_links):
        w = weights[g]
        for l in links:
            usr[l] += w
            link_groups[l].append(g)
    rem = [float(c) for c in link_caps]
    base = [0.0] * n_links
    sat = [0.0] * n_links
    frz = [0.0] * n_links
    for l in range(n_links):
        u = usr[l]
        if u > 0.0:
            share = rem[l] / u
            sat[l] = share
            frz[l] = share - REL_TOL * link_caps[l] / u
        else:
            sat[l] = _INF
            frz[l] = _INF

    use_np = n_links >= _NP_MIN_LINKS
    if use_np:
        sat_np = _np.array(sat)
        frz_np = _np.array(frz)

    rates = [0.0] * n_groups
    frozen = [False] * n_groups
    active = n_groups
    level = 0.0

    # Finite flow caps, sorted ascending; the pointer sweeps forward as
    # the level rises (full cap bounds the increment, cap*(1-REL) is the
    # freeze threshold — exactly the oracle's pair of tests).
    cap_order = sorted(
        (group_caps[g], g) for g in range(n_groups) if group_caps[g] < _INF
    )
    cap_ptr = 0

    def freeze(g: int, rate: float) -> None:
        nonlocal active
        rates[g] = rate
        frozen[g] = True
        active -= 1
        w = weights[g]
        for l in group_links[g]:
            u = usr[l]
            rem[l] -= (level - base[l]) * u
            base[l] = level
            u -= w
            usr[l] = u
            if u > 0.0:
                s = level + rem[l] / u
                f = s - REL_TOL * link_caps[l] / u
            else:
                s = _INF
                f = _INF
            sat[l] = s
            frz[l] = f
            if use_np:
                sat_np[l] = s
                frz_np[l] = f

    while active:
        while cap_ptr < len(cap_order) and frozen[cap_order[cap_ptr][1]]:
            cap_ptr += 1
        next_cap = cap_order[cap_ptr][0] if cap_ptr < len(cap_order) else _INF

        if use_np:
            min_sat = sat[sat_np.argmin()]
        else:
            min_sat = _INF
            for s in sat:
                if s < min_sat:
                    min_sat = s

        new_level = min_sat if min_sat <= next_cap else next_cap
        if new_level == _INF:  # pragma: no cover - guarded by validation
            break
        if new_level > level:
            level = new_level

        # Cap freezes: every unfrozen group whose threshold the level
        # reached (the oracle's ``rate >= cap * (1 - REL)`` test).
        while cap_ptr < len(cap_order):
            cap, g = cap_order[cap_ptr]
            if frozen[g]:
                cap_ptr += 1
                continue
            if cap * (1.0 - REL_TOL) <= level:
                freeze(g, level)
                cap_ptr += 1
            else:
                break

        # Link freezes: every link whose freeze threshold the level
        # crossed (the oracle's ``remaining <= REL * capacity`` test);
        # the argmin link always qualifies, so each round freezes at
        # least one group and the loop terminates in <= n_groups rounds.
        if use_np:
            hits = (frz_np <= level).nonzero()[0].tolist()
        else:
            hits = [l for l in range(n_links) if frz[l] <= level]  # lint: ignore[SIM061] - scalar scan for tiny components
        for l in hits:
            for g in link_groups[l]:
                if not frozen[g]:
                    freeze(g, level)

    return rates


def _validate_and_group(
    flow_links: Sequence[Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    flow_caps: Sequence[float],
):
    """Oracle-identical validation, then the dense group/link encoding."""
    n = len(flow_links)
    if len(flow_caps) != n:
        raise ValueError("flow_caps length must match flow_links length")
    for link, cap in capacities.items():
        if cap <= 0:
            raise ValueError(f"link {link!r} has non-positive capacity {cap}")
    flow_sets = []
    for i, links in enumerate(flow_links):
        s = frozenset(links)
        for link in s:
            if link not in capacities:
                raise ValueError(f"flow {i} references unknown link {link!r}")
        flow_sets.append(s)
    for i, s in enumerate(flow_sets):
        if not s and flow_caps[i] == _INF:
            raise ValueError(f"flow {i} has no links and no cap (infinite rate)")

    lid: dict = {}
    link_caps: list[float] = []
    group_index: dict = {}
    group_links: list[list[int]] = []
    group_caps: list[float] = []
    weights: list[int] = []
    flow_group = [0] * n
    for i, s in enumerate(flow_sets):
        key = (s, flow_caps[i])
        g = group_index.get(key)
        if g is None:
            locs = []  # lint: ignore[SIM061] - one-shot kernel setup, not the round loop
            for link in sorted(s, key=repr):
                j = lid.get(link)
                if j is None:
                    j = lid[link] = len(link_caps)
                    link_caps.append(capacities[link])
                locs.append(j)
            g = len(group_links)
            group_index[key] = g
            group_links.append(locs)
            group_caps.append(flow_caps[i])
            weights.append(0)
        weights[g] += 1
        flow_group[i] = g
    return group_links, group_caps, weights, link_caps, flow_group


def vectorized_max_min_rates(
    flow_links: Sequence[Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    flow_caps: "Sequence[float] | None" = None,
) -> list[float]:
    """Max-min fair rates via the dense water-filling kernel.

    The :class:`~repro.network.allocators.RateAllocator` registered as
    ``"max-min"``: same inputs, outputs, and validation errors as
    :func:`~repro.network.fairshare.max_min_fair_rates`, with rates
    agreeing to well inside 1e-9 relative (the differential suite in
    ``tests/perf/test_vectorized.py`` enforces this property).
    :class:`VectorizedMaxMin` recognizes it and hands each dirty
    component's groups to the kernel directly.
    """
    n = len(flow_links)
    if flow_caps is None:
        flow_caps = [_INF] * n
    group_links, group_caps, weights, link_caps, flow_group = (
        _validate_and_group(flow_links, capacities, flow_caps)
    )
    rates = _waterfill_groups(group_links, group_caps, weights, link_caps)
    return [rates[flow_group[i]] for i in range(n)]


# ----------------------------------------------------------------------
# The stateful engine
# ----------------------------------------------------------------------
class _Group:
    """One identical-constraint flow class: a link set plus a rate cap."""

    __slots__ = ("key", "links", "cap", "members")

    def __init__(self, key, links: tuple, cap: float) -> None:
        self.key = key
        self.links = links
        self.cap = cap
        self.members: set = set()


class VectorizedMaxMin:
    """Dirty-component rate engine over identical-constraint groups.

    ``admit`` / ``drain`` maintain the flow/link graph at *group*
    granularity and mark the touched links dirty; ``solve`` recomputes
    only the components reachable from dirty state.  With the default
    ``allocator`` (:func:`vectorized_max_min_rates`) a component's groups
    go straight to the water-filling kernel.  Any other
    :class:`~repro.network.allocators.RateAllocator` (equal split, the
    oracle in tests) is called on the component's member flows in
    admission order.  ``stats.flows_solved`` counts member flows, not
    groups.
    """

    def __init__(self, capacity_fn: CapacityFn, allocator=None) -> None:
        self._capacity_fn = capacity_fn
        self._allocator = (
            vectorized_max_min_rates if allocator is None else allocator
        )
        self._fid_group: dict[Hashable, int] = {}
        self._groups: dict[int, _Group] = {}
        self._group_index: dict = {}
        self._link_groups: dict[Hashable, set[int]] = {}
        self._link_users: dict[Hashable, int] = {}
        self._rates: dict[Hashable, float] = {}
        self._next_gid = 0
        self._dirty_links: set = set()
        self._dirty_groups: set = set()
        self.stats = SolverStats()

    # ------------------------------------------------------------------
    # Graph maintenance
    # ------------------------------------------------------------------
    def __contains__(self, fid: Hashable) -> bool:
        return fid in self._fid_group

    def __len__(self) -> int:
        return len(self._fid_group)

    def admit(
        self, fid: Hashable, links: Iterable[Hashable], cap: float = _INF
    ) -> None:
        """Add a flow; its constraint class (or links) become dirty."""
        if fid in self._fid_group:
            raise ValueError(f"flow {fid!r} is already admitted")
        link_tuple = tuple(dict.fromkeys(links))
        if not link_tuple and cap == _INF:
            raise ValueError(
                f"flow {fid!r} has no links and no cap (infinite rate)"
            )
        key = (frozenset(link_tuple), cap)
        gid = self._group_index.get(key)
        if gid is None:
            gid = self._next_gid
            self._next_gid += 1
            group = _Group(key, link_tuple, cap)
            self._groups[gid] = group
            self._group_index[key] = gid
            for link in link_tuple:
                self._link_groups.setdefault(link, set()).add(gid)  # lint: ignore[SIM061] - only on first admit of a new group
        else:
            group = self._groups[gid]
        group.members.add(fid)
        self._fid_group[fid] = gid
        self._rates[fid] = 0.0
        for link in group.links:
            self._link_users[link] = self._link_users.get(link, 0) + 1
            self._dirty_links.add(link)
        if not group.links:
            self._dirty_groups.add(gid)

    def drain(self, fid: Hashable) -> None:
        """Remove a flow; the links it vacated become dirty."""
        try:
            gid = self._fid_group.pop(fid)
        except KeyError:
            raise KeyError(f"flow {fid!r} is not admitted") from None
        del self._rates[fid]
        group = self._groups[gid]
        group.members.discard(fid)
        for link in group.links:
            users = self._link_users[link] - 1
            if users:
                self._link_users[link] = users
            else:
                del self._link_users[link]
            self._dirty_links.add(link)
        if not group.members:
            del self._groups[gid]
            del self._group_index[group.key]
            self._dirty_groups.discard(gid)
            for link in group.links:
                peers = self._link_groups[link]
                peers.discard(gid)
                if not peers:
                    del self._link_groups[link]
        elif not group.links:
            self._dirty_groups.add(gid)

    def rate(self, fid: Hashable) -> float:
        return self._rates[fid]

    @property
    def rates(self) -> dict[Hashable, float]:
        """Current rate of every admitted flow (a copy)."""
        return dict(self._rates)

    @property
    def dirty(self) -> bool:
        return bool(self._dirty_links or self._dirty_groups)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> dict[Hashable, float]:
        """Recompute every component reachable from dirty state.

        Returns ``{fid: rate}`` for the flows whose component was
        recomputed; untouched components keep their cached rates.
        """
        if not self.dirty:
            return {}
        changed: dict[Hashable, float] = {}
        visited: set[int] = set()
        seeds: list[int] = []
        for link in self._dirty_links:
            seeds.extend(self._link_groups.get(link, ()))
        seeds.extend(g for g in self._dirty_groups if g in self._groups)
        self._dirty_links.clear()
        self._dirty_groups.clear()
        for seed in seeds:
            if seed in visited:
                continue
            component = self._component_of(seed)
            visited |= component
            self._solve_component(component, changed)
        self._rates.update(changed)
        return changed

    def _component_of(self, seed: int) -> set[int]:
        """Group ids of the connected component containing ``seed``."""
        component = {seed}
        frontier = [seed]
        seen_links: set = set()
        while frontier:
            gid = frontier.pop()
            for link in self._groups[gid].links:
                if link in seen_links:
                    continue
                seen_links.add(link)
                for other in self._link_groups[link]:
                    if other not in component:
                        component.add(other)
                        frontier.append(other)
        return component

    def _solve_component(
        self, component: set[int], changed: dict[Hashable, float]
    ) -> None:
        """Solve one component; fold its member-flow rates into ``changed``."""
        # Stable group order (creation order) so the dense encoding —
        # and argmin tie-breaking — never depends on set iteration.
        gids = sorted(component)
        groups = self._groups
        lid: dict = {}
        link_caps: list[float] = []
        group_links: list[list[int]] = []
        capacity_fn = self._capacity_fn
        link_users = self._link_users
        for gid in gids:
            locs = []  # lint: ignore[SIM061] - dense repack amortized over dirty groups
            for link in groups[gid].links:
                j = lid.get(link)
                if j is None:
                    j = lid[link] = len(link_caps)
                    link_caps.append(capacity_fn(link, link_users[link]))
                locs.append(j)
            group_links.append(locs)
        flows_solved = 0
        if self._allocator is vectorized_max_min_rates:
            rates = _waterfill_groups(
                group_links,
                [groups[gid].cap for gid in gids],
                [len(groups[gid].members) for gid in gids],
                link_caps,
            )
            for gid, rate in zip(gids, rates):
                members = groups[gid].members
                flows_solved += len(members)
                for fid in members:
                    changed[fid] = rate
        else:
            fids = [
                fid for fid, gid in self._fid_group.items() if gid in component
            ]
            member_groups = [groups[self._fid_group[fid]] for fid in fids]
            rates = self._allocator(
                [group.links for group in member_groups],
                {link: link_caps[j] for link, j in lid.items()},
                [group.cap for group in member_groups],
            )
            flows_solved = len(fids)
            changed.update(zip(fids, rates))
        stats = self.stats
        stats.solver_calls += 1
        stats.links_touched += len(link_caps)
        stats.flows_solved += flows_solved
        if len(gids) == len(groups):
            stats.full_solves += 1


# ----------------------------------------------------------------------
# Slot-based flow records (the flow network's per-flow progress)
# ----------------------------------------------------------------------
class FlowSlots:
    """Dense slot-allocated arrays for in-flight flow progress.

    Each admitted flow occupies one slot across parallel numpy arrays
    (remaining bytes, current rate, total size, absolute finish time,
    live flag).  Advancing simulated time, sweeping drained flows, and
    peeking the next completion are whole-array operations; freed slots
    are recycled through a free list so steady-state simulation
    allocates nothing per event.  Freed slots are kept neutral (rate 0,
    remaining 0, finish ``inf``, not live), so only the drain sweep needs
    the live mask.
    """

    def __init__(self, capacity: int = 64) -> None:
        capacity = max(1, capacity)
        self.remaining = _np.zeros(capacity)
        self.rate = _np.zeros(capacity)
        self.size = _np.zeros(capacity)
        self.finish = _np.full(capacity, _INF)
        self.fids = _np.zeros(capacity, dtype=_np.int64)
        self.live = _np.zeros(capacity, dtype=bool)
        self.slot_of: dict[int, int] = {}
        self._free = list(range(capacity - 1, -1, -1))

    def __len__(self) -> int:
        return len(self.slot_of)

    def _grow(self) -> None:
        old = len(self.remaining)
        new = old * 2
        for name in ("remaining", "rate", "size", "fids", "live"):
            arr = getattr(self, name)
            grown = _np.zeros(new, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        finish = _np.full(new, _INF)
        finish[:old] = self.finish
        self.finish = finish
        self._free.extend(range(new - 1, old - 1, -1))

    def admit(self, fid: int, size: float, remaining: float) -> int:
        """Allocate a slot for ``fid``; returns the slot index."""
        if not self._free:
            self._grow()
        slot = self._free.pop()
        self.slot_of[fid] = slot
        self.remaining[slot] = remaining
        self.rate[slot] = 0.0
        self.size[slot] = size
        self.finish[slot] = _INF
        self.fids[slot] = fid
        self.live[slot] = True
        return slot

    def drop(self, fid: int) -> None:
        """Release ``fid``'s slot back to the free list."""
        slot = self.slot_of.pop(fid)
        self.remaining[slot] = 0.0
        self.rate[slot] = 0.0
        self.size[slot] = 0.0
        self.finish[slot] = _INF
        self.live[slot] = False
        self._free.append(slot)

    def advance(self, dt: float) -> None:
        """Move every flow forward by ``dt`` at its current rate."""
        # remaining = max(0.0, remaining - rate * dt), as scalar code
        # writes it; freed slots stay 0 - 0 * dt == 0.
        _np.maximum(0.0, self.remaining - self.rate * dt, out=self.remaining)

    def set_rate(self, fid: int, rate: float, now: float) -> None:
        """Assign a rate and recompute the slot's absolute finish time."""
        slot = self.slot_of[fid]
        self.rate[slot] = rate
        self.finish[slot] = (
            now + self.remaining[slot] / rate if rate > 0.0 else _INF
        )

    def remaining_of(self, fid: int) -> float:
        return float(self.remaining[self.slot_of[fid]])

    def drained_fids(self, time_quantum: float, eps: float) -> list[int]:
        """Live flows whose residue is below the finish threshold.

        The threshold is ``max(eps * size + eps, rate * time_quantum)``:
        a byte epsilon, and the bytes a flow moves in one unit of time
        resolution (residue below that can never drain, because
        ``now + eta == now``).  Hits come back in slot order.
        """
        thr = _np.maximum(self.size * eps + eps, self.rate * time_quantum)
        hits = ((self.remaining <= thr) & self.live).nonzero()[0]
        return self.fids[hits].tolist()

    def peek_finish(self) -> "float | None":
        """Earliest absolute finish time, or ``None`` if nothing is due."""
        if not self.slot_of:
            return None
        best = float(self.finish.min())
        return None if best == _INF else best

    def next_finished_fid(self) -> "int | None":
        """The flow holding the earliest finish time (ties: lowest slot)."""
        if not self.slot_of:
            return None
        slot = int(_np.argmin(self.finish))
        if self.finish[slot] == _INF:
            return None
        return int(self.fids[slot])
