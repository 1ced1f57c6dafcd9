"""Max-min fair bandwidth allocation via progressive filling.

Given a set of flows, each traversing a set of links with finite
capacities (and optionally carrying a private rate cap), compute the
max-min fair rate vector: rates are raised uniformly for all unfrozen
flows until some link (or per-flow cap) saturates, flows crossing a
saturated resource are frozen, and the process repeats.

This is the textbook water-filling algorithm, and is also the allocation
SimGrid converges to for its default fluid network model with equal flow
weights.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from repro.perf.vectorized import REL_TOL


def max_min_fair_rates(
    flow_links: Sequence[Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    flow_caps: Sequence[float] | None = None,
) -> list[float]:
    """Compute max-min fair rates.

    Parameters
    ----------
    flow_links:
        For each flow, the (possibly empty) collection of link ids it
        traverses.  A flow traversing no capacity-bearing link is only
        limited by its own cap (infinite if uncapped).
    capacities:
        Link id → capacity (must be positive).
    flow_caps:
        Optional per-flow rate ceilings (``inf`` = uncapped).

    Returns
    -------
    list of rates, one per flow, in input order.

    Raises
    ------
    ValueError
        If a flow references an unknown link or a capacity is non-positive.
    """
    n = len(flow_links)
    if flow_caps is None:
        flow_caps = [float("inf")] * n
    if len(flow_caps) != n:
        raise ValueError("flow_caps length must match flow_links length")

    for link, cap in capacities.items():
        if cap <= 0:
            raise ValueError(f"link {link!r} has non-positive capacity {cap}")

    # Normalize to sets; validate link references.
    flow_sets: list[frozenset] = []
    for i, links in enumerate(flow_links):
        s = frozenset(links)
        for link in s:
            if link not in capacities:
                raise ValueError(f"flow {i} references unknown link {link!r}")
        flow_sets.append(s)

    rates = [0.0] * n
    remaining = dict(capacities)
    active = set(range(n))

    # Flows with no links and no cap would have infinite rate — callers
    # should never construct them, but guard against an endless loop.
    for i in list(active):
        if not flow_sets[i] and flow_caps[i] == float("inf"):
            raise ValueError(f"flow {i} has no links and no cap (infinite rate)")

    # Active flow count per link.
    link_users: dict[Hashable, int] = {}
    for i in active:
        for link in flow_sets[i]:
            link_users[link] = link_users.get(link, 0) + 1

    while active:
        # Smallest uniform increment that saturates a link or a flow cap.
        increment = float("inf")
        for link, users in link_users.items():
            if users > 0:
                increment = min(increment, remaining[link] / users)
        for i in active:
            headroom = flow_caps[i] - rates[i]
            increment = min(increment, headroom)
        if increment == float("inf"):  # pragma: no cover - guarded above
            break
        increment = max(increment, 0.0)

        # Apply the increment and spend link capacity.
        for i in active:
            rates[i] += increment
        for link, users in link_users.items():
            if users > 0:
                remaining[link] -= increment * users

        # Freeze flows on saturated links or at their cap.  Both tests are
        # cap/capacity-relative so that epsilon-sized caps (1e-12-ish) are
        # resolved exactly instead of being frozen together.
        frozen = set()
        for i in active:
            if rates[i] >= flow_caps[i] * (1.0 - REL_TOL):
                frozen.add(i)
                continue
            for link in flow_sets[i]:
                if remaining[link] <= REL_TOL * capacities[link]:
                    frozen.add(i)
                    break
        if not frozen:
            # Numerical stall: freeze everything touching the tightest
            # link.  "Tightest" must be judged by *relative* headroom —
            # ranking by absolute remaining capacity picks whichever link
            # is smallest in raw units, which for flows sharing links of
            # very different capacities is usually not the link actually
            # binding them.
            tightest = min(
                (link for link, users in link_users.items() if users > 0),
                key=lambda link: remaining[link] / capacities[link],
                default=None,
            )
            if tightest is None:
                break
            frozen = {i for i in active if tightest in flow_sets[i]}
            if not frozen:  # pragma: no cover - defensive
                break

        for i in frozen:
            active.discard(i)
            for link in flow_sets[i]:
                link_users[link] -= 1

    return rates


def equal_split_rates(
    flow_links: Sequence[Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    flow_caps: Sequence[float] | None = None,
) -> list[float]:
    """Naive equal-split allocation (ablation baseline, not max-min).

    Each flow gets the minimum over its links of ``capacity / users`` —
    no redistribution of capacity freed by flows bottlenecked elsewhere.
    Always feasible, never work-conserving; used by the sharing-model
    ablation benchmark to quantify what max-min fairness buys.
    """
    n = len(flow_links)
    if flow_caps is None:
        flow_caps = [float("inf")] * n
    if len(flow_caps) != n:
        raise ValueError("flow_caps length must match flow_links length")

    users: dict[Hashable, int] = {}
    flow_sets = [frozenset(links) for links in flow_links]
    for i, s in enumerate(flow_sets):
        for link in s:
            if link not in capacities:
                raise ValueError(f"flow {i} references unknown link {link!r}")
            users[link] = users.get(link, 0) + 1

    rates = []
    for i, s in enumerate(flow_sets):
        if not s:
            if flow_caps[i] == float("inf"):
                raise ValueError(
                    f"flow {i} has no links and no cap (infinite rate)"
                )
            rates.append(flow_caps[i])
            continue
        share = min(capacities[link] / users[link] for link in s)
        rates.append(min(share, flow_caps[i]))
    return rates


def allocation_is_feasible(
    flow_links: Sequence[Sequence[Hashable]],
    capacities: Mapping[Hashable, float],
    rates: Sequence[float],
    tolerance: float = 1e-6,
) -> bool:
    """Check that ``rates`` respects every link capacity (for tests)."""
    load: dict[Hashable, float] = {link: 0.0 for link in capacities}
    for links, rate in zip(flow_links, rates):
        for link in set(links):
            load[link] += rate
    return all(
        load[link] <= capacities[link] * (1 + tolerance) + tolerance
        for link in capacities
    )
