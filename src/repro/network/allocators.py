"""The rate-allocator registry: named bandwidth-sharing disciplines.

An allocator is any callable satisfying the :class:`RateAllocator`
protocol, registered under a short string id that configs, sweep points
and CLI flags can carry.  :class:`~repro.network.FlowNetwork` has one
event path whatever the allocator: it tracks dirty connected components
of the flow/link graph and re-solves only those at the end of each
instant.  The allocator chooses only how one dirty component's rates are
computed.

Built-in allocators:

``max-min``
    :func:`repro.perf.vectorized_max_min_rates` — max-min fairness (the
    paper's model, SimGrid's fluid model) by dense water-filling over
    identical-constraint flow groups.  The default.
``equal-split``
    :func:`~repro.network.fairshare.equal_split_rates` — the ablation
    baseline (feasible, not work-conserving).

Any other callable is applied to a dirty component's member flows.
:func:`~repro.network.fairshare.max_min_fair_rates`, the
progressive-filling oracle, is kept as the reference the differential
tests compare the kernel against; direct calls to it outside
``repro.network`` / ``repro.perf`` are rejected by lint rule SIM060.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Optional, Protocol, Sequence

from repro.network.fairshare import equal_split_rates
from repro.perf.vectorized import vectorized_max_min_rates


class RateAllocator(Protocol):
    """A bandwidth-sharing discipline.

    Given each flow's traversed links, per-link capacities, and optional
    per-flow rate caps, return one rate per flow (input order).  The
    returned allocation must be feasible (see
    :func:`~repro.network.fairshare.allocation_is_feasible`).
    """

    def __call__(
        self,
        flow_links: Sequence[Sequence[Hashable]],
        capacities: Mapping[Hashable, float],
        flow_caps: "Sequence[float] | None" = None,
    ) -> list[float]: ...


#: Registry of named allocators. Mutate through :func:`register_allocator`.
_ALLOCATORS: dict[str, RateAllocator] = {}

#: The default allocator name (the paper's sharing model).
DEFAULT_ALLOCATOR = "max-min"


def register_allocator(name: str, allocator: RateAllocator) -> RateAllocator:
    """Register ``allocator`` under ``name`` (idempotent re-registration
    of the same callable is allowed; rebinding a name is an error)."""
    existing = _ALLOCATORS.get(name)
    if existing is not None and existing is not allocator:
        raise ValueError(f"allocator name {name!r} is already registered")
    _ALLOCATORS[name] = allocator
    return allocator


def allocator_names() -> list[str]:
    """All registered allocator names."""
    return sorted(_ALLOCATORS)


def resolve_allocator(
    spec: "str | RateAllocator | None",
) -> RateAllocator:
    """Resolve a registry name, callable, or ``None`` to an allocator.

    ``None`` resolves to the default (``max-min``); callables pass
    through unchanged.
    """
    if spec is None:
        spec = DEFAULT_ALLOCATOR
    if callable(spec):
        return spec
    try:
        return _ALLOCATORS[spec]
    except KeyError:
        raise ValueError(
            f"unknown allocator {spec!r} (choose from "
            f"{', '.join(sorted(_ALLOCATORS))})"
        ) from None


register_allocator("max-min", vectorized_max_min_rates)
register_allocator("equal-split", equal_split_rates)
