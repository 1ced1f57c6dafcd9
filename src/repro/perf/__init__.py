"""The flow engine's rate solver: dirty-component dense water-filling.

Max-min fairness decomposes exactly over the connected components of the
bipartite flow/link graph, so an admit or drain can only change rates
inside the component(s) it touches.  :class:`VectorizedMaxMin` tracks
that graph at the granularity of identical-constraint flow groups and
re-solves only dirty components, each with the dense water-filling
kernel (:func:`vectorized_max_min_rates`, the registry's ``"max-min"``
allocator).  :class:`FlowSlots` holds the per-flow progress arrays the
flow network advances and sweeps in whole-array operations.

The kernel's rates track the progressive-filling oracle
(:func:`repro.network.fairshare.max_min_fair_rates`) to well inside
1e-9 relative; the differential suite in ``tests/perf/`` enforces this
on randomized graphs and admit/drain interleavings (see
``docs/PERF.md``).  This package depends on numpy only, so
``repro.network`` can build on it without an import cycle.
"""

from repro.perf.vectorized import (
    FlowSlots,
    SolverStats,
    VectorizedMaxMin,
    static_capacity,
    vectorized_max_min_rates,
)

__all__ = [
    "FlowSlots",
    "SolverStats",
    "VectorizedMaxMin",
    "static_capacity",
    "vectorized_max_min_rates",
]
