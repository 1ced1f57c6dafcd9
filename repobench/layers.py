"""Per-layer ledger of one simulation, measured from outside the program.

A traced operation runs under :mod:`cProfile`, a deterministic profiler
that needs no change to the code it measures.  Its stats are reduced here:

* **self time by layer** — every function's own time is charged to the
  ``repro.<layer>`` subpackage whose file defines it.  Time in C, builtin
  and third-party Python functions (numpy, heapq, ...) is charged to the
  ``repro`` code that called them, split over callers by the profiler's
  per-caller edge times and followed upwards through non-``repro`` callers.
  Time that reaches no layer (top-level ``repro`` modules such as
  ``scenarios``, non-layer subpackages such as ``traces``, the benchmark
  itself, and profiler overhead outside any function) is *unattributed*.
* **counts** — call counts of each layer's public entry points, read from
  the same stats by code object.  Nothing is wrapped or replaced:
  ``FlowNetwork`` picks its engine path by the identity of the allocator
  callable, so a wrapper would silently change what is measured.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import pstats
import time
from typing import Any, Callable, Optional

import repro

#: The ``repro`` subpackages that run during a simulation.
LAYERS = (
    "des", "network", "perf", "storage", "compute",
    "wms", "workflow", "platform", "emulation", "obs",
)

#: Per-layer counters: metric name -> entry points (``module``,
#: ``Class.attr`` or ``function``).  An entry point a later version of the
#: code no longer has counts as 0, so one benchmark can compare both sides
#: of a change that deletes it.
ENTRY_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "des.events": (("repro.des.environment", "Environment.step"),),
    "network.transfers": (("repro.network.flownet", "FlowNetwork.transfer"),),
    "network.rate_solves": (
        ("repro.network.fairshare", "max_min_fair_rates"),
        ("repro.network.fairshare", "equal_split_rates"),
        ("repro.perf.vectorized", "VectorizedMaxMin.solve"),
        ("repro.perf.incremental", "IncrementalMaxMin.solve"),
    ),
    "storage.reads": (("repro.storage.base", "StorageService.read"),),
    "storage.writes": (("repro.storage.base", "StorageService.write"),),
    "storage.used_calls": (("repro.storage.base", "StorageService.used"),),
    "compute.core_requests": (
        ("repro.compute.service", "ComputeService.acquire_cores"),
    ),
    "wms.policy_selects": (("repro.wms.policies", "QueuePolicy.select"),),
    "wms.plan_requests": (("repro.wms.policies", "PlanCoordinator.request"),),
    "obs.hook_calls": (("repro.obs.observer", "Observer.on_*"),),
}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

FuncKey = tuple[str, int, str]


def _code_key(func: Any) -> Optional[FuncKey]:
    func = getattr(func, "fget", func)  # properties count their getter
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _resolve(module: str, path: str) -> set[FuncKey]:
    """Code keys of one entry point, as the profiler names them.

    ``Class.attr`` also collects every subclass's own ``attr`` (all
    ``QueuePolicy.select`` implementations); ``Class.on_*`` every method
    with that prefix.
    """
    try:
        obj: Any = importlib.import_module(module)
    except ImportError:
        return set()
    head, _, attr = path.rpartition(".")
    if head:
        obj = getattr(obj, head, None)
        if obj is None:
            return set()
        classes = [obj]
        stack = list(obj.__subclasses__())
        while stack:
            sub = stack.pop()
            classes.append(sub)
            stack.extend(sub.__subclasses__())
        if attr.endswith("*"):
            names = [n for n in dir(obj) if n.startswith(attr[:-1])]
        else:
            names = [attr]
        funcs = [cls.__dict__[n] for cls in classes for n in names
                 if n in cls.__dict__]
    else:
        funcs = [getattr(obj, attr, None)]
    return {key for key in map(_code_key, funcs) if key is not None}


def entry_point_keys() -> dict[str, set[FuncKey]]:
    """Counter name -> the profiler keys whose calls it sums."""
    return {
        name: set().union(*(_resolve(m, p) for m, p in points))
        for name, points in ENTRY_POINTS.items()
    }


def layer_of(filename: str) -> Optional[str]:
    """The layer defining ``filename``; ``""`` for other ``repro`` files;
    ``None`` outside ``repro`` (builtins, stdlib, numpy)."""
    if not filename.startswith(_REPRO_DIR):
        return None
    top = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
    return top if top in LAYERS else ""


def profile_call(fn: Callable[[], Any]) -> tuple[Any, dict, float]:
    """Run ``fn`` under cProfile: (its result, raw stats, traced wall s)."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    return result, pstats.Stats(profiler).stats, wall


def self_time_by_layer(stats: dict) -> dict[str, float]:
    """Self seconds per layer, ``""`` holding what reaches no layer.

    The values sum to the profiler's total self time.
    """
    upward: dict[FuncKey, dict[str, float]] = {}
    visiting: set[FuncKey] = set()

    def share(func: FuncKey, edge: int) -> dict[str, float]:
        """How ``func``'s time splits over buckets: own layer for ``repro``
        code, else over its callers by the caller-edge field ``edge`` of
        the profiler's ``(calls, primitive calls, self s, cumulative s)``,
        falling back to call counts."""
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if edge == 3 and func in upward:
            return upward[func]
        if func in visiting:
            return {"": 1.0}
        callers = stats[func][4] if func in stats else {}
        weights = {c: e[edge] for c, e in callers.items()}
        if sum(weights.values()) <= 0.0:
            weights = {c: e[0] for c, e in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            return {"": 1.0}
        visiting.add(func)
        out: dict[str, float] = {}
        for caller, weight in weights.items():
            for bucket, frac in share(caller, 3).items():
                out[bucket] = out.get(bucket, 0.0) + frac * weight / total
        visiting.discard(func)
        if edge == 3:
            upward[func] = out
        return out

    totals = {layer: 0.0 for layer in LAYERS}
    totals[""] = 0.0
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt:
            for bucket, frac in share(func, 2).items():
                totals[bucket] += tt * frac
    return totals


def call_counts(stats: dict, keys: dict[str, set[FuncKey]]) -> dict[str, int]:
    return {
        name: sum(stats[k][1] for k in funcs if k in stats)
        for name, funcs in keys.items()
    }


def ledger(stats: dict, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced operation.

    ``untraced_wall`` is the same operation's median wall time with tracing
    off, the base of ``trace_overhead`` and ``des.host_us_per_event``.
    """
    selfs = self_time_by_layer(stats)
    counts = call_counts(stats, entry_point_keys())
    profiled = sum(selfs.values())
    metrics: dict[str, float] = {f"{layer}.self_s": selfs[layer] for layer in LAYERS}
    metrics.update(counts)
    events = counts["des.events"]
    metrics["des.host_us_per_event"] = (
        untraced_wall * 1e6 / events if events else 0.0
    )
    metrics["network.solves_per_event"] = (
        counts["network.rate_solves"] / events if events else 0.0
    )
    # Unattributed: profiled self time reaching no layer, plus the traced
    # wall time the profiler saw in no function at all.
    metrics["unattributed_s"] = selfs[""] + (traced_wall - profiled)
    metrics["traced_wall_s"] = traced_wall
    metrics["trace_overhead"] = traced_wall / untraced_wall
    return metrics


def unit_of(metric: str) -> str:
    """The unit a ledger metric is reported in."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_per_event"):
        return "us" if metric.startswith("des.") else "1/event"
    if metric == "trace_overhead":
        return "ratio"
    return "count"

