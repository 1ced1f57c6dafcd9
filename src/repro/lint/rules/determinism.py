"""Determinism rules (SIM001–SIM003).

The simulator's validation story (Figures 10–14) assumes that the same
scenario + seed always yields the same trace.  Wall-clock reads, the
process-global RNG, hash-order iteration and builtin ``hash()`` values
all break that silently: no test fails, the numbers are just no longer
reproducible.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.rules import Rule, register

#: Wall-clock entry points (resolved through import aliases).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``random`` module attributes that construct *explicit* generators —
#: these are fine; everything else on the module is the shared global RNG.
RANDOM_CONSTRUCTORS = frozenset({"random.Random", "random.SystemRandom"})

#: ``numpy.random`` attributes that construct explicit generators/seeds.
NUMPY_RANDOM_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


@register
class NoWallClock(Rule):
    """SIM001: no wall-clock reads in simulation code."""

    id = "SIM001"
    summary = "wall-clock call in simulation code"
    rationale = (
        "Simulated time is env.now; reading the host clock couples results "
        "to machine speed and invalidates trace reproducibility."
    )
    severity = Severity.ERROR
    fix_hint = "use env.now (simulated seconds); for harness progress output, suppress with a justified pragma"

    def applies_to(self, ctx: FileContext) -> bool:
        # The emulation package stands in for the *real machine*; it is
        # still a simulation, but its trial harness may legitimately
        # time itself.
        return ctx.outside_package_dir("emulation/")

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.resolve(node.func)
            if name in WALL_CLOCK_CALLS:
                yield self.diagnostic(
                    ctx, node, f"wall-clock call {name}() in simulation code"
                )


@register
class NoGlobalRandom(Rule):
    """SIM002: no process-global RNG; thread a seeded generator."""

    id = "SIM002"
    summary = "call on the process-global RNG"
    rationale = (
        "random.random()/np.random.rand() share hidden global state: any "
        "import-order or call-order change silently reshuffles every "
        "'random' draw in the run."
    )
    severity = Severity.ERROR
    fix_hint = (
        "construct random.Random(seed) or numpy.random.default_rng(seed) "
        "and pass it down as an explicit rng parameter"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.imports.resolve(node.func)
            if name is None:
                continue
            if name.startswith("random.") and name not in RANDOM_CONSTRUCTORS:
                yield self.diagnostic(
                    ctx, node, f"{name}() uses the process-global RNG"
                )
            elif name.startswith("numpy.random."):
                tail = name.removeprefix("numpy.random.")
                if tail not in NUMPY_RANDOM_CONSTRUCTORS:
                    yield self.diagnostic(
                        ctx, node, f"{name}() uses numpy's global RNG state"
                    )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_dict_view(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "keys")
        and not node.args
        and not node.keywords
    )


def _hash_calls(tree: ast.AST) -> Iterator[ast.Call]:
    """Builtin ``hash()`` calls outside a ``__hash__`` method."""
    exempt = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and func.name == "__hash__"
        for node in ast.walk(func)
    }
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and id(node) not in exempt
        ):
            yield node


@register
class NoUnorderedIteration(Rule):
    """SIM003: no hash-seed-dependent order or value in simulation code."""

    id = "SIM003"
    summary = "iteration order or value depends on string hashing"
    rationale = (
        "In wms/ and des/, loop order decides event tie-breaks (which "
        "ready task starts first).  Sets of strings iterate in "
        "PYTHONHASHSEED-dependent order, and min/max over dict views "
        "break ties by insertion position.  Anywhere, builtin hash() of "
        "a string changes with PYTHONHASHSEED, so a placement keyed on "
        "it changes from one process to the next."
    )
    severity = Severity.WARNING
    fix_hint = (
        "iterate sorted(...) with an explicit key; key placements on a "
        "stable checksum such as zlib.adler32; or justify with a pragma"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in _hash_calls(ctx.tree):
            yield self.diagnostic(
                ctx, node, "builtin hash() varies with PYTHONHASHSEED"
            )
        if not ctx.in_package_dir("wms/", "des/"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter):
                    yield self.diagnostic(
                        ctx, node.iter, "for-loop iterates a bare set"
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    if _is_set_expr(gen.iter):
                        yield self.diagnostic(
                            ctx, gen.iter, "comprehension iterates a bare set"
                        )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("min", "max") and node.args:
                    arg = node.args[0]
                    if _is_set_expr(arg) or _is_dict_view(arg):
                        yield self.diagnostic(
                            ctx,
                            arg,
                            f"{node.func.id}() over an unordered collection "
                            "breaks ties by hash/insertion order",
                        )
