"""Figure 14: 1000Genomes speedup from staging input into BBs.

Figure 13's data expressed as parallel speedup (makespan at 0% staged
divided by makespan at fraction f), compared against reference speedup
points from prior work (Ferreira da Silva et al. [10]).

The paper stresses that the reference points come from a *different*
configuration — a 2-chromosome instance, an older software stack, and a
different system load — so it treats them as "an interesting reference
point, rather than ... a thorough validation", reporting ≈ 29% error.
We reproduce the comparison structure faithfully: our reference points
are produced by the *emulator* on a 2-chromosome instance (standing in
for the prior measured study), while the simulated curve uses the full
22-chromosome instance, mirroring the paper's mismatch.

Sweep-wise this is the one heterogeneous experiment: the point list
mixes simulated-makespan points (``kind="sim"``) and emulated reference
points (``kind="ref"``), and the speedup ratios are formed from the raw
makespans when the rows are assembled.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from repro.config import Config
from repro.emulation.calibration import CORI_EFFECTS
from repro.emulation.trials import run_trials
from repro.experiments.common import ExperimentResult, sweep_values
from repro.network import DEFAULT_ALLOCATOR
from repro.model import mean_relative_error
from repro.platform.units import MB
from repro.scenarios import run_genomes
from repro.sweep import SweepOptions, SweepSpec, point_id

FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
REFERENCE_FRACTIONS = (0.4, 0.8, 1.0)  # the prior study measured a few points

#: The reference study ([10]) ran years before the paper's experiments on
#: an older, more loaded software stack (the paper's own caveats: "several
#: aspects of the system have been upgraded ... the load on the system is
#: never the same").  We encode that era difference as a slower effective
#: PFS in the reference emulation.
REFERENCE_ERA_EFFECTS = replace(CORI_EFFECTS, pfs_disk_bandwidth=50 * MB)


def simulated_makespan(
    system: str,
    fraction: float,
    n_chromosomes: int,
    network_allocator: Optional[str] = None,
) -> float:
    return run_genomes(
        system=system,
        input_fraction=fraction,
        n_chromosomes=n_chromosomes,
        n_compute=8,
        network_allocator=network_allocator,
    ).makespan


def reference_makespan(fraction: float, n_trials: int) -> float:
    """Emulated 2-chromosome Cori reference (the prior-work stand-in)."""

    def emulated(seed: int) -> float:
        return run_genomes(
            system="cori",
            input_fraction=fraction,
            n_chromosomes=2,
            n_compute=8,
            emulated=True,
            seed=seed,
            effects=REFERENCE_ERA_EFFECTS,
        ).makespan

    return run_trials(emulated, n_trials=n_trials).mean


def compute_point(params: dict[str, Any]) -> float:
    """One sweep point: a raw makespan, simulated or emulated-reference."""
    if params["kind"] == "sim":
        return simulated_makespan(
            params["system"],
            params["fraction"],
            params["n_chromosomes"],
            network_allocator=params.get("network_allocator"),
        )
    return reference_makespan(params["fraction"], params["n_trials"])


def _fractions(quick: bool):
    return (0.0, 0.5, 1.0) if quick else FRACTIONS


def _sim_constants(config: "Config | None") -> dict[str, Any]:
    """Extra parameters for the simulated points (cache-key-neutral for
    the default allocator, exactly like fig13)."""
    cfg = Config.from_any(config)
    if cfg.network_allocator != DEFAULT_ALLOCATOR:
        return {"network_allocator": cfg.network_allocator}
    return {}


def sweep_spec(quick: bool = False, config: "Config | None" = None) -> SweepSpec:
    n_chromosomes = 6 if quick else 22
    ref_trials = 3 if quick else 5
    points: list[dict[str, Any]] = [
        {
            "kind": "sim",
            "system": system,
            "fraction": float(f),
            "n_chromosomes": n_chromosomes,
            **_sim_constants(config),
        }
        for system in ("cori", "summit")
        for f in _fractions(quick)
    ]
    points += [
        {"kind": "ref", "fraction": float(f), "n_trials": ref_trials}
        for f in (0.0,) + REFERENCE_FRACTIONS
    ]
    return SweepSpec(
        sweep_id="fig14",
        func="repro.experiments.fig14:compute_point",
        points=tuple(points),
        # 2: the dense flow engine moved a few points by 1 ulp.
        version=2,
    )


def run(
    quick: bool = False,
    sweep: Optional[SweepOptions] = None,
    config: "Config | None" = None,
) -> ExperimentResult:
    n_chromosomes = 6 if quick else 22
    ref_trials = 3 if quick else 5
    fractions = _fractions(quick)
    values = sweep_values(sweep_spec(quick, config), sweep)
    sim_constants = _sim_constants(config)

    def sim(system: str, f: float) -> float:
        return values[
            point_id(
                {
                    "kind": "sim",
                    "system": system,
                    "fraction": float(f),
                    "n_chromosomes": n_chromosomes,
                    **sim_constants,
                }
            )
        ]

    def ref(f: float) -> float:
        return values[
            point_id({"kind": "ref", "fraction": float(f), "n_trials": ref_trials})
        ]

    cori = {f: sim("cori", 0.0) / sim("cori", f) for f in fractions}
    summit = {f: sim("summit", 0.0) / sim("summit", f) for f in fractions}
    reference = {f: ref(0.0) / ref(f) for f in REFERENCE_FRACTIONS}

    result = ExperimentResult(
        experiment_id="fig14",
        title="1000Genomes speedup from staging input into BBs "
        "(+ prior-work reference points)",
        columns=("fraction", "cori_speedup", "summit_speedup", "reference"),
    )
    for f in fractions:
        result.add_row(f, cori[f], summit[f], reference.get(f, float("nan")))

    common = [f for f in reference if f in cori]
    if common:
        err = mean_relative_error(
            [reference[f] for f in common], [cori[f] for f in common]
        )
        result.notes.append(
            f"error vs. 2-chromosome reference: {err:.1%} "
            "(paper: ~29%, attributed to the configuration mismatch)"
        )
    return result
