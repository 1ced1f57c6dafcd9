"""Integration tests: the scenario builders reproduce the paper's shapes.

Each test asserts a qualitative finding of the paper (orderings,
monotone trends, plateaus) rather than absolute numbers — the repo's
contract is that the *shapes* hold.
"""

import pytest

from repro.scenarios import run_genomes, run_swarp
from repro.storage import BBMode


# ----------------------------------------------------------------------
# Basic contract
# ----------------------------------------------------------------------
def test_run_swarp_returns_complete_result():
    r = run_swarp(n_pipelines=2)
    assert r.makespan > 0
    assert len(r.trace.records) == 5  # stage_in + 2×(resample+combine)
    assert r.workflow.name.startswith("swarp")


def test_run_swarp_validation():
    with pytest.raises(ValueError):
        run_swarp(system="frontier")
    with pytest.raises(ValueError):
        run_swarp(input_fraction=1.5)


def test_run_genomes_validation():
    with pytest.raises(ValueError):
        run_genomes(system="frontier")
    with pytest.raises(ValueError):
        run_genomes(n_compute=0)


def test_emulated_run_is_seed_reproducible():
    a = run_swarp(emulated=True, seed=7).makespan
    b = run_swarp(emulated=True, seed=7).makespan
    assert a == b


def test_emulated_seeds_differ():
    a = run_swarp(emulated=True, seed=1, bb_mode=BBMode.STRIPED).makespan
    b = run_swarp(emulated=True, seed=2, bb_mode=BBMode.STRIPED).makespan
    assert a != b


def test_pure_simulation_is_deterministic():
    a = run_swarp(emulated=False).makespan
    b = run_swarp(emulated=False).makespan
    assert a == b


# ----------------------------------------------------------------------
# Figure 4 shapes: stage-in
# ----------------------------------------------------------------------
def stage_in(system, fraction, **kw):
    r = run_swarp(
        system=system,
        input_fraction=fraction,
        emulated=True,
        seed=None,
        **kw,
    )
    return r.trace.task_record("stage_in").duration


def test_stage_in_grows_with_fraction():
    times = [stage_in("cori", f) for f in (0.0, 0.5, 1.0)]
    assert times[0] < times[1] < times[2]


def test_stage_in_onnode_beats_shared():
    """Paper: Summit outperforms Cori's shared BB by up to ~5×."""
    cori = stage_in("cori", 1.0, bb_mode=BBMode.PRIVATE)
    summit = stage_in("summit", 1.0)
    assert cori / summit > 3.0


def test_stage_in_striped_worst():
    private = stage_in("cori", 1.0, bb_mode=BBMode.PRIVATE)
    striped = stage_in("cori", 1.0, bb_mode=BBMode.STRIPED)
    assert striped > private


def test_striped_anomaly_at_75_percent():
    """Paper: reproducible degradation when 75% of inputs are staged."""
    t50 = stage_in("cori", 0.5, bb_mode=BBMode.STRIPED)
    t75 = stage_in("cori", 0.75, bb_mode=BBMode.STRIPED)
    t100 = stage_in("cori", 1.0, bb_mode=BBMode.STRIPED)
    linear_estimate = t50 * 1.5
    assert t75 > 1.3 * linear_estimate  # the bump
    assert t100 < t75  # improves again past the band


# ----------------------------------------------------------------------
# Figure 5 shapes: task times across tiers
# ----------------------------------------------------------------------
def task_time(group, system, fraction, inter_bb, mode=BBMode.PRIVATE):
    kw = {} if system == "summit" else {"bb_mode": mode}
    r = run_swarp(
        system=system,
        input_fraction=fraction,
        intermediates_in_bb=inter_bb,
        include_stage_in=False,
        emulated=True,
        seed=None,
        **kw,
    )
    return r.mean_duration(group)


def test_private_resample_improves_with_staged_inputs():
    t0 = task_time("resample", "cori", 0.0, True)
    t1 = task_time("resample", "cori", 1.0, True)
    assert t1 < t0


def test_bb_intermediates_beat_pfs():
    """Paper: writing Resample output to the BB beats the PFS."""
    bb = task_time("resample", "cori", 1.0, True)
    pfs = task_time("resample", "cori", 1.0, False)
    assert bb < pfs


def test_private_combine_nearly_constant():
    """Paper: Combine reads from one layer, so it is flat in the sweep."""
    times = [task_time("combine", "cori", f, True) for f in (0.0, 0.5, 1.0)]
    assert max(times) / min(times) < 1.05


def test_striped_slower_than_private():
    private = task_time("resample", "cori", 1.0, True, BBMode.PRIVATE)
    striped = task_time("resample", "cori", 1.0, True, BBMode.STRIPED)
    assert striped > 1.1 * private


def test_onnode_fastest_configuration():
    onnode = task_time("resample", "summit", 1.0, True)
    private = task_time("resample", "cori", 1.0, True)
    assert onnode < private


# ----------------------------------------------------------------------
# Figure 6 shapes: cores per task
# ----------------------------------------------------------------------
def resample_at_cores(system, cores):
    kw = {} if system == "summit" else {"bb_mode": BBMode.PRIVATE}
    r = run_swarp(
        system=system,
        input_fraction=1.0,
        cores_per_task=cores,
        include_stage_in=False,
        emulated=True,
        seed=None,
        **kw,
    )
    return r.mean_duration("resample")


def test_resample_parallelism_plateaus_on_shared():
    """Paper: benefit up to ~8 cores, then slight degradation."""
    t1 = resample_at_cores("cori", 1)
    t8 = resample_at_cores("cori", 8)
    t32 = resample_at_cores("cori", 32)
    assert t8 < t1 / 2           # real speedup up to 8
    assert t32 > 0.9 * t8        # no meaningful gain past 8


def test_combine_does_not_benefit_from_cores():
    def combine_at(cores):
        r = run_swarp(
            system="cori",
            bb_mode=BBMode.PRIVATE,
            input_fraction=1.0,
            cores_per_task=cores,
            include_stage_in=False,
            emulated=True,
            seed=None,
        )
        return r.mean_duration("combine")

    assert combine_at(32) > 0.85 * combine_at(1)


# ----------------------------------------------------------------------
# Figure 7 shapes: concurrent pipelines
# ----------------------------------------------------------------------
def resample_at_pipelines(system, n):
    kw = {} if system == "summit" else {"bb_mode": BBMode.PRIVATE}
    r = run_swarp(
        system=system,
        input_fraction=1.0,
        outputs_in_bb=True,
        n_pipelines=n,
        cores_per_task=1,
        include_stage_in=False,
        emulated=True,
        seed=None,
        **kw,
    )
    return r.mean_duration("resample")


def test_cori_pipelines_contend():
    """Paper: up to ~3× slowdown with 32 concurrent pipelines."""
    slowdown = resample_at_pipelines("cori", 32) / resample_at_pipelines("cori", 1)
    assert slowdown > 1.5


def test_summit_pipelines_nearly_flat():
    """Paper: degradation nearly negligible for Resample on-node."""
    slowdown = resample_at_pipelines("summit", 32) / resample_at_pipelines(
        "summit", 1
    )
    assert slowdown < 1.3


def test_summit_flatter_than_cori():
    cori = resample_at_pipelines("cori", 32) / resample_at_pipelines("cori", 1)
    summit = resample_at_pipelines("summit", 32) / resample_at_pipelines(
        "summit", 1
    )
    assert summit < cori


# ----------------------------------------------------------------------
# 1000Genomes case study shapes (Figures 13/14)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def genomes_curves():
    fractions = (0.0, 0.4, 0.8, 1.0)
    return {
        system: {
            f: run_genomes(
                system=system, input_fraction=f, n_chromosomes=4, n_compute=4
            ).makespan
            for f in fractions
        }
        for system in ("cori", "summit")
    }


def test_genomes_makespan_falls_with_staging(genomes_curves):
    for system in ("cori", "summit"):
        curve = genomes_curves[system]
        assert curve[0.0] > curve[0.4] > curve[0.8] >= curve[1.0] * 0.999


def test_genomes_summit_beats_cori(genomes_curves):
    for f in (0.4, 0.8, 1.0):
        assert genomes_curves["summit"][f] < genomes_curves["cori"][f]


def test_genomes_cori_plateaus_before_summit(genomes_curves):
    """Paper: Cori saturates ~80% staged; Summit keeps improving."""
    cori_tail = genomes_curves["cori"][0.8] - genomes_curves["cori"][1.0]
    summit_tail = genomes_curves["summit"][0.8] - genomes_curves["summit"][1.0]
    assert summit_tail > cori_tail


# ----------------------------------------------------------------------
# The paper's conjecture: more BB nodes lift Cori's saturation
# ----------------------------------------------------------------------
def test_more_bb_nodes_lift_cori_saturation():
    """Paper (Section IV-C): "a striped BB allocation would improve the
    performance in this case by using more BB nodes and, therefore,
    alleviating the pressure on the bandwidth"."""
    one = run_genomes(
        system="cori", input_fraction=1.0, n_chromosomes=4, n_compute=4,
        n_bb_nodes=1,
    ).makespan
    four = run_genomes(
        system="cori", input_fraction=1.0, n_chromosomes=4, n_compute=4,
        n_bb_nodes=4,
    ).makespan
    assert four < one


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------
def test_importing_scenarios_does_not_load_scipy():
    """No simulation fits anything, so scipy loads only with the fit."""
    import subprocess
    import sys

    code = (
        "import sys, repro.scenarios; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def test_finished_run_leaves_no_flow_in_cyclic_garbage():
    """A completed transfer is freed by reference counting: no Flow
    should wait for the cycle collector after a run."""
    import gc

    from repro.network import Flow

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_swarp(n_pipelines=2)
        gc.collect()
        cyclic_flows = [o for o in gc.garbage if isinstance(o, Flow)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert cyclic_flows == []
