"""Tests for the WRENCH-style Simulator facade and its CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import Config
from repro.obs import config_from_manifest
from repro.platform import platform_to_json
from repro.platform.presets import cori_spec, summit_spec
from repro.simulator import Simulator, main, run_workflow
from repro.storage import BBMode
from repro.workflow.swarp import make_swarp
from repro.workflow.synthetic import make_random_dag
from repro.workflow.wfformat import workflow_to_wfformat


@pytest.fixture
def files(tmp_path):
    platform_path = tmp_path / "platform.json"
    workflow_path = tmp_path / "workflow.json"
    platform_to_json(cori_spec(n_compute=1, n_bb_nodes=2), platform_path)
    workflow_to_wfformat(make_swarp(n_pipelines=2), path=workflow_path)
    return platform_path, workflow_path


def test_simulator_runs_from_files(files):
    platform_path, workflow_path = files
    trace = Simulator(platform_path, workflow_path).run()
    assert trace.makespan > 0
    assert len(trace.records) == 5


def test_simulator_accepts_objects():
    trace = Simulator(cori_spec(), make_swarp()).run()
    assert trace.makespan > 0


def test_simulator_modes_differ():
    """Striped across 2 BB nodes and private to one node are different
    executions (flows touch different disk channels)."""
    spec = cori_spec(n_compute=1, n_bb_nodes=2)
    wf = make_swarp(n_pipelines=1)
    private = Simulator(spec, wf, Config(bb_mode=BBMode.PRIVATE)).run()
    striped = Simulator(spec, wf, Config(bb_mode=BBMode.STRIPED)).run()
    assert private.makespan > 0 and striped.makespan > 0


def test_simulator_on_summit_uses_local_bbs():
    trace = Simulator(summit_spec(n_compute=1), make_swarp()).run()
    assert trace.makespan > 0


def test_simulator_fraction_zero_keeps_pfs_only():
    config = Config(
        input_fraction=0.0, intermediate_fraction=0.0, output_fraction=0.0
    )
    bb = Simulator(cori_spec(), make_swarp(), Config()).run()
    pfs_only = Simulator(cori_spec(), make_swarp(), config).run()
    # Intermediates over the 100 MB/s PFS are much slower than the BB.
    assert pfs_only.makespan > bb.makespan


def test_simulator_requires_compute_hosts():
    from repro.platform.spec import DiskSpec, HostRole, HostSpec, PlatformSpec

    spec = PlatformSpec(
        name="nocn",
        hosts=(
            HostSpec(
                name="pfs",
                cores=1,
                core_speed=1e9,
                disks=(DiskSpec("lustre", read_bandwidth=1e8, write_bandwidth=1e8),),
                role=HostRole.PFS,
            ),
        ),
    )
    with pytest.raises(ValueError, match="compute hosts"):
        Simulator(spec, make_swarp())


def test_simulator_requires_pfs_host():
    from repro.platform.spec import HostRole, HostSpec, PlatformSpec

    spec = PlatformSpec(
        name="nopfs",
        hosts=(
            HostSpec(name="cn0", cores=4, core_speed=1e9, role=HostRole.COMPUTE),
        ),
    )
    with pytest.raises(ValueError, match="pfs"):
        Simulator(spec, make_swarp())


@pytest.mark.parametrize(
    "workflow,makespan",
    [
        (lambda: make_swarp(n_pipelines=8, cores_per_task=1), 580.0451686399995),
        (lambda: make_random_dag(60, seed=3), 387.8655388513498),
    ],
    ids=["swarp", "random-dag"],
)
def test_striped_bb_is_one_service_for_the_whole_run(workflow, makespan):
    """A striped allocation is one service every compute host shares,
    holding the BB nodes' capacity once (2 × 6.4 TB), not once per host."""
    spec = cori_spec(n_compute=4, n_bb_nodes=2)
    wf = workflow()
    result = run_workflow(spec, wf, Config(bb_mode=BBMode.STRIPED))
    services = {
        id(result.engine.bb_for_host(h)): result.engine.bb_for_host(h)
        for h in ("cn0", "cn1", "cn2", "cn3")
    }
    assert len(services) == 1
    (service,) = services.values()
    assert service.capacity == 12.8e12
    assert result.makespan == makespan
    assert Simulator(spec, wf).run().makespan == makespan


def test_private_bb_node_independent_of_hash_seed():
    """The private allocation's BB node must not depend on
    PYTHONHASHSEED (builtin hash() of the owner's name did)."""
    script = (
        "import repro\n"
        "from repro.platform.presets import cori_spec\n"
        "from repro.workflow.swarp import make_swarp\n"
        "print(repr(repro.simulate(cori_spec(n_compute=4, n_bb_nodes=2), "
        "make_swarp(n_pipelines=8, cores_per_task=1), "
        "config={'bb_mode': 'private'}).makespan))\n"
    )
    src = str(Path(repro.__file__).parent.parent)
    makespans = set()
    for seed in ("0", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        makespans.add(float(out))
    assert len(makespans) == 1, makespans


def test_cli_manifest_records_the_switches_set(files, tmp_path):
    platform_path, workflow_path = files
    obs_dir = tmp_path / "telemetry"
    assert main(
        [
            "--platform", str(platform_path),
            "--workflow", str(workflow_path),
            "--obs-dir", str(obs_dir),
            "--monitors",
            "--profile",
        ]
    ) == 0
    manifest = json.loads((obs_dir / "manifest.json").read_text())
    config = config_from_manifest(manifest)
    assert config.monitors and config.profile
    assert config.obs_dir == str(obs_dir)


def test_simulate_manifest_records_the_switches_set(tmp_path):
    result = repro.simulate(
        cori_spec(n_compute=1, n_bb_nodes=2),
        make_swarp(n_pipelines=2),
        config=Config(monitors=True),
    )
    directory = result.export_telemetry(tmp_path / "telemetry")
    manifest = json.loads((directory / "manifest.json").read_text())
    assert config_from_manifest(manifest) == Config(monitors=True)


def test_cli_end_to_end(files, tmp_path, capsys):
    platform_path, workflow_path = files
    out = tmp_path / "trace.json"
    code = main(
        [
            "--platform", str(platform_path),
            "--workflow", str(workflow_path),
            "--mode", "private",
            "--input-fraction", "0.5",
            "-o", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "makespan:" in printed
    doc = json.loads(out.read_text())
    assert doc["makespan"] > 0
    assert len(doc["tasks"]) == 5


def test_cli_profile_flag(files, tmp_path, capsys):
    platform_path, workflow_path = files
    obs_dir = tmp_path / "telemetry"
    code = main(
        [
            "--platform", str(platform_path),
            "--workflow", str(workflow_path),
            "--profile",
            "--obs-dir", str(obs_dir),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "critical-path attribution" in printed
    assert "dominant:" in printed
    # The exported bundle includes a valid profile.
    from repro.obs import validate_obs_dir

    assert validate_obs_dir(obs_dir) == []
    assert (obs_dir / "profile.json").is_file()
    assert (obs_dir / "profile.folded").is_file()


def test_cli_profile_without_obs_dir(files, capsys):
    platform_path, workflow_path = files
    code = main(
        [
            "--platform", str(platform_path),
            "--workflow", str(workflow_path),
            "--profile",
        ]
    )
    assert code == 0
    assert "critical-path attribution" in capsys.readouterr().out


def test_cli_gantt(files, capsys):
    platform_path, workflow_path = files
    assert main(
        [
            "--platform", str(platform_path),
            "--workflow", str(workflow_path),
            "--gantt",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "legend: r=read" in out


def test_simulator_on_generated_fat_tree(tmp_path):
    """The facade runs on a topology-generated platform (BB-less)."""
    from repro.platform.topologies import build_fat_tree

    spec = build_fat_tree(pods=2, nodes_per_pod=2)
    trace = Simulator(spec, make_swarp(n_pipelines=2)).run()
    assert trace.makespan > 0
    hosts = {r.host for r in trace.records.values()}
    assert hosts <= {"cn0", "cn1", "cn2", "cn3"}


def test_simulator_on_generated_dragonfly():
    from repro.platform.topologies import build_dragonfly

    spec = build_dragonfly(groups=2, nodes_per_group=2)
    trace = Simulator(spec, make_swarp(n_pipelines=2)).run()
    assert trace.makespan > 0
