"""Tests for explicit host roles."""

import pytest

from repro.platform import (
    DiskSpec,
    HostRole,
    HostSpec,
    PlatformSpec,
    platform_from_json,
    platform_to_json,
)
from repro.platform.presets import cori_spec, summit_spec


def host(name, **kwargs):
    return HostSpec(name=name, cores=4, core_speed=1e9, **kwargs)


# ----------------------------------------------------------------------
# HostSpec role field
# ----------------------------------------------------------------------
def test_role_accepts_strings():
    assert host("n0", role="compute").role is HostRole.COMPUTE


def test_attached_to_requires_local_bb_role():
    with pytest.raises(ValueError, match="attached_to is only meaningful"):
        host("n0", role=HostRole.COMPUTE, attached_to="n1")


def test_attached_to_must_reference_existing_host():
    with pytest.raises(ValueError, match="unknown host"):
        PlatformSpec(
            "p",
            hosts=[host("buf", role=HostRole.LOCAL_BB, attached_to="ghost")],
        )


def test_hosts_with_role_and_has_roles():
    spec = PlatformSpec(
        "p",
        hosts=[
            host("worker", role="compute"),
            host("store", role="pfs"),
            host("nameless"),
        ],
    )
    assert [h.name for h in spec.hosts_with_role("compute")] == ["worker"]
    assert not spec.has_roles


# ----------------------------------------------------------------------
# Names confer no role: the simulator rejects a host without one
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["pfs", "cn0", "cn12", "bb0", "cn0-bb", "login1"])
def test_simulator_rejects_host_without_role(name):
    from repro.simulator import Simulator
    from repro.workflow.swarp import make_swarp

    hosts = [
        host("worker", role="compute"),
        HostSpec(
            name="store",
            cores=1,
            core_speed=1e9,
            role=HostRole.PFS,
            disks=(DiskSpec("lustre", 1e8, 1e8),),
        ),
        host(name),
    ]
    with pytest.raises(ValueError, match=f"host {name!r} declares no role"):
        Simulator(PlatformSpec("p", hosts=hosts), make_swarp())


def test_simulator_rejects_roleless_platform():
    # A platform described by names alone, as before roles were declared.
    from repro.simulator import Simulator
    from repro.workflow.swarp import make_swarp

    spec = PlatformSpec("p", hosts=[host("login1")])
    with pytest.raises(ValueError, match="host 'login1' declares no role"):
        Simulator(spec, make_swarp())


def test_topology_generators_declare_roles():
    from repro.platform.topologies import build_dragonfly, build_fat_tree

    for spec in (build_fat_tree(), build_dragonfly()):
        assert spec.has_roles, spec.name
        assert [h.name for h in spec.hosts_with_role("pfs")] == ["pfs"]


# ----------------------------------------------------------------------
# Presets and serialization
# ----------------------------------------------------------------------
def test_presets_declare_explicit_roles():
    for spec in (cori_spec(n_compute=2, n_bb_nodes=1), summit_spec(n_compute=2)):
        assert spec.has_roles, spec.name
    summit = summit_spec(n_compute=1)
    assert summit.host("cn0-bb").attached_to == "cn0"


def test_roles_round_trip_through_json(tmp_path):
    spec = PlatformSpec(
        "p",
        hosts=[
            host("worker", role="compute"),
            HostSpec(
                name="buf",
                cores=1,
                core_speed=1e9,
                role=HostRole.LOCAL_BB,
                attached_to="worker",
                disks=(DiskSpec("nvme", 1e9, 1e9),),
            ),
            host("legacy"),  # role=None must survive a round-trip too
        ],
    )
    path = tmp_path / "platform.json"
    platform_to_json(spec, path)
    loaded = platform_from_json(path)
    assert loaded.host("worker").role is HostRole.COMPUTE
    assert loaded.host("buf").role is HostRole.LOCAL_BB
    assert loaded.host("buf").attached_to == "worker"
    assert loaded.host("legacy").role is None
