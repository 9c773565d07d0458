"""The MSU's administrative interface and bookkeeping edges."""

import pytest

from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.core.msu.msu import Msu
from repro.errors import StorageError
from repro.hardware.params import MachineParams
from repro.media import MpegEncoder, packetize_cbr
from repro.net.network import Network
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE


def bare_msu(sim):
    net = Network(sim, "delivery")
    return Msu(
        sim, "m0", net,
        machine_params=MachineParams(name="m0", disks_per_hba=(2,)),
        ibtree_config=SMALL_PAGES,
    )


class TestAdminLoad:
    def test_load_sets_duration_and_root(self, sim):
        msu = bare_msu(sim)
        packets = packetize_cbr(MpegEncoder(seed=1).bitstream(5.0), MPEG1_RATE, 1024)
        disk = msu.disk_ids()[0]
        handle = msu.admin_load(disk, "movie", "mpeg1", packets)
        assert handle.duration_us == packets[-1][0]
        assert handle.nblocks >= 2
        assert handle.root is not None

    def test_load_costs_no_sim_time(self, sim):
        msu = bare_msu(sim)
        packets = packetize_cbr(MpegEncoder(seed=1).bitstream(2.0), MPEG1_RATE, 1024)
        msu.admin_load(msu.disk_ids()[0], "movie", "mpeg1", packets)
        assert sim.now == 0.0

    def test_duplicate_load_rejected(self, sim):
        msu = bare_msu(sim)
        disk = msu.disk_ids()[0]
        msu.admin_load(disk, "movie", "mpeg1", [(0, b"x" * 100)])
        with pytest.raises(StorageError):
            msu.admin_load(disk, "movie", "mpeg1", [(0, b"x" * 100)])

    def test_explicit_duration_override(self, sim):
        msu = bare_msu(sim)
        handle = msu.admin_load(
            msu.disk_ids()[0], "clip", "mpeg1", [(0, b"x")], duration_us=999
        )
        assert handle.duration_us == 999

    def test_free_blocks_shrink(self, sim):
        msu = bare_msu(sim)
        disk = msu.disk_ids()[0]
        before = msu.free_blocks(disk)
        packets = packetize_cbr(MpegEncoder(seed=1).bitstream(5.0), MPEG1_RATE, 1024)
        handle = msu.admin_load(disk, "movie", "mpeg1", packets)
        assert msu.free_blocks(disk) == before - handle.nblocks


class TestFastScanLinks:
    def test_link_requires_loaded_companions(self, sim):
        msu = bare_msu(sim)
        disk = msu.disk_ids()[0]
        msu.admin_load(disk, "movie", "mpeg1", [(0, b"x")])
        with pytest.raises(StorageError):
            msu.admin_link_fast_scan(disk, "movie", ff_name="movie.ff")

    def test_link_records_both_directions(self, sim):
        msu = bare_msu(sim)
        disk = msu.disk_ids()[0]
        msu.admin_load(disk, "movie", "mpeg1", [(0, b"x")])
        msu.admin_load(disk, "movie.ff", "mpeg1", [(0, b"y")])
        msu.admin_load(disk, "movie.fb", "mpeg1", [(0, b"z")])
        msu.admin_link_fast_scan(disk, "movie", "movie.ff", "movie.fb")
        handle = msu.filesystems[disk].open("movie")
        assert handle.fast_forward == "movie.ff"
        assert handle.fast_backward == "movie.fb"


class TestDiskTopology:
    def test_disk_ids_sorted_and_match_machine(self, sim):
        msu = bare_msu(sim)
        assert msu.disk_ids() == ["m0.sd0", "m0.sd1"]
        assert set(msu.filesystems) == set(msu.disk_ids())
        assert set(msu.disk_processes) == set(msu.disk_ids())

    def test_machine_name_follows_msu(self, sim):
        net = Network(sim, "d")
        msu = Msu(sim, "renamed", net,
                  machine_params=MachineParams(name="other", disks_per_hba=(1,)))
        assert msu.machine.name == "renamed"
        assert msu.disk_ids() == ["renamed.sd0"]


class TestClusterHelpers:
    def test_msu_named(self):
        sim = Simulator()
        cluster = CalliopeCluster(
            sim, ClusterConfig(n_msus=2, ibtree_config=SMALL_PAGES)
        )
        assert cluster.msu_named("msu1") is cluster.msus[1]
        from repro.errors import CalliopeError

        with pytest.raises(CalliopeError):
            cluster.msu_named("msu9")

    def test_load_composite_places_on_one_msu(self):
        sim = Simulator()
        cluster = CalliopeCluster(
            sim, ClusterConfig(n_msus=2, ibtree_config=SMALL_PAGES)
        )
        cluster.load_composite(
            "sem", "seminar",
            {"rtp-video": [(0, b"v" * 50)], "vat-audio": [(0, b"a" * 50)]},
            msu_index=1,
        )
        video = cluster.coordinator.db.content("sem.rtp-video")
        audio = cluster.coordinator.db.content("sem.vat-audio")
        assert video.msu_name == audio.msu_name == "msu1"
        composite = cluster.coordinator.db.content("sem")
        assert composite.type_name == "seminar"
