"""Disk mechanics: seek curve, geometry, transfers, queue disciplines."""

import pytest

from repro.hardware import DiskDrive, HostBusAdapter, Machine, MachineParams, SeekPolicy
from repro.hardware.params import DiskParams
from repro.sim import Simulator
from repro.units import BLOCK_SIZE, to_mbyte_per_s
from tests.conftest import run_process
from tests.test_hardware_machine import _assert_interrupted_claim_frees


def make_disk(sim, policy=SeekPolicy.FCFS, params=DiskParams()):
    machine = Machine(sim, MachineParams(disks_per_hba=(1,), disk=params),
                      disk_policy=policy)
    return machine.disks[0], machine


def offset_of(disk, cylinder):
    """The first byte offset on ``cylinder``."""
    p = disk.params
    offset = -(-cylinder * p.capacity_bytes // p.cylinders)
    assert disk.cylinder_of(offset) == cylinder
    return offset


class TestGeometry:
    def test_cylinder_mapping_bounds(self, sim):
        disk, _ = make_disk(sim)
        assert disk.cylinder_of(0) == 0
        last = disk.cylinder_of(disk.params.capacity_bytes - 1)
        assert last == disk.params.cylinders - 1

    def test_offset_out_of_range(self, sim):
        disk, _ = make_disk(sim)
        with pytest.raises(ValueError):
            disk.cylinder_of(disk.params.capacity_bytes)
        with pytest.raises(ValueError):
            disk.cylinder_of(-1)

    def test_seek_time_monotone_in_distance(self, sim):
        disk, _ = make_disk(sim)
        times = [disk.seek_time(d) for d in (0, 1, 10, 100, 1000, 2699)]
        assert times[0] == 0.0
        assert all(a <= b for a, b in zip(times[1:], times[2:]))

    def test_full_stroke_seek_is_min_plus_max(self, sim):
        disk, _ = make_disk(sim)
        p = disk.params
        assert disk.seek_time(p.cylinders) == pytest.approx(p.seek_min + p.seek_max_extra)


class TestTransfer:
    def test_transfer_takes_mechanical_time(self, sim):
        disk, _ = make_disk(sim)
        run_process(sim, disk.transfer(0, BLOCK_SIZE))
        # At least the media time, at most media + worst seek + rotation + fudge.
        media = BLOCK_SIZE / disk.params.media_rate
        assert sim.now >= media
        assert sim.now <= media + 0.05

    def test_transfer_updates_stats(self, sim):
        disk, _ = make_disk(sim)
        run_process(sim, disk.transfer(0, BLOCK_SIZE))
        assert disk.bytes_transferred == BLOCK_SIZE
        assert disk.requests_served == 1
        assert disk.busy_time > 0

    def test_bad_sizes_rejected(self, sim):
        disk, _ = make_disk(sim)
        with pytest.raises(ValueError):
            list(disk.transfer(0, 0))

    def test_requests_serialize_on_one_arm(self, sim):
        disk, _ = make_disk(sim)

        def reader(offset):
            yield from disk.transfer(offset, BLOCK_SIZE)
            return sim.now

        p1 = sim.process(reader(0))
        p2 = sim.process(reader(BLOCK_SIZE * 100))
        sim.run()
        assert p2.value > p1.value  # strictly after: the arm is exclusive

    def test_throughput_single_disk_matches_table1(self, sim):
        """A lone disk reads random 256 KiB blocks at ~3.6 MB/s (Table 1)."""
        import numpy as np

        disk, _ = make_disk(sim)
        rng = np.random.default_rng(0)
        nblocks = disk.params.capacity_bytes // BLOCK_SIZE

        def reader():
            while True:
                offset = int(rng.integers(0, nblocks)) * BLOCK_SIZE
                yield from disk.transfer(offset, BLOCK_SIZE)

        sim.process(reader())
        sim.run(until=15.0)
        rate = to_mbyte_per_s(disk.throughput(15.0))
        assert 3.3 <= rate <= 3.9


class TestPolicies:
    def _run_many(self, policy, seed=7):
        import numpy as np

        sim = Simulator()
        disk, _ = make_disk(sim, policy=policy)
        rng = np.random.default_rng(seed)
        nblocks = disk.params.capacity_bytes // BLOCK_SIZE

        def reader():
            while True:
                offset = int(rng.integers(0, nblocks)) * BLOCK_SIZE
                yield from disk.transfer(offset, BLOCK_SIZE)

        for _ in range(16):
            sim.process(reader())
        sim.run(until=20.0)
        return disk

    def test_elevator_reduces_seek_distance(self):
        fcfs = self._run_many(SeekPolicy.FCFS)
        elevator = self._run_many(SeekPolicy.ELEVATOR)
        per_req_fcfs = fcfs.total_seek_distance / fcfs.requests_served
        per_req_elev = elevator.total_seek_distance / elevator.requests_served
        assert per_req_elev < per_req_fcfs

    def test_sstf_at_least_as_good_as_fcfs(self):
        fcfs = self._run_many(SeekPolicy.FCFS)
        sstf = self._run_many(SeekPolicy.SSTF)
        assert sstf.bytes_transferred >= fcfs.bytes_transferred

    @pytest.mark.parametrize("policy, order", [
        (SeekPolicy.FCFS, [1300, 1200, 800, 700, 2000]),
        # Idle grant at 1000 from the head at 2500 turns the scan downward.
        (SeekPolicy.ELEVATOR, [800, 700, 1200, 1300, 2000]),
        # 1200 and 800 tie at distance 200 from 1000: the earlier arrival wins.
        (SeekPolicy.SSTF, [1200, 1300, 800, 700, 2000]),
    ])
    def test_service_order_behind_a_busy_arm(self, sim, policy, order):
        """Five requests queue behind one at cylinder 1000; the policy
        alone decides the order they are served in."""
        disk, _ = make_disk(sim, policy=policy)
        disk.head_cylinder = 2500
        served = []

        def reader(cylinder):
            yield from disk.transfer(offset_of(disk, cylinder), BLOCK_SIZE)
            served.append(cylinder)

        for cylinder in [1000, 1300, 1200, 800, 700, 2000]:
            sim.process(reader(cylinder))
        sim.run()
        assert served == [1000] + order


class TestInterruptedClaims:
    """An MSU crash interrupts a disk process queued at the arm or the chain."""

    def test_queued_transfer_withdrawn_from_arm(self, sim):
        disk, _ = make_disk(sim)
        _assert_interrupted_claim_frees(
            sim, disk._arm, lambda: disk.transfer(0, BLOCK_SIZE)
        )

    def test_transfer_interrupted_after_arm_grant_posted(self, sim):
        """The interrupt is delivered at the holder's release instant, after
        the arm's grant to the queued transfer is posted and before that
        transfer resumes: the grant passes on instead of wedging the drive."""
        disk, _ = make_disk(sim)
        _assert_interrupted_claim_frees(
            sim, disk._arm, lambda: disk.transfer(0, BLOCK_SIZE),
            first=lambda: disk._arm.hold(0.01), at=0.01,
        )

    def test_transfer_queued_on_chain_behind_sibling(self, sim):
        """A sibling disk's chain hold blocks the transfer's command phase."""
        machine = Machine(sim, MachineParams(disks_per_hba=(2,)))
        disk = machine.disks[1]
        _assert_interrupted_claim_frees(
            sim, machine.hbas[0].bus, lambda: disk.transfer(0, BLOCK_SIZE),
            first=lambda: machine.hbas[0].bus.hold(0.5), at=0.25,
        )
        assert disk.requests_served == 1
        assert (disk._arm.in_use, disk._arm.queue_length) == (0, 0)


class TestChainSharing:
    def test_two_disks_one_chain_slower_each(self):
        """Chain + driver contention: each of two disks is slower than a
        lone disk (Table 1's 3.6 -> 2.8)."""
        import numpy as np

        def measure(topology):
            sim = Simulator()
            machine = Machine(sim, MachineParams(disks_per_hba=topology), seed=1)
            rng = np.random.default_rng(1)

            def reader(disk):
                nblocks = disk.params.capacity_bytes // BLOCK_SIZE
                child = np.random.default_rng(rng.integers(0, 2**63))
                while True:
                    offset = int(child.integers(0, nblocks)) * BLOCK_SIZE
                    yield from disk.transfer(offset, BLOCK_SIZE)

            for disk in machine.disks:
                sim.process(reader(disk))
            sim.run(until=15.0)
            return [to_mbyte_per_s(d.throughput(15.0)) for d in machine.disks]

        single = measure((1,))[0]
        pair = measure((2,))
        assert all(rate < single for rate in pair)
        assert all(2.4 <= rate <= 3.2 for rate in pair)
