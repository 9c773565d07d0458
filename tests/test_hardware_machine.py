"""Machine assembly, CPU stall model, memory bus, NIC and timer."""

import math

import pytest

from repro.hardware import Machine, MachineParams, MemoryBus
from repro.hardware.params import ETHERNET_10, FDDI, MemoryParams, TimerParams
from repro.hardware.timer import SystemTimer
from repro.sim import Event, Interrupt, Simulator
from repro.units import CBR_PACKET_SIZE, to_mbyte_per_s
from tests.conftest import run_process


class TestMachine:
    def test_topology_construction(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=(2, 1)))
        assert len(machine.hbas) == 2
        assert len(machine.disks) == 3
        assert len(machine.disks_on(machine.hbas[0])) == 2
        assert len(machine.disks_on(machine.hbas[1])) == 1

    def test_diskless_machine(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        assert machine.disks == [] and machine.hbas == []
        assert machine.outstanding_commands() == 0

    def test_nic_registry(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(FDDI)
        assert machine.nic("fddi0") is nic
        with pytest.raises(ValueError):
            machine.add_nic(FDDI)

    def test_outstanding_commands_tracked(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=(1,)))
        hba = machine.hbas[0]
        assert machine.active_hba_count() == 0
        hba.command_begin()
        assert machine.active_hba_count() == 1
        assert machine.outstanding_commands() == 1
        hba.command_end()
        assert machine.outstanding_commands() == 0

    def test_command_end_without_begin_rejected(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=(1,)))
        with pytest.raises(RuntimeError):
            machine.hbas[0].command_end()


class TestCpuStall:
    def test_no_stall_below_threshold(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=(2,)))
        machine.hbas[0].command_begin()
        machine.hbas[0].command_begin()
        assert machine.cpu.io_stall_time() == 0.0  # one HBA only

    def test_stall_with_two_active_hbas(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=(1, 1)))
        for hba in machine.hbas:
            hba.command_begin()
        stall = machine.cpu.io_stall_time()
        assert stall == pytest.approx(machine.params.cpu.io_stall_base)

    def test_stall_grows_with_commands(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=(2, 1)))
        machine.hbas[0].command_begin()
        machine.hbas[0].command_begin()
        machine.hbas[1].command_begin()
        stall = machine.cpu.io_stall_time()
        p = machine.params.cpu
        assert stall == pytest.approx(p.io_stall_base + p.io_stall_per_command)

    def test_cpu_execute_accounts_busy_time(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        sim.run_until_event(machine.cpu.execute(0.25))
        assert machine.cpu.busy_time == pytest.approx(0.25)
        assert machine.cpu.utilization(1.0) == pytest.approx(0.25)

    def test_cpu_serializes(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=()))

        def worker():
            yield machine.cpu.execute(1.0)
            return sim.now

        p1 = sim.process(worker())
        p2 = sim.process(worker())
        sim.run()
        assert (p1.value, p2.value) == (1.0, 2.0)

    @pytest.mark.parametrize("path", ["udp_send", "udp_receive"])
    def test_nic_path_busy_time_excludes_its_queueing(self, sim, path):
        """A packet queued behind a 1 s execute counts only its own CPU
        hold (protocol work, copy and checksum), not the wait."""
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(FDDI)
        cpu, memory = machine.params.cpu, machine.params.memory
        overhead = cpu.udp_send_overhead if path == "udp_send" else cpu.udp_recv_overhead
        own = overhead + CBR_PACKET_SIZE / memory.copy_rate + CBR_PACKET_SIZE / memory.read_rate
        machine.cpu.execute(1.0)
        sim.process(getattr(nic, path)(CBR_PACKET_SIZE))
        sim.run(until=2.0)
        assert machine.cpu.busy_time == pytest.approx(1.0 + own, abs=1e-12)


def _assert_interrupted_claim_frees(sim, resource, claim, first=None, at=1e-4):
    """A holder (``first``, default ``claim``), then a claimant queued on
    ``resource`` and interrupted at ``at``, then a third claimant.

    The interrupted claimant's request must be withdrawn, not granted to
    nobody later: the third claimant finishes and the resource ends idle.
    """

    def claimant(path):
        claim = path()
        if isinstance(claim, Event):
            yield claim  # a hold: one event
        else:
            yield from claim  # a path that holds several things in turn

    sim.process(claimant(first or claim), name="holder")
    queued = sim.process(claimant(claim), name="queued")
    sim.schedule(at, queued.interrupt, "crash")
    sim.run(until=at / 2)
    assert resource.queue_length == 1
    sim.run(until=2 * at)
    third = sim.process(claimant(claim), name="third")
    sim.run(until=2 * at + 1.0)
    assert third.triggered and third.ok
    assert (resource.in_use, resource.queue_length) == (0, 0)


class TestInterruptedClaims:
    """MSU crash/hang interrupts processes queued on the bus or the CPU."""

    def test_memory_bus_claim_released_on_interrupt(self, sim):
        bus = MemoryBus(sim)
        _assert_interrupted_claim_frees(
            sim, bus._bus, lambda: bus.copy(bus.params.chunk_bytes)
        )

    def test_cpu_claim_released_on_interrupt(self, sim):
        cpu = Machine(sim, MachineParams(disks_per_hba=())).cpu
        _assert_interrupted_claim_frees(sim, cpu._res, lambda: cpu.execute(1e-3))

    def test_nic_send_cpu_claim_released_on_interrupt(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(FDDI)
        _assert_interrupted_claim_frees(
            sim, machine.cpu._res, lambda: nic.udp_send(CBR_PACKET_SIZE)
        )

    def test_nic_receive_cpu_claim_released_on_interrupt(self, sim):
        """The receiver DMAs first, then queues for the CPU behind a long
        execute; the interrupt lands there."""
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(FDDI)
        _assert_interrupted_claim_frees(
            sim, machine.cpu._res, lambda: nic.udp_receive(CBR_PACKET_SIZE),
            first=lambda: machine.cpu.execute(0.5), at=1e-3,
        )


class TestMemoryBus:
    def test_transfer_time_matches_rate(self, sim):
        bus = MemoryBus(sim)
        sim.run_until_event(bus.copy(18_000_000))
        assert sim.now == pytest.approx(1.0)

    def test_rates_differ_by_kind(self, sim):
        params = MemoryParams()
        for kind, rate in [("read", 53e6), ("write", 25e6), ("copy", 18e6)]:
            s = Simulator()
            bus = MemoryBus(s, params)
            s.run_until_event(getattr(bus, kind)(1_000_000))
            assert s.now == pytest.approx(1_000_000 / rate)

    def test_concurrent_transfers_share_bandwidth(self, sim):
        bus = MemoryBus(sim)

        def mover():
            yield bus.copy(9_000_000)
            return sim.now

        p1 = sim.process(mover())
        p2 = sim.process(mover())
        sim.run()
        # Two 0.5 s transfers interleaved chunk-wise: both finish ~1 s.
        assert p1.value == pytest.approx(1.0, rel=0.01)
        assert p2.value == pytest.approx(1.0, rel=0.01)

    def test_negative_size_rejected(self, sim):
        bus = MemoryBus(sim)
        with pytest.raises(ValueError):
            bus.read(-1)

    def test_non_positive_size_raises_before_claiming(self, sim):
        bus = MemoryBus(sim)
        for nbytes in (0, -1):
            with pytest.raises(ValueError):
                bus.copy(nbytes)
        assert (bus._bus.in_use, bus._bus.queue_length) == (0, 0)
        assert sim.peek() == float("inf")

    def test_accounting(self, sim):
        bus = MemoryBus(sim)
        sim.run_until_event(bus.read(1024))
        assert bus.bytes_moved == 1024
        assert bus.busy_time > 0

    def test_multi_chunk_transfer_is_one_event_per_chunk(self, sim):
        """Three chunks: one end entry each, accounted as each ends."""
        bus = MemoryBus(sim)
        chunk = bus.params.chunk_bytes
        step = chunk / bus.params.read_rate
        seen = []
        for k in (0.5, 1.5, 2.5):
            sim.schedule(k * step, lambda: seen.append(bus.bytes_moved))
        transfer = bus.read(3 * chunk)
        sim.run()
        assert transfer.triggered
        assert sim.events_executed == 6  # three chunk ends, three probes
        assert seen == [0, chunk, 2 * chunk]
        assert bus.bytes_moved == 3 * chunk
        assert bus.busy_time == pytest.approx(3 * step)
        assert sim.now == pytest.approx(3 * step)

    def test_interrupted_between_chunks(self, sim):
        """A two-chunk transfer interrupted while it queues for its second
        chunk behind another transfer: it leaves the queue, keeps the
        first chunk's accounting and never resumes."""
        bus = MemoryBus(sim)
        chunk = bus.params.chunk_bytes
        step = chunk / bus.params.copy_rate
        log = []

        def mover(tag, nbytes):
            try:
                yield bus.copy(nbytes)
            except Interrupt:
                log.append((tag, "interrupted", sim.now))
                return
            log.append((tag, sim.now))

        a = sim.process(mover("a", 2 * chunk))
        sim.process(mover("b", chunk))
        sim.schedule(1.5 * step, a.interrupt)
        sim.run(until=1.4 * step)
        assert (bus._bus.in_use, bus._bus.queue_length) == (1, 1)
        sim.run()
        assert log == [("a", "interrupted", 1.5 * step),
                       ("b", pytest.approx(2 * step))]
        assert (bus._bus.in_use, bus._bus.queue_length) == (0, 0)
        assert bus.bytes_moved == 2 * chunk
        assert bus.busy_time == pytest.approx(2 * step)


class TestNic:
    def test_fddi_alone_reaches_8_5(self, sim):
        """The FDDI-only baseline: 8.5 MB/s with 4 KiB UDP (Table 1)."""
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(FDDI)

        def sender():
            while True:
                yield from nic.udp_send(CBR_PACKET_SIZE)

        sim.process(sender())
        sim.run(until=10.0)
        assert to_mbyte_per_s(nic.throughput(10.0)) == pytest.approx(8.5, abs=0.2)
        assert nic.packets_sent == 20_740
        assert nic.line_busy_time == pytest.approx(7.1835064, rel=1e-12)

    def test_ethernet_line_rate_bounds_throughput(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(ETHERNET_10)

        def sender():
            while True:
                yield from nic.udp_send(CBR_PACKET_SIZE)

        sim.process(sender())
        sim.run(until=5.0)
        assert nic.throughput(5.0) <= ETHERNET_10.line_rate
        assert (nic.enobufs_count, nic.packets_sent) == (4_257, 1_490)

    def test_enobufs_backoff_counted(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(ETHERNET_10)  # slow line: queue fills

        def sender():
            for _ in range(200):
                yield from nic.udp_send(CBR_PACKET_SIZE)

        sim.process(sender())
        sim.run(until=1.0)
        assert (nic.enobufs_count, nic.packets_sent) == (404, 200)

    def test_receive_path_counts(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(FDDI)
        run_process(sim, nic.udp_receive(1024))
        assert nic.packets_received == 1
        assert nic.bytes_received == 1024

    def test_back_to_back_frames_depart_at_start_plus_hold(self, sim):
        """The line serializes frames FIFO: a frame enqueued while the line
        is busy starts when the one ahead departs, and each departure is
        its start plus the hold.  The counters move at the departure
        instant, not before."""
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(ETHERNET_10)  # slow line: frames queue
        p = ETHERNET_10
        hold = (CBR_PACKET_SIZE + p.header_bytes) / p.line_rate + p.frame_overhead
        enqueued = []

        def sender():
            for _ in range(3):
                yield from nic.udp_send(CBR_PACKET_SIZE)
                enqueued.append(sim.now)

        run_process(sim, sender())
        assert enqueued[2] < enqueued[0] + hold  # all three queued at once
        departs = [enqueued[0] + hold]
        for _ in range(2):
            departs.append(departs[-1] + hold)
        for sent, depart in enumerate(departs):
            sim.run(until=math.nextafter(depart, 0.0))
            assert nic.packets_sent == sent
            assert nic.line_busy_time == pytest.approx(sent * hold)
            sim.run(until=depart)
            assert nic.packets_sent == sent + 1
            assert nic.line_busy_time == pytest.approx((sent + 1) * hold)
        assert nic.bytes_sent == 3 * CBR_PACKET_SIZE

    def test_run_without_until_stops_before_the_last_departure(self, sim):
        """No process drives the line, so a bare ``run()`` ends with the
        last sender, before the frames queued behind the line have left;
        counters read after ``run(until=...)`` see every departure."""
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(ETHERNET_10)

        def sender():
            for _ in range(200):
                yield from nic.udp_send(CBR_PACKET_SIZE)

        sim.process(sender())
        assert sim.run() == pytest.approx(0.5004, abs=1e-4)
        assert nic.packets_sent == 149
        sim.run(until=1.0)
        assert nic.packets_sent == 200

    def test_bad_packet_sizes_rejected(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        nic = machine.add_nic(FDDI)
        with pytest.raises(ValueError):
            list(nic.udp_send(0))
        with pytest.raises(ValueError):
            list(nic.udp_receive(-5))


class TestTimer:
    def test_quantizes_to_granularity(self, sim):
        timer = SystemTimer(sim, TimerParams(granularity=0.010))
        assert timer.next_tick_at_or_after(0.0123) == pytest.approx(0.020)
        assert timer.next_tick_at_or_after(0.020) == pytest.approx(0.020)

    def test_zero_granularity_is_precise(self, sim):
        timer = SystemTimer(sim, TimerParams(granularity=0.0))
        assert timer.next_tick_at_or_after(0.0123) == 0.0123

    def test_wait_until_advances_to_tick(self, sim):
        timer = SystemTimer(sim, TimerParams(granularity=0.010))

        def proc():
            yield from timer.wait_until(0.014)
            return sim.now

        assert run_process(sim, proc()) == pytest.approx(0.020)

    def test_wait_until_past_is_noop(self, sim):
        timer = SystemTimer(sim, TimerParams(granularity=0.010))
        sim.run(until=1.0)

        def proc():
            yield from timer.wait_until(0.5)
            return sim.now

        assert run_process(sim, proc()) == 1.0

    def test_sleep_negative_rejected(self, sim):
        timer = SystemTimer(sim)
        with pytest.raises(ValueError):
            timer.sleep(-1.0)
