"""Scaled-down runs of every experiment: the paper's shape must hold.

These use short durations so the whole file stays test-suite-friendly;
the benchmarks run the full-size versions.
"""

import pytest

from repro.experiments import elevator, ibtree_ablation, memorypath, scalability
from repro.experiments import striping, table1, timer_jitter
from repro.experiments.graph1 import run_graph1
from repro.experiments.graph2 import nv_file_packets, run_graph2


class TestTable1:
    def test_fddi_only_cell(self):
        fddi, _ = table1.run_config((1,), with_disks=False, with_fddi=True, duration=5.0)
        assert fddi == pytest.approx(8.5, abs=0.3)

    def test_one_disk_cell(self):
        _, disks = table1.run_config((1,), with_disks=True, with_fddi=False, duration=10.0)
        assert disks[0] == pytest.approx(3.6, abs=0.3)

    def test_two_hba_fddi_collapse(self):
        """The §3.1 pathology: FDDI collapses only with two active HBAs."""
        one_hba, _ = table1.run_config((2,), True, True, duration=8.0)
        two_hba, _ = table1.run_config((1, 1), True, True, duration=8.0)
        assert two_hba < one_hba * 0.65

    def test_combined_row_shape(self):
        fddi, disks = table1.run_config((2,), True, True, duration=8.0)
        assert fddi == pytest.approx(4.7, abs=0.5)
        assert all(d == pytest.approx(2.45, abs=0.4) for d in disks)

    def test_format_renders_all_rows(self):
        rows = [table1.Table1Row("0 disk", fddi_only=8.5)]
        text = table1.format_table1(rows)
        assert "0 disk" in text and "8.5" in text


class TestGraph1:
    def test_22_good_24_collapsed(self):
        curves = run_graph1(stream_counts=(22, 24), duration=20.0)
        good = curves[22]
        bad = curves[24]
        # Paper: 22 streams 99.6% within 50 ms; 24 streams collapsed.
        assert good.fraction_within(50) > 0.98
        assert good.max_late_ms <= 150.0
        assert bad.fraction_within(50) < 0.6
        assert bad.fraction_within(50) < good.fraction_within(50)


class TestGraph2:
    def test_vbr_worse_than_cbr_and_degrades(self):
        curves = run_graph2(stream_counts=(15, 17), duration=20.0)
        assert curves[15].fraction_within(50) > curves[17].fraction_within(50)
        # Substantially worse than the 22-stream CBR case (§3.2.2).
        assert curves[15].fraction_within(25) < 0.9

    def test_single_file_sync_capacity_drop(self):
        """§3.2.2: one file, synchronized -> 11 streams, not 15."""
        curves = run_graph2(stream_counts=(11, 15), duration=20.0, single_file=True)
        assert curves[11].fraction_within(100) > curves[15].fraction_within(100)

    def test_nv_files_have_rtp_headers(self):
        from repro.net.rtp import RtpHeader

        packets = nv_file_packets(650.0, 2.0, seed=1)
        header = RtpHeader.parse(packets[0][1])
        assert header.payload_type == 28


class TestMemoryPath:
    def test_theoretical_is_7_5(self):
        assert memorypath.theoretical_rate() == pytest.approx(7.5, abs=0.05)

    def test_measured_near_6_3(self):
        result = memorypath.run_memorypath(duration=10.0)
        assert result.measured == pytest.approx(6.3, abs=0.3)
        assert result.measured < result.theoretical


class TestScalability:
    def test_cpu_and_network_utilization(self):
        result = scalability.run_scalability(total_requests=1200)
        assert result.request_rate == pytest.approx(60.0, rel=0.15)
        assert result.cpu_utilization == pytest.approx(0.14, abs=0.03)
        assert result.network_utilization == pytest.approx(0.06, abs=0.02)

    def test_extrapolation_linear(self):
        result = scalability.run_scalability(total_requests=600)
        cpu50, net50 = result.extrapolate(50.0)
        scale = 50.0 / result.request_rate
        assert cpu50 == pytest.approx(result.cpu_utilization * scale)

    def test_per_request_cost_independent_of_installation_size(self):
        # §3.3: shared-resource load tracks the request rate, not the
        # number of MSUs behind the Coordinator.
        small = scalability.run_scalability(total_requests=300, n_fake_msus=2)
        large = scalability.run_scalability(total_requests=300, n_fake_msus=200)
        assert large.cpu_utilization == small.cpu_utilization
        assert large.network_utilization == small.network_utilization


class TestElevator:
    def test_gain_close_to_paper(self):
        result = elevator.run_elevator(duration=25.0)
        assert 0.02 <= result.elevator_gain <= 0.12  # paper: ~6%

    def test_fcfs_near_single_disk_rate(self):
        result = elevator.run_elevator(duration=25.0)
        assert result.fcfs == pytest.approx(3.6, abs=0.3)


class TestIbtreeAblation:
    def test_read_overhead_near_point_one_percent(self):
        result = ibtree_ablation.run_ibtree_ablation(npackets=5000)
        assert 0.0005 <= result.read_overhead_fraction <= 0.002

    def test_separate_layout_slower(self):
        result = ibtree_ablation.run_ibtree_ablation(npackets=5000)
        assert result.separate_write_seconds > result.integrated_write_seconds


class TestTimerJitter:
    def test_coarser_timer_more_jitter(self):
        curves = timer_jitter.run_timer_jitter(
            granularities_ms=(10.0, 0.0), streams=6, duration=10.0
        )
        coarse, precise = curves[10.0], curves[0.0]
        assert coarse.max_late_ms > precise.max_late_ms
        assert coarse.max_late_ms <= 150.0  # §2.2.1's worst-case bound


class TestClusterScale:
    def test_adding_msus_scales_linearly(self):
        from repro.experiments.cluster_scale import run_cluster_scale

        points = run_cluster_scale(msu_counts=(1, 2), per_msu=10, duration=10.0)
        one, two = points
        assert two.aggregate_mb_s == pytest.approx(2 * one.aggregate_mb_s, rel=0.1)
        assert two.worst_within_50ms > 0.95
        assert two.coordinator_cpu < 0.05


class TestStriping:
    def test_striping_balances_skew(self):
        results = striping.run_striping(duration=25.0)
        per_disk, striped = results
        spread = max(per_disk.per_disk_mb_s) - min(per_disk.per_disk_mb_s)
        balanced = max(striped.per_disk_mb_s) - min(striped.per_disk_mb_s)
        assert balanced < spread * 0.25

    def test_striping_relieves_hot_disk_latency(self):
        results = striping.run_striping(duration=25.0)
        per_disk, striped = results
        assert striped.mean_fetch_ms < per_disk.mean_fetch_ms

    def test_striped_vcr_restart_is_not_catastrophic(self):
        """§2.3.3's retrospective: "In retrospect, we were probably
        wrong" about striped VCR delay being unacceptable."""
        import numpy as np

        results = striping.run_startup_latency(background=8, probes=4)
        per_disk = np.mean(results["per-disk"])
        striped = np.mean(results["striped"])
        # Comparable magnitudes: the striped restart is within 2x either way.
        assert striped < per_disk * 2.0
        assert per_disk < striped * 2.0
