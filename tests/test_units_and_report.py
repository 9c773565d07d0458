"""Unit conversions, lateness reporting and message defaults."""

import numpy as np
import pytest

from repro import units
from repro.metrics import LatenessCollector, format_cdf_table, quantile_summary
from repro.net import messages as m


class TestUnits:
    def test_bitrate_conversions(self):
        assert units.mbit_per_s(1.5) == pytest.approx(187_500.0)
        assert units.kbit_per_s(650.0) == pytest.approx(81_250.0)

    def test_byte_rate_conversions(self):
        assert units.mbyte_per_s(4.7) == pytest.approx(4_700_000.0)
        assert units.to_mbyte_per_s(4_700_000.0) == pytest.approx(4.7)

    def test_time_helpers(self):
        assert units.ms(10.0) == pytest.approx(0.010)
        assert units.us(250.0) == pytest.approx(0.000250)

    def test_paper_constants(self):
        assert units.BLOCK_SIZE == 256 * 1024
        assert units.INTERNAL_PAGE_SIZE == 28 * 1024
        assert units.INTERNAL_PAGE_KEYS == 1024
        assert units.MPEG1_RATE == 187_500
        assert units.CBR_PACKET_SIZE == 4096

    def test_block_covers_over_a_second(self):
        """The duty-cycle premise: one block is >1 s of 1.5 Mbit/s video."""
        assert units.BLOCK_SIZE / units.MPEG1_RATE > 1.0


class TestLatenessCollector:
    def test_empty_collector(self):
        collector = LatenessCollector()
        assert collector.percent_within(50) == 100.0
        assert collector.max_lateness_ms() == 0.0
        cdf = collector.cdf()
        assert cdf.count == 0
        assert cdf.fraction_within(0) == 1.0

    def test_early_packets_land_in_bin_zero(self):
        collector = LatenessCollector()
        collector.record(deadline=1.0, sent_at=0.9)  # early
        collector.record(deadline=1.0, sent_at=1.0)  # exactly on time
        cdf = collector.cdf()
        assert cdf.fraction_within(0) == 1.0

    def test_cdf_is_monotone(self):
        collector = LatenessCollector()
        for lateness in [0.0, 0.01, 0.04, 0.2, 0.9]:
            collector.record(0.0, lateness)
        cdf = collector.cdf()
        values = [cdf.fraction_within(t) for t in (0, 10, 50, 200, 1000)]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_overflow_bin_clamped(self):
        collector = LatenessCollector()
        collector.record(0.0, 5.0)  # 5000 ms late
        cdf = collector.cdf(max_ms=1000)
        assert cdf.fraction_within(1000) == 1.0
        assert cdf.max_late_ms == pytest.approx(5000.0)

    def test_percent_within(self):
        collector = LatenessCollector()
        collector.record(0.0, 0.01)
        collector.record(0.0, 0.10)
        assert collector.percent_within(50) == pytest.approx(50.0)

    def test_floor_bins_versus_exact_threshold(self):
        """``fraction_within`` reads floored 1 ms bins (50.5 ms is in bin
        50); ``percent_within`` is an exact ``<=`` on the raw samples."""
        collector = LatenessCollector()
        for ms in (0.5, 50.2, 50.5, 200.0):
            collector.record(0.0, ms / 1000.0)
        assert collector.cdf().fraction_within(50) == 0.75
        assert collector.percent_within(50) == 25.0

    def test_fraction_within_rejects_negative_lateness(self):
        collector = LatenessCollector()
        collector.record(0.0, 0.5)
        with pytest.raises(ValueError):
            collector.cdf().fraction_within(-3)

    def test_reads_between_records_match_a_list_backed_reference(self):
        """Statistics read between records must not pin the sample
        buffer: a numpy view of it would make the next ``record()``
        raise ``BufferError``."""

        class ListBacked(LatenessCollector):
            def __init__(self):
                super().__init__()
                self._singles = []

        collector, reference = LatenessCollector(), ListBacked()
        rng = np.random.default_rng(3)
        for round_ in range(6):
            for late in rng.normal(0.02, 0.05, 50):
                collector.record(1.0, 1.0 + float(late))
                reference.record(1.0, 1.0 + float(late))
            got, want = collector.cdf(), reference.cdf()
            assert np.array_equal(got.percent, want.percent)
            assert (got.count, got.max_late_ms) == (want.count, want.max_late_ms)
            assert collector.percent_within(25) == reference.percent_within(25)
            assert collector.max_lateness_ms() == reference.max_lateness_ms()
            samples = collector.late_seconds
            assert np.array_equal(samples, reference.late_seconds)
            samples[:] = 99.0
            assert collector.max_lateness_ms() == reference.max_lateness_ms()
            assert np.array_equal(collector.late_seconds, reference.late_seconds)
        assert len(collector) == 300


class TestReportFormatting:
    def _cdf(self, latenesses):
        collector = LatenessCollector()
        for lateness in latenesses:
            collector.record(0.0, lateness)
        return collector.cdf()

    def test_table_contains_all_curves(self):
        curves = {
            "fast": self._cdf([0.001] * 10),
            "slow": self._cdf([0.2] * 10),
        }
        text = format_cdf_table(curves)
        assert "fast" in text and "slow" in text
        assert "count" in text and "max ms" in text

    def test_quantile_summary_keys(self):
        summary = dict(quantile_summary(self._cdf([0.01, 0.06])))
        assert summary["within 50 ms (%)"] == pytest.approx(50.0)
        assert "max lateness (ms)" in summary


class TestMessageDefaults:
    def test_request_ids_default_zero(self):
        assert m.PlayRequest(1, "c", "p").request_id == 0
        assert m.StreamScheduled(1, "msu0").request_id == 0

    def test_stream_ready_defaults(self):
        ready = m.StreamReady(1, "msu0")
        assert ready.stream_id == -1
        assert ready.record_address is None
        assert ready.group_size == 1

    def test_vcr_constants_distinct(self):
        commands = {
            m.VCR_PLAY, m.VCR_PAUSE, m.VCR_SEEK, m.VCR_FAST_FORWARD,
            m.VCR_FAST_BACKWARD, m.VCR_NORMAL, m.VCR_QUIT,
        }
        assert len(commands) == 7

    def test_messages_are_frozen(self):
        request = m.PlayRequest(1, "c", "p")
        with pytest.raises(Exception):
            request.content_name = "other"
