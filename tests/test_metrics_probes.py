"""Counter and utilization probes."""

import pytest

from repro.hardware import Machine, MachineParams
from repro.metrics import CounterProbe, UtilizationProbe
from repro.sim import Simulator


class TestCounterProbe:
    def test_samples_per_window_rate(self, sim):
        counter = [0.0]
        probe = CounterProbe(sim, lambda: counter[0], period=1.0)

        def producer():
            while True:
                yield sim.timeout(0.1)
                counter[0] += 5.0

        sim.process(producer())
        sim.run(until=5.05)
        assert len(probe.samples) == 5
        assert probe.mean_rate() == pytest.approx(50.0, rel=0.05)

    def test_peak_rate(self, sim):
        counter = [0.0]
        probe = CounterProbe(sim, lambda: counter[0], period=1.0)

        def bursty():
            yield sim.timeout(2.5)
            counter[0] += 100.0
            yield sim.timeout(10.0)

        sim.process(bursty())
        sim.run(until=5.0)
        assert probe.peak_rate() == pytest.approx(100.0)
        assert min(probe.rates()) == 0.0

    def test_stop_halts_sampling(self, sim):
        probe = CounterProbe(sim, lambda: 0.0, period=1.0)
        sim.run(until=2.5)
        probe.stop()
        sim.run(until=10.0)
        assert len(probe.samples) == 2

    def test_bad_period(self, sim):
        with pytest.raises(ValueError):
            CounterProbe(sim, lambda: 0.0, period=0.0)

    def test_empty_probe_rates(self, sim):
        probe = CounterProbe(sim, lambda: 0.0, period=1.0)
        assert probe.mean_rate() == 0.0
        assert probe.peak_rate() == 0.0


class TestUtilizationProbe:
    def test_cpu_utilization_windows(self, sim):
        machine = Machine(sim, MachineParams(disks_per_hba=()))
        probe = UtilizationProbe(sim, lambda: machine.cpu.busy_time, period=1.0)

        def worker():
            while True:
                yield machine.cpu.execute(0.3)
                yield sim.timeout(0.7)

        sim.process(worker())
        sim.run(until=10.05)
        assert probe.mean_utilization() == pytest.approx(0.3, abs=0.05)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in probe.utilizations())
