"""Experiment E6 — §3.3: Coordinator and intra-network scalability.

"We start two of these [fake] MSUs on different machines and started two
clients who together sent 10,000 requests to the coordinator at a rate of
about 60 requests per second.  We measured the Coordinator's CPU
utilization at 14% and the network utilization at 6% ... a large scale
implementation of Calliope serving 3000 simultaneous streams (150 MSUs at
20 streams each) would need to service only 50 requests per second."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.clients.fake_msu import FakeMsu
from repro.clients.workload import OpenLoopRequester
from repro.core.coordinator import Coordinator
from repro.core.database import ContentEntry
from repro.experiments import Experiment, headline
from repro.hardware.params import ETHERNET_10
from repro.net.network import ControlChannel, Network
from repro.sim import Simulator
from repro.units import ms

__all__ = ["ScalabilityResult", "run_scalability", "format_scalability"]

PAPER_CPU_UTIL = 0.14
PAPER_NET_UTIL = 0.06
PAPER_REQUEST_RATE = 60.0


@dataclass(frozen=True)
class ScalabilityResult:
    """Measured shared-resource load under the fake-MSU request storm."""

    requests: int
    elapsed: float
    request_rate: float
    cpu_utilization: float
    network_utilization: float

    def extrapolate(self, rate: float) -> "tuple":
        """Linear load projection to another aggregate request rate."""
        scale = rate / self.request_rate
        return (self.cpu_utilization * scale, self.network_utilization * scale)


def run_scalability(
    total_requests: int = 10_000,
    request_rate: float = 60.0,
    n_clients: int = 2,
    n_fake_msus: int = 2,
    seed: int = 9,
) -> ScalabilityResult:
    """Drive the real Coordinator with fake MSUs and open-loop clients."""
    sim = Simulator()
    intra = Network(sim, "intra", latency=ms(1.0))
    coordinator = Coordinator(sim)
    coordinator.db.add_customer("user")
    for i in range(n_fake_msus):
        fake = FakeMsu(sim, f"fake{i}")
        channel = ControlChannel(
            sim, coordinator.name, fake.name, latency=ms(1.0), network=intra
        )
        coordinator.attach_msu(channel)
        fake.attach_coordinator(channel)
    sim.run(until=0.01)  # let the hellos land
    # Content lives (notionally) on the fake MSUs' disks.
    contents = []
    for i in range(n_fake_msus):
        for d in range(2):
            name = f"clip-{i}-{d}"
            coordinator.db.add_content(
                ContentEntry(name, "mpeg1", f"fake{i}", f"fake{i}.sd{d}", blocks=10)
            )
            contents.append(name)
    requesters: List[OpenLoopRequester] = []
    per_client = total_requests // n_clients
    for c in range(n_clients):
        channel = ControlChannel(
            sim, f"loadgen{c}", coordinator.name, latency=ms(1.0), network=intra
        )
        coordinator.connect_client(channel, f"loadgen{c}")
        requester = OpenLoopRequester(
            sim, channel, f"loadgen{c}", contents,
            rate_per_second=request_rate / n_clients,
            total_requests=per_client, seed=seed + c,
        )
        requester.start()
        requesters.append(requester)
    start = sim.now
    cpu_busy_start = coordinator.machine.cpu.busy_time
    net_bytes_start = intra.bytes_carried
    for requester in requesters:
        sim.run_until_event(requester.done)
    sim.run(until=sim.now + 1.0)  # drain in-flight terminations
    elapsed = sim.now - start - 1.0
    cpu_busy = coordinator.machine.cpu.busy_time - cpu_busy_start
    net_bytes = intra.bytes_carried - net_bytes_start
    sent = sum(r.sent for r in requesters)
    return ScalabilityResult(
        requests=sent,
        elapsed=elapsed,
        request_rate=sent / elapsed,
        cpu_utilization=cpu_busy / elapsed,
        network_utilization=(net_bytes / elapsed) / ETHERNET_10.line_rate,
    )


def format_scalability(result: ScalabilityResult) -> str:
    """Render the §3.3 measurement plus the paper's extrapolation."""
    lines = [
        "Coordinator scalability (fake MSUs, open-loop request storm)",
        f"  requests:           {result.requests}",
        f"  request rate:       {result.request_rate:6.1f}/s  (paper: ~60/s)",
        f"  Coordinator CPU:    {result.cpu_utilization * 100.0:6.1f}%  (paper: 14%)",
        f"  intra-network load: {result.network_utilization * 100.0:6.1f}%  (paper: 6%)",
        "",
        "Extrapolation (3000 streams = 150 MSUs x 20 streams, 1-min sessions):",
    ]
    cpu50, net50 = result.extrapolate(50.0)
    lines.append(
        f"  at 50 req/s: CPU {cpu50 * 100.0:5.1f}%, network {net50 * 100.0:5.1f}%"
        "  -> shared resources are not the limit"
    )
    return "\n".join(lines)


def _checks(result: ScalabilityResult) -> None:
    import pytest  # approx; checks run under the bench

    # Paper: ~60 req/s -> CPU 14%, network 6%, "relatively insignificant".
    assert result.cpu_utilization == pytest.approx(0.14, abs=0.03)
    assert result.network_utilization == pytest.approx(0.06, abs=0.02)
    cpu50, net50 = result.extrapolate(50.0)
    assert cpu50 < 0.2 and net50 < 0.1


def _headlines(result: ScalabilityResult) -> list:
    return [
        headline(
            "coordinator_cpu_utilization",
            round(result.cpu_utilization, 4), "fraction",
            request_rate=round(result.request_rate, 1), paper_claim=0.14,
        ),
    ]


EXPERIMENTS = (
    Experiment(
        name="scalability", table="scalability",
        paper_ref="§3.3 Coordinator/network load",
        run=run_scalability, render=format_scalability,
        checks=_checks, headlines=_headlines,
    ),
)
