"""CPU model: a single 66 MHz Pentium plus the I/O-stall pathology.

The CPU is a FIFO resource.  ``execute`` holds it for a fixed time, and
``claim``/``release`` bracket a path that holds it across memory
operations, accounting the busy time at release.  It also exposes
:meth:`io_stall_time`, the extra latency suffered by I/O-instruction-heavy
operations when two or more SCSI host-bus adaptors have commands
outstanding — the hardware bug of §3.1 ("the sequence of instructions
needed to read the hardware timer ... often took 20 milliseconds with two
HBAs running").
"""

from __future__ import annotations

from typing import Generator

from repro.hardware.params import CpuParams
from repro.sim import Hold, Resource, Simulator

__all__ = ["Cpu"]


class _Execute(Hold):
    """A fixed stretch of CPU work, accounted as busy when it ends."""

    __slots__ = ("cpu",)

    def __init__(self, cpu: "Cpu", duration: float):
        self.cpu = cpu
        super().__init__(cpu._res, duration)

    def _held(self) -> None:
        self.cpu.busy_time += self.duration


class Cpu:
    """A single processor with utilization accounting."""

    def __init__(self, sim: Simulator, params: CpuParams = CpuParams()):
        self.sim = sim
        self.params = params
        self._res = Resource(sim, capacity=1, name="cpu")
        self.busy_time = 0.0
        # Wired up by Machine: callables reporting SCSI activity.
        self._active_hba_count = lambda: 0
        self._outstanding_commands = lambda: 0

    def attach_scsi_activity(self, active_hbas, outstanding) -> None:
        """Connect the stall model to the machine's HBA registry."""
        self._active_hba_count = active_hbas
        self._outstanding_commands = outstanding

    def io_stall_time(self) -> float:
        """Current extra latency per I/O-heavy operation (0 when healthy)."""
        p = self.params
        if self._active_hba_count() < p.stall_hba_threshold:
            return 0.0
        extra_cmds = max(0, self._outstanding_commands() - 2)
        return p.io_stall_base + p.io_stall_per_command * extra_cmds

    def claim(self) -> Generator:
        """FIFO claim on the CPU, for paths that hold it across several steps.

        The NIC send path holds it through protocol work, copy and
        checksum::

            req = yield from cpu.claim()
            start = sim.now
            try:
                ...
            finally:
                cpu.release(req, busy=sim.now - start)

        Take ``start`` after the claim, so time spent queued behind another
        holder is not counted as busy.
        """
        return self._res.claim()

    def release(self, req, busy: float = 0.0) -> None:
        """Release a claim from :meth:`claim`, accounting ``busy`` secs."""
        self._res.release(req)
        if busy < 0:
            raise ValueError(f"negative busy time: {busy}")
        self.busy_time += busy

    def execute(self, duration: float) -> Hold:
        """Hold the CPU for ``duration`` seconds of work (FIFO queued).

        ``yield cpu.execute(t)``: one event.  A negative time raises
        before the CPU is claimed.
        """
        return _Execute(self, duration)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent executing (0 if elapsed is 0)."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0
