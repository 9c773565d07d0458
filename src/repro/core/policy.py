"""Duty-cycle arithmetic and admission policies (§2.2.1).

"To allocate bandwidth of a single disk, we give the disk a duty cycle
which is divided into slots.  Each slot is long enough to read or write a
single disk block for one client stream.  The number of slots in a cycle
is the maximum number of block transfers that can be accomplished during
the time it takes for a single stream to transmit its block."

:class:`DutyCycleModel` computes those quantities from the calibrated
hardware parameters, and :class:`SlotAdmission` is the slot-counting
admission policy built on it — an alternative to the Coordinator's
default rate-based accounting (both are exposed so the ablation tests can
compare them against the measured Graph 1 capacity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import AdmissionError
from repro.hardware.params import DiskParams, ScsiParams
from repro.units import BLOCK_SIZE

__all__ = ["DutyCycleModel", "SlotAdmission"]


@dataclass(frozen=True)
class DutyCycleModel:
    """Slot arithmetic for one disk serving uniform-rate streams."""

    disk: DiskParams = DiskParams()
    scsi: ScsiParams = ScsiParams()
    block_size: int = BLOCK_SIZE
    #: Expected concurrent commands while streaming (drives the driver
    #: load penalty; an MSU under load keeps both disks busy).
    expected_concurrency: int = 2
    #: Whether the delivery NIC is active (it always is while streaming).
    nic_active: bool = True

    def expected_seek_time(self) -> float:
        """Mean seek for uniformly random block addresses.

        For uniform independent positions E[sqrt(|x - y|)] over the unit
        interval is 8/15 ~ 0.533, applied to the sqrt seek curve.
        """
        return self.disk.seek_min + self.disk.seek_max_extra * (8.0 / 15.0)

    def block_service_time(self) -> float:
        """Expected time for one 256 KiB slot under streaming load."""
        seek = self.expected_seek_time()
        rotation = self.disk.avg_rotational_latency
        transfer = self.block_size / self.disk.media_rate
        others = max(0, self.expected_concurrency - 1)
        penalty = self.scsi.per_command_load_penalty * others**0.5
        if self.nic_active:
            penalty += self.scsi.nic_active_base
            penalty += self.scsi.nic_active_penalty * others**0.5
        return seek + rotation + self.scsi.command_overhead + transfer + penalty

    def cycle_length(self, stream_rate: float) -> float:
        """Seconds a stream takes to transmit one block (the duty cycle)."""
        if stream_rate <= 0:
            raise ValueError(f"non-positive stream rate {stream_rate}")
        return self.block_size / stream_rate

    def slots(self, stream_rate: float) -> int:
        """Block transfers one disk completes per duty cycle (§2.2.1)."""
        return max(1, int(self.cycle_length(stream_rate) // self.block_service_time()))

    def startup_delay_bound(self, stream_rate: float, striped_disks: int = 1) -> float:
        """Worst-case wait for a first disk slot.

        Non-striped: at most one duty cycle.  Striped over N disks the
        cycle covers all disks, so the bound is N times longer — the
        §2.3.3 VCR-latency argument against striping.
        """
        if striped_disks < 1:
            raise ValueError("striped_disks must be >= 1")
        return self.cycle_length(stream_rate) * striped_disks


class SlotAdmission:
    """Slot-counting admission for uniform-rate streams on one disk."""

    def __init__(self, model: DutyCycleModel, stream_rate: float):
        self.model = model
        self.stream_rate = stream_rate
        self.capacity = model.slots(stream_rate)
        self._used: Dict[int, str] = {}
        self._next = 0

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._used)

    def admit(self, owner: str = "") -> int:
        """Assign one slot; raises :class:`AdmissionError` when full."""
        if self.free_slots <= 0:
            raise AdmissionError(
                f"duty cycle full: {self.capacity} slots of "
                f"{self.model.block_service_time() * 1000:.0f} ms each"
            )
        slot = self._next
        self._next += 1
        self._used[slot] = owner
        return slot

    def release(self, slot: int) -> None:
        """Return a slot to the cycle."""
        if slot not in self._used:
            raise AdmissionError(f"slot {slot} is not assigned")
        del self._used[slot]
