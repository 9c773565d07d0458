"""SCSI host-bus adaptor (chain) model.

Each HBA owns one SCSI chain shared by its disks: during a transfer the
disk streams from media into its on-drive buffer off-bus and bursts over
the chain at the fast-differential rate, so two disks on one chain overlap
seeks but serialize bursts.  The HBA also keeps the outstanding-command
registry that feeds the machine-wide stall model.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.hardware.params import ScsiParams
from repro.sim import Resource, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.machine import Machine

__all__ = ["HostBusAdapter"]


class HostBusAdapter:
    """One Buslogic EISA SCSI adaptor and its chain."""

    def __init__(
        self,
        sim: Simulator,
        params: ScsiParams = ScsiParams(),
        name: str = "bt0",
        machine: "Machine | None" = None,
    ):
        self.sim = sim
        self.params = params
        self.name = name
        self.machine = machine
        self.bus = Resource(sim, capacity=1, name=f"{name}.chain")
        self.outstanding = 0  # commands currently in flight on this chain
        self.commands_issued = 0

    def command_begin(self) -> None:
        """Record a new command entering the chain."""
        self.outstanding += 1
        self.commands_issued += 1
        if self.machine is not None:
            self.machine._command_began(self)

    def command_end(self) -> None:
        """Record a command completing."""
        if self.outstanding <= 0:
            raise RuntimeError(f"{self.name}: command_end without begin")
        self.outstanding -= 1
        if self.machine is not None:
            self.machine._command_ended(self)

    def command_latency_penalty(self, sharing_disks_active: int) -> float:
        """Extra per-command latency from driver load and NIC interference.

        ``sharing_disks_active`` is the number of *other* disks on this
        chain that currently have commands in flight.  The remaining terms
        come from machine-wide state (total outstanding commands, NIC
        activity); calibration notes live in :class:`ScsiParams`.
        """
        p = self.params
        penalty = 0.0
        if self.machine is not None:
            others = max(0, self.machine.outstanding_commands() - 1)
            scale = others**0.5
            penalty += p.per_command_load_penalty * scale
            if sharing_disks_active > 0 and self.machine.outstanding_commands() >= 3:
                penalty += p.chain_share_penalty * sharing_disks_active
            if self.machine.any_nic_active():
                penalty += p.nic_active_base + p.nic_active_penalty * scale
        return penalty
