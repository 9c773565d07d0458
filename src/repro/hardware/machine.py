"""A whole simulated PC: CPU, memory, timer, SCSI chains, disks and NICs."""

from __future__ import annotations

from typing import Dict, List

from repro.hardware.cpu import Cpu
from repro.hardware.disk import DiskDrive, SeekPolicy
from repro.hardware.memory import MemoryBus
from repro.hardware.nic import NetworkInterface
from repro.hardware.params import MachineParams, NicParams
from repro.hardware.scsi import HostBusAdapter
from repro.hardware.timer import SystemTimer
from repro.sim import Simulator

__all__ = ["Machine"]


class Machine:
    """One PC assembled from the component models.

    ``params.disks_per_hba`` describes the SCSI topology, e.g. ``(2,)`` is
    Table 1's "2 disk (one HBA)" and ``(1, 1)`` its "2 disk (two HBA)".
    """

    def __init__(
        self,
        sim: Simulator,
        params: MachineParams = MachineParams(),
        seed: int = 0,
        disk_policy: SeekPolicy = SeekPolicy.FCFS,
    ):
        self.sim = sim
        self.params = params
        self.name = params.name
        self.cpu = Cpu(sim, params.cpu)
        self.memory = MemoryBus(sim, params.memory)
        self.timer = SystemTimer(sim, params.timer)
        self.hbas: List[HostBusAdapter] = []
        self.disks: List[DiskDrive] = []
        self._disks_by_hba: Dict[HostBusAdapter, List[DiskDrive]] = {}
        # Kept by the HBAs' command_begin/command_end, read per packet.
        self._outstanding = 0
        self._active_hbas = 0
        disk_index = 0
        for h, ndisks in enumerate(params.disks_per_hba):
            hba = HostBusAdapter(sim, params.scsi, name=f"{params.name}.bt{h}", machine=self)
            self.hbas.append(hba)
            self._disks_by_hba[hba] = []
            for _ in range(ndisks):
                disk = DiskDrive(
                    sim,
                    hba,
                    params.disk,
                    name=f"{params.name}.sd{disk_index}",
                    machine=self,
                    policy=disk_policy,
                    seed=seed * 1009 + disk_index + 1,
                )
                self.disks.append(disk)
                self._disks_by_hba[hba].append(disk)
                disk_index += 1
        self.cpu.attach_scsi_activity(self.active_hba_count, self.outstanding_commands)
        self.nics: Dict[str, NetworkInterface] = {}

    # -- NICs ---------------------------------------------------------------

    def add_nic(self, params: NicParams) -> NetworkInterface:
        """Install a network interface; its name must be unique."""
        if params.name in self.nics:
            raise ValueError(f"{self.name}: duplicate NIC {params.name!r}")
        nic = NetworkInterface(self.sim, self, params)
        self.nics[params.name] = nic
        return nic

    def nic(self, name: str) -> NetworkInterface:
        """Look up an installed NIC by name."""
        return self.nics[name]

    # -- SCSI activity (feeds the stall model) -------------------------------

    def active_hba_count(self) -> int:
        """HBAs with at least one command outstanding."""
        return self._active_hbas

    def outstanding_commands(self) -> int:
        """Commands in flight across every chain."""
        return self._outstanding

    def _command_began(self, hba: HostBusAdapter) -> None:
        self._outstanding += 1
        if hba.outstanding == 1:
            self._active_hbas += 1

    def _command_ended(self, hba: HostBusAdapter) -> None:
        self._outstanding -= 1
        if hba.outstanding == 0:
            self._active_hbas -= 1

    def disks_on(self, hba: HostBusAdapter) -> List[DiskDrive]:
        """The disks attached to ``hba``."""
        return self._disks_by_hba[hba]

    def any_nic_active(self) -> bool:
        """True if any interface moved a packet very recently."""
        return any(nic.recently_active for nic in self.nics.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        topo = ",".join(str(len(v)) for v in self._disks_by_hba.values())
        return f"<Machine {self.name} disks/hba=({topo}) nics={list(self.nics)}>"
