"""Calliope proper: the Coordinator and the Multimedia Storage Unit.

Typical assembly goes through :class:`repro.core.cluster.CalliopeCluster`,
which wires a Coordinator machine, one or more MSUs, the intra-server
Ethernet and the FDDI delivery network, exactly as Figure 1 lays them out.
This package names no subsystem; :mod:`repro.core.cluster`, the
composition root, sits above them and is not re-exported here.
"""

from repro.core.coordinator import Coordinator
from repro.core.msu.msu import Msu

__all__ = ["Coordinator", "Msu"]
