"""The Multimedia Storage Unit (§2.3).

One process per device plus a central control process, communicating
through lock-free shared-memory queues:

* :mod:`repro.core.msu.queues` — the single-producer/single-consumer queue
  that replaces "expensive semaphore operations".
* :mod:`repro.core.msu.streams` — per-stream state: double buffers,
  schedule anchoring, position tracking.
* :mod:`repro.core.msu.disk_process` — the round-robin duty-cycle disk
  scheduler with double-buffer refill and recording write-back.
* :mod:`repro.core.msu.network_process` — the paced sender/receiver (the
  I/O process, IOP).
* :mod:`repro.core.msu.vcr` — VCR command engine including fast-scan file
  switching.
* :mod:`repro.core.msu.msu` — the MSU itself: hardware, file systems,
  processes and the control loop, which dispatches Coordinator messages
  through ``Msu.handlers``; multicast, live TV and the page cache install
  theirs from their own packages' ``msu_side`` modules.
* :mod:`repro.core.msu.parts` — the base of those ``msu_side`` parts:
  the hooks the MSU's attach, report, delete, crash, hang and reboot
  paths call on every part in ``Msu.parts``.
"""

from repro.core.msu.msu import Msu

__all__ = ["Msu"]
