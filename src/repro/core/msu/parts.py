"""The MSU's subsystem seam: the parts installed on one MSU.

An MSU is one PC (§2.3): its control process, disk processes and IOP
stop together.  The MSU sides of multicast, live TV and the page cache
are :class:`MsuPart` objects, kept in ``Msu.parts`` when configured.  A
part installs its Coordinator message handlers in ``Msu.handlers`` when
it is built and overrides the no-op hooks it needs:

* :meth:`MsuPart.attached` — start loops that run over a new
  Coordinator link;
* :meth:`MsuPart.halt` — interrupt its own processes and forget its
  state (crash, hang and reboot);
* :meth:`MsuPart.inventory` and :meth:`MsuPart.report` — its fields of
  ``MsuHello``/``StateReport`` and of ``StateReport`` alone;
* :meth:`MsuPart.positions` — its heartbeat entries;
* :meth:`MsuPart.file_deleted` — react to a ``DeleteFile``.

The core's attach, heartbeat, report, delete, crash, hang and reboot
paths only walk ``Msu.parts``.  Calls that belong to one stream kind
(a subscriber's VCR command, a channel or patch ending, an ingest
draining) stay direct.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

if TYPE_CHECKING:
    from repro.net.network import ControlChannel
    from repro.sim import Process

__all__ = ["MsuPart", "stop"]


def stop(proc: Optional["Process"], cause: str) -> None:
    """Interrupt ``proc`` unless it never started or already finished."""
    if proc is not None and proc.is_alive:
        proc.interrupt(cause)


class MsuPart:
    """One optional piece of an MSU, stopped and reported with it."""

    def attached(self, channel: "ControlChannel") -> None:
        """The MSU said hello on ``channel``; start loops that use it."""

    def halt(self, cause: str) -> None:
        """Interrupt this part's processes and forget its streams.

        ``cause`` is ``"crash"``, ``"hang"`` or ``"reboot"``.  Only a
        crash also loses what the part keeps in memory across a halt.
        """

    def inventory(self) -> Dict[str, Any]:
        """This part's fields of both ``MsuHello`` and ``StateReport``."""
        return {}

    def report(self) -> Dict[str, Any]:
        """This part's fields of ``StateReport`` alone."""
        return {}

    def positions(self) -> Tuple[tuple, ...]:
        """Heartbeat entries for viewers the IOP's own streams miss."""
        return ()

    def file_deleted(self, disk_id: str, content_name: str) -> None:
        """A ``DeleteFile`` removed ``content_name`` from ``disk_id``."""
