"""Unicast, the Coordinator's last delivery lane: one private stream per
member of a stream group, all on one MSU (§2.2).  It takes every play
no installed lane took.  Its edge leg is the edge part's (``edge``).
"""

from __future__ import annotations

from typing import Generator

from repro.core.admission import StreamMeta
from repro.core.sessions import GroupRecord, match_ports
from repro.errors import TypeMismatchError
from repro.net import messages as m

__all__ = ["UnicastLane"]


class UnicastLane:
    """One private stream per member, on one MSU; takes every title."""

    def __init__(self, coordinator):
        self.coord = coordinator
        #: The edge part, with ``edge_leg`` and ``begin_serve``; None
        #: keeps every byte flowing from the MSUs.
        self.edge = None

    def takes(self, entry) -> bool:
        return True

    def play(self, msg, channel, session, entry, port) -> Generator:
        """Schedule one play, or park it; yields like ``_play``."""
        group = yield from self.schedule(session, entry, port)
        if group is None:
            # Queued: the client hears nothing until placed.
            self.coord.park_play(msg, channel, entry)
            return None
        self.coord._trace("scheduled", entry.name,
                          f"group={group.group_id} msu={group.msu_name}")
        return m.StreamScheduled(group.group_id, group.msu_name)

    def members(self, session, entry, port) -> list:
        """Pair component contents with component ports, by type (§2.2)."""
        if not entry.components:
            return [(entry, port)]
        if not port.is_composite:
            raise TypeMismatchError(
                f"content {entry.name!r} is composite; port {port.name!r} is not"
            )
        comps = [self.coord.db.content(name) for name in entry.components]
        ports = match_ports(
            [session.port(p) for p in port.component_ports],
            [comp.type_name for comp in comps],
        )
        return list(zip(comps, ports))

    def schedule(self, session, entry, port) -> Generator:
        """Place the members, plan the edge leg (after placing, so a play
        with no MSU slot counts no plan miss), send, commit and start the
        edge serve: the group, or None when it is not scheduled."""
        coord = self.coord
        members = self.members(session, entry, port)
        # Members of one group pin to one MSU so VCR commands stay in sync.
        allocations = coord.place_group(members)
        if allocations is None:
            coord._trace("queued", entry.name, "no resources")
            return None
        leg = None
        if self.edge is not None and not entry.components:
            leg = self.edge.edge_leg(
                entry, coord.types.get(entry.type_name), session.client_host
            )
        edge_name, splice, kind, edge_alloc = leg or (None, 0, None, None)
        group = GroupRecord(
            coord.allocate_group_id(), session.session_id, allocations[0].msu_name
        )
        messages = []
        for (comp_entry, comp_port), alloc in zip(members, allocations):
            stream_id = coord.allocate_stream_id()
            group.allocations[stream_id] = alloc
            group.streams[stream_id] = StreamMeta(
                comp_entry.name, comp_entry.type_name, tuple(comp_port.address)
            )
            ctype = coord.types.get(comp_entry.type_name)
            messages.append(m.ScheduleRead(
                group.group_id, stream_id, comp_entry.name, alloc.disk_id,
                ctype.protocol, ctype.bandwidth_rate, ctype.variable,
                tuple(comp_port.address), session.client_host,
                group_size=len(members), cached=alloc.cache_covered,
                start_page=splice,
            ))
        if not (yield from coord.send_schedules(group, messages)):
            if edge_alloc is not None:  # the serve never started
                coord.admission.release(edge_alloc)
            return None
        coord.db.note_played(entry.name)
        coord.register_group(group, session)
        if edge_name is not None:
            # The serve runs under the tail stream's ids, outside
            # group.allocations, so group teardown and the books audit
            # never see an MSU-shaped charge for it.
            self.edge.begin_serve(
                edge_name, group.group_id, stream_id, entry,
                0, splice, ctype.bandwidth_rate, kind,
                tuple(comp_port.address), edge_alloc,
            )
        return group
