"""Mid-stream migration of playback groups onto surviving replicas.

When the Coordinator declares an MSU dead, every playback group it was
serving is turned into a :class:`ResumeTicket`: the group's identity,
its member streams (content, type, display address) and the last
position each stream reported via heartbeat.  The migrator then re-runs
admission for the whole group on the surviving MSUs — the content table
already knows about replicas made by the ReplicationManager — and, on
success, sends the new MSU :class:`~repro.net.messages.ResumePlay` for
each member plus a :class:`~repro.net.messages.StreamMigrated` notice to
the client's session.

Group identity is preserved across the move: the resumed streams keep
their group and stream ids, so the client's existing
:class:`~repro.clients.client.GroupView` simply receives a new VCR
channel and fresh ``StreamReady`` messages from the new MSU.

Tickets that cannot be placed (no live replica, or survivors full) are
parked on the admission queue at ``PRIORITY_RESUME`` — ahead of all new
requests — and retried by the Coordinator's normal ``_retry_queue``
machinery whenever resources change: a stream ends, a new replica is
made, or the failed MSU rejoins.

Recording groups are not migrated: their half-written files died with
the MSU and the Coordinator already dropped the partial content entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from repro.core.admission import MemberResume, ResumeTicket, StreamMeta
from repro.core.coordinator import Coordinator
from repro.core.sessions import GroupRecord
from repro.net import messages as m

__all__ = ["MigrationRecord", "StreamMigrator"]


@dataclass(frozen=True)
class MigrationRecord:
    """One completed migration (for logs, metrics and tests)."""

    group_id: int
    from_msu: str
    to_msu: str
    at: float
    streams: int


class StreamMigrator:
    """Turns orphaned playback groups into resumed ones."""

    def __init__(self, coordinator: Coordinator):
        self.coordinator = coordinator
        self.records: List[MigrationRecord] = []
        self.migrated_groups = 0
        self.migrated_streams = 0
        #: Tickets parked on the admission queue (no replica / no room).
        self.queued = 0
        #: Tickets dropped because session or content no longer exists.
        self.dropped = 0

    # -- ticket construction ---------------------------------------------------

    def msu_failed(self, msu_name: str, groups: List) -> None:
        """Build resume tickets for the dead MSU's playback groups."""
        coord = self.coordinator
        for group in groups:
            if group.recordings or not group.streams:
                continue  # recordings died with their half-written files
            session = coord.sessions.lookup(group.session_id)
            if session is None:
                self.dropped += 1
                continue
            members = []
            for stream_id, meta in group.streams.items():
                page, us = (0, 0)
                if coord.monitor is not None:
                    page, us = coord.monitor.position(
                        msu_name, group.group_id, stream_id
                    )
                members.append(
                    MemberResume(
                        stream_id, meta.content_name, meta.type_name,
                        tuple(meta.display_address), start_page=page, start_us=us,
                    )
                )
            ticket = ResumeTicket(
                group.group_id, group.session_id, session.client_host,
                msu_name, tuple(members), coord.sim.now,
            )
            coord.sim.process(
                self.migrate(ticket), name=f"migrate.g{group.group_id}"
            )

    # -- migration -------------------------------------------------------------

    def migrate(self, ticket: ResumeTicket) -> Generator:
        """Re-admit a ticket's group on a surviving MSU and resume it."""
        coord = self.coordinator
        if coord.dead:
            return
        if coord.recovering:
            # Books are mid-rebuild; park the ticket durably instead of
            # placing against stale capacity.  It drains with the queue
            # once reconciliation completes.
            coord.queue_resume(ticket)
            self.queued += 1
            return
        if ticket.group_id in coord.groups:
            return  # already resumed (double failure signal)
        session = coord.sessions.lookup(ticket.session_id)
        if session is None:
            self.dropped += 1
            return
        entries = [coord.db.contents.get(mem.content_name) for mem in ticket.members]
        if any(entry is None for entry in entries):
            self.dropped += 1
            self._trace("migrate-drop", ticket, "content gone")
            return
        placed = coord.place_group(list(zip(entries, ticket.members)))
        if placed is None:
            coord.queue_resume(ticket)
            self.queued += 1
            self._trace("migrate-queued", ticket, "no live replica/capacity")
            return
        msu_pin = placed[0].msu_name
        group = GroupRecord(ticket.group_id, ticket.session_id, msu_pin)
        size = len(placed)
        messages = []
        for member, alloc in zip(ticket.members, placed):
            group.allocations[member.stream_id] = alloc
            group.streams[member.stream_id] = StreamMeta(
                member.content_name, member.type_name, member.display_address
            )
            ctype = coord.types.get(member.type_name)
            messages.append(m.ResumePlay(
                ticket.group_id, member.stream_id, member.content_name,
                alloc.disk_id, ctype.protocol, ctype.bandwidth_rate,
                ctype.variable, tuple(member.display_address),
                ticket.client_host, start_page=member.start_page,
                start_us=member.start_us, group_size=size,
            ))
        if not (yield from coord.send_schedules(group, messages)):
            coord.queue_resume(ticket)
            self.queued += 1
            return
        coord.register_group(group, session)
        coord.notify_session(
            ticket.session_id,
            m.StreamMigrated(
                group.group_id, msu_pin,
                tuple((mem.stream_id, mem.start_us) for mem in ticket.members),
            ),
        )
        record = MigrationRecord(
            group.group_id, ticket.from_msu, msu_pin, coord.sim.now, size
        )
        self.records.append(record)
        self.migrated_groups += 1
        self.migrated_streams += size
        self._trace("migrated", ticket, f"to={msu_pin} streams={size}")

    def _trace(self, category: str, ticket: ResumeTicket, detail: str) -> None:
        self.coordinator._trace(
            category, f"group={ticket.group_id}",
            f"from={ticket.from_msu} {detail}",
        )
