"""Client sessions, display ports and stream groups (§2.1, §2.2).

A display port associates a string name, a content type and a UDP
(address, port).  Ports for composite types are built from
previously-registered ports of the component types.  All ports belong to a
single client-Coordinator session and vanish when it drops.  The groups a
session schedules live in :class:`StreamTables`, which persists both
tables for the Coordinator's crash recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.admission import Allocation, StreamMeta
from repro.core.database import Customer
from repro.errors import TypeMismatchError, UnknownPortError
from repro.media.content import ContentTypeRegistry
from repro.recovery.parts import Part, from_image, image

__all__ = ["DisplayPort", "Session", "SessionTable", "GroupRecord", "StreamTables",
           "match_ports"]


@dataclass
class DisplayPort:
    """One registered display port (atomic or composite)."""

    name: str
    type_name: str
    address: Optional[Tuple[str, int]] = None  # atomic ports only
    component_ports: Tuple[str, ...] = ()  # composite ports only

    @property
    def is_composite(self) -> bool:
        return bool(self.component_ports)


def match_ports(ports: List[DisplayPort], type_names) -> List[DisplayPort]:
    """One of ``ports`` per type name, matched by type and each used
    once: a composite's components paired with its ports (§2.2)."""
    available = list(ports)
    matched = []
    for type_name in type_names:
        match = next((p for p in available if p.type_name == type_name), None)
        if match is None:
            raise TypeMismatchError(f"no component port of type {type_name!r}")
        available.remove(match)
        matched.append(match)
    return matched


@dataclass
class Session:
    """One client-Coordinator session and its ports."""

    session_id: int
    customer: Customer
    client_host: str
    ports: Dict[str, DisplayPort] = field(default_factory=dict)
    active_groups: List[int] = field(default_factory=list)

    def register_port(self, port: DisplayPort) -> None:
        self.ports[port.name] = port

    def drop_group(self, group_id: int) -> None:
        """Forget a finished or failed group (idempotent)."""
        if group_id in self.active_groups:
            self.active_groups.remove(group_id)

    def unregister_port(self, name: str) -> None:
        self.ports.pop(name, None)

    def port(self, name: str) -> DisplayPort:
        try:
            return self.ports[name]
        except KeyError:
            raise UnknownPortError(f"no display port {name!r} in session") from None

    def atomic_ports_for(
        self, port_name: str, types: ContentTypeRegistry
    ) -> List[DisplayPort]:
        """Resolve a port to its atomic members, type-checking components."""
        port = self.port(port_name)
        if not port.is_composite:
            return [port]
        members = []
        for comp_name in port.component_ports:
            comp = self.port(comp_name)
            if comp.is_composite:
                raise TypeMismatchError(
                    f"composite port {port.name!r} may not nest {comp_name!r}"
                )
            members.append(comp)
        return members


class SessionTable:
    """All live sessions, keyed by id."""

    def __init__(self):
        self._sessions: Dict[int, Session] = {}
        self._next_id = 1

    def open(self, customer: Customer, client_host: str) -> Session:
        session = Session(self._next_id, customer, client_host)
        self._sessions[session.session_id] = session
        self._next_id += 1
        return session

    def get(self, session_id: int) -> Session:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise UnknownPortError(f"no session {session_id}") from None

    def lookup(self, session_id: int) -> Optional[Session]:
        """Like :meth:`get` but returns None instead of raising."""
        return self._sessions.get(session_id)

    def close(self, session_id: int) -> Optional[Session]:
        """Drop a session; its port registrations are deallocated (§2.1)."""
        return self._sessions.pop(session_id, None)

    def __len__(self) -> int:
        return len(self._sessions)


@dataclass
class GroupRecord:
    """Coordinator-side bookkeeping for one scheduled stream group."""

    group_id: int
    session_id: int
    msu_name: str
    #: stream_id -> granted allocation.
    allocations: Dict[int, Allocation] = field(default_factory=dict)
    #: stream_id -> (content name, type name) for recordings in progress.
    recordings: Dict[int, Tuple[str, str]] = field(default_factory=dict)
    #: stream_id -> playback identity, kept so the failover migrator can
    #: re-place the group on a replica after an MSU failure.
    streams: Dict[int, StreamMeta] = field(default_factory=dict)
    live = True

    def stream_ids(self) -> set:
        return set(self.allocations) | set(self.streams) | set(self.recordings)


def _session_image(session: Session) -> dict:
    return {
        "session_id": session.session_id,
        "customer": session.customer.name,
        "client_host": session.client_host,
        "ports": [image(port) for port in session.ports.values()],
        "active_groups": list(session.active_groups),
    }


def _session_from_image(data: dict, customers: Dict[str, Customer]) -> Session:
    name = data["customer"]
    session = Session(
        data["session_id"], customers.get(name) or Customer(name),
        data["client_host"],
    )
    for port_data in data.get("ports", ()):
        session.register_port(from_image(DisplayPort, port_data))
    session.active_groups.extend(data.get("active_groups", ()))
    return session


class StreamTables(Part):
    """The session table and the stream-group table, persisted together.

    Also the Coordinator's group and stream id allocator, so ids handed
    out after a replay never collide with journaled ones.
    """

    SECTIONS = ("sessions", "next_session_id", "groups", "counters")

    def __init__(self, db, sessions: SessionTable):
        self.db = db
        self.sessions = sessions
        #: group_id -> scheduled group.
        self.groups: Dict[int, GroupRecord] = {}
        self.next_group = 1
        self.next_stream = 1

    def claim_ids(self, group_id: int, stream_id: int) -> None:
        """Keep future ids above ones already in use."""
        self.next_group = max(self.next_group, group_id + 1)
        self.next_stream = max(self.next_stream, stream_id + 1)

    def add(self, group: GroupRecord, session: Optional[Session]) -> None:
        self.groups[group.group_id] = group
        if session is not None and group.group_id not in session.active_groups:
            session.active_groups.append(group.group_id)

    def held_allocations(self) -> Iterator[Allocation]:
        """Every group's allocations: groups by id, streams by id."""
        for group_id in sorted(self.groups):
            allocations = self.groups[group_id].allocations
            for stream_id in sorted(allocations):
                yield allocations[stream_id]

    def drop(self, group: GroupRecord) -> None:
        """Forget a finished or failed group and its session's reference."""
        self.groups.pop(group.group_id, None)
        session = self.sessions.lookup(group.session_id)
        if session is not None:
            session.drop_group(group.group_id)

    # -- persistence (repro.recovery.parts) -----------------------------------

    def snapshot(self) -> dict:
        table = self.sessions
        return {
            "sessions": [
                _session_image(s) for _, s in sorted(table._sessions.items())
            ],
            "next_session_id": table._next_id,
            "groups": [image(g) for _, g in sorted(self.groups.items())],
            "counters": {
                "next_group": self.next_group,
                "next_stream": self.next_stream,
            },
        }

    def load(self, state: dict) -> None:
        table = self.sessions
        table._sessions.clear()
        for data in state.get("sessions") or ():
            session = _session_from_image(data, self.db.customers)
            table._sessions[session.session_id] = session
        table._next_id = state.get("next_session_id") or 1
        self.groups.clear()
        for data in state.get("groups") or ():
            group = from_image(GroupRecord, data)
            self.groups[group.group_id] = group
        counters = state.get("counters") or {}
        self.next_group = counters.get("next_group", 1)
        self.next_stream = counters.get("next_stream", 1)

    def reconcile(self, by_msu: dict, outcome) -> None:
        """Drop streams no MSU serves; adopt the ones nobody recorded."""
        streams_at: Dict[str, Dict[Tuple[int, int], tuple]] = {}
        subscribers_at: Dict[str, Dict[Tuple[int, int], int]] = {}
        for name, report in by_msu.items():
            streams_at[name] = {
                (gid, sid): (content, disk_id, kind, rate)
                for gid, sid, content, disk_id, kind, rate in report.streams
            }
            subs: Dict[Tuple[int, int], int] = {}
            for channel_id, _gid, _sid, _content, _disk, pairs in report.channels:
                for sub_gid, sub_sid in pairs:
                    subs[(sub_gid, sub_sid)] = channel_id
            # Live channels report separately; fold their fan-out streams
            # and viewer memberships in so those groups are kept (or
            # adopted) by the same MSU-wins rules as everything else.
            for channel_id, gid, sid, content, disk_id, rate, pairs in (
                report.live_channels
            ):
                streams_at[name][(gid, sid)] = (content, disk_id, "play", rate)
                for sub_gid, sub_sid in pairs:
                    subs[(sub_gid, sub_sid)] = channel_id
            subscribers_at[name] = subs

        # Drop coordinator-side streams the MSU is not serving.
        for group in sorted(self.groups.values(), key=lambda g: g.group_id):
            if group.msu_name not in by_msu:
                continue
            serving = streams_at[group.msu_name]
            subs = subscribers_at[group.msu_name]
            for stream_id in sorted(group.stream_ids()):
                key = (group.group_id, stream_id)
                if key in serving or key in subs:
                    outcome.streams_kept += 1
                    continue
                group.allocations.pop(stream_id, None)
                group.streams.pop(stream_id, None)
                recording = group.recordings.pop(stream_id, None)
                outcome.streams_dropped += 1
                what = "recording" if recording else "stream"
                outcome.discrepancies.append(
                    f"{group.msu_name}: {what} {group.group_id}/{stream_id} "
                    f"not serving; dropped"
                )
            if not group.stream_ids():
                self.drop(group)

        # Adopt MSU-side streams the Coordinator has no record of.
        known = {
            (group.group_id, stream_id)
            for group in self.groups.values()
            for stream_id in group.stream_ids()
        }
        for name in sorted(by_msu):
            for key in sorted(streams_at[name]):
                if key in known:
                    continue
                group_id, stream_id = key
                content, disk_id, kind, rate = streams_at[name][key]
                entry = self.db.contents.get(content)
                type_name = entry.type_name if entry is not None else ""
                group = self.groups.get(group_id)
                if group is None:
                    group = GroupRecord(group_id, 0, name)
                    self.groups[group_id] = group
                group.allocations[stream_id] = Allocation(
                    name, disk_id, rate,
                    content_name=content if entry is not None else "",
                )
                if kind == "record":
                    group.recordings[stream_id] = (content, type_name)
                else:
                    group.streams[stream_id] = StreamMeta(
                        content, type_name, ("", 0)
                    )
                self.claim_ids(group_id, stream_id)
                outcome.streams_adopted += 1
                outcome.discrepancies.append(
                    f"{name}: unknown {kind} {group_id}/{stream_id} "
                    f"({content!r}); adopted"
                )

    def _replay_session_open(self, p: dict) -> None:
        session = _session_from_image(p, self.db.customers)
        self.sessions._sessions[session.session_id] = session
        self.sessions._next_id = max(
            self.sessions._next_id, session.session_id + 1
        )

    def _replay_port_add(self, p: dict) -> None:
        session = self.sessions.lookup(p["session_id"])
        if session is not None:
            session.register_port(from_image(DisplayPort, p["port"]))

    def _replay_group_open(self, p: dict) -> None:
        group = from_image(GroupRecord, p["group"])
        self.add(group, self.sessions.lookup(group.session_id))
        self.claim_ids(group.group_id, max(group.stream_ids(), default=0))

    def _replay_group_drop(self, p: dict) -> None:
        group = self.groups.get(p["group_id"])
        if group is not None:
            self.drop(group)
        for name in p.get("dropped_contents", ()):
            self.db.contents.pop(name, None)

    def _replay_stream_end(self, p: dict) -> None:
        group = self.groups.get(p["group_id"])
        if group is None:
            return
        stream_id = p["stream_id"]
        group.allocations.pop(stream_id, None)  # the release has its own record
        recording = group.recordings.pop(stream_id, None)
        if recording is not None and p.get("reason") == "record-complete":
            entry = self.db.contents.get(recording[0])
            if entry is not None:
                entry.blocks = p.get("recorded_blocks", 0)
        if not group.allocations and not group.recordings:
            self.drop(group)

    REPLAY = {
        "session-open": _replay_session_open,
        "session-close": lambda tables, p: tables.sessions.close(p["session_id"]),
        "port-add": _replay_port_add,
        "group-open": _replay_group_open,
        "group-drop": _replay_group_drop,
        "stream-end": _replay_stream_end,
    }
