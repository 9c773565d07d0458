"""Control-plane messages (client <-> Coordinator <-> MSU <-> client).

Plain dataclasses carried over :class:`~repro.net.network.ControlChannel`
instances.  ``WIRE_BYTES`` approximates each message's on-the-wire size for
the intra-server network-utilization accounting of §3.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "WIRE_BYTES",
    "OpenSession",
    "SessionOpened",
    "ListContents",
    "ContentListing",
    "RegisterPort",
    "RegisterCompositePort",
    "PortRegistered",
    "PlayRequest",
    "RecordRequest",
    "RequestFailed",
    "StreamScheduled",
    "DeleteContent",
    "Deleted",
    "CloseSession",
    "MsuHello",
    "ScheduleRead",
    "ScheduleRecord",
    "StreamTerminated",
    "Heartbeat",
    "ReportState",
    "StateReport",
    "ResumePlay",
    "StreamMigrated",
    "ChannelCreate",
    "ChannelSubscribe",
    "PatchDrained",
    "ChannelDowngrade",
    "LiveOpen",
    "LiveStop",
    "LiveRewound",
    "PinPrefix",
    "CacheReport",
    "EdgeHello",
    "PlacePrefix",
    "EvictPrefix",
    "EdgeReport",
    "EdgeServe",
    "EdgeServeDone",
    "StreamReady",
    "VcrCommand",
    "EndOfStream",
    "VCR_PLAY",
    "VCR_PAUSE",
    "VCR_SEEK",
    "VCR_FAST_FORWARD",
    "VCR_FAST_BACKWARD",
    "VCR_NORMAL",
    "VCR_QUIT",
    "VCR_REWIND",
]

#: Nominal wire size of a control message including TCP/IP and Ethernet
#: framing (the §3.3 network-utilization accounting counts full frames).
WIRE_BYTES = 300


# -- client <-> Coordinator --------------------------------------------------

@dataclass(frozen=True)
class OpenSession:
    customer: str
    request_id: int = 0


@dataclass(frozen=True)
class SessionOpened:
    session_id: int
    request_id: int = 0


@dataclass(frozen=True)
class ListContents:
    session_id: int
    request_id: int = 0


@dataclass(frozen=True)
class ContentListing:
    items: Tuple[Tuple[str, str], ...]  # (name, type name)
    request_id: int = 0


@dataclass(frozen=True)
class RegisterPort:
    """Associate a name, a content type and a UDP address (§2.1)."""

    session_id: int
    port_name: str
    type_name: str
    address: Tuple[str, int]
    request_id: int = 0


@dataclass(frozen=True)
class RegisterCompositePort:
    """Build a composite display port from registered component ports."""

    session_id: int
    port_name: str
    type_name: str
    component_ports: Tuple[str, ...]
    request_id: int = 0


@dataclass(frozen=True)
class PortRegistered:
    port_name: str
    request_id: int = 0


@dataclass(frozen=True)
class PlayRequest:
    session_id: int
    content_name: str
    port_name: str
    request_id: int = 0


@dataclass(frozen=True)
class RecordRequest:
    """Recording needs a length estimate for space allocation (§2.1)."""

    session_id: int
    content_name: str
    type_name: str
    port_name: str
    estimate_seconds: float
    request_id: int = 0


@dataclass(frozen=True)
class RequestFailed:
    reason: str
    request_id: int = 0


@dataclass(frozen=True)
class StreamScheduled:
    """The request was placed; the MSU will contact the client."""

    group_id: int
    msu_name: str
    request_id: int = 0


@dataclass(frozen=True)
class DeleteContent:
    session_id: int
    content_name: str
    request_id: int = 0


@dataclass(frozen=True)
class Deleted:
    content_name: str
    request_id: int = 0


@dataclass(frozen=True)
class CloseSession:
    session_id: int


# -- Coordinator <-> MSU ----------------------------------------------------

@dataclass(frozen=True)
class MsuHello:
    """Sent when an MSU (re)connects; restores it to the schedule (§2.2)."""

    msu_name: str
    disks: Tuple[Tuple[str, int], ...]  # (disk id, free blocks)
    #: Bytes/sec the MSU's page cache can serve (0 = no cache); the
    #: Coordinator admits cache-covered streams against this budget.
    cache_bps: float = 0.0


@dataclass(frozen=True)
class ScheduleRead:
    group_id: int
    stream_id: int
    content_name: str
    disk_id: str
    protocol: str
    rate: float
    variable: bool
    display_address: Tuple[str, int]
    client_host: str
    group_size: int = 1
    #: Admission expects this stream to be served from the MSU's page
    #: cache (a leader is active on the same content/disk); the disk
    #: process falls back to disk reads on a miss either way.
    cached: bool = False
    #: First page the MSU should deliver.  Non-zero when an edge proxy
    #: serves the opening pages ``[0, start_page)`` from its pinned
    #: prefix while this MSU tail stream runs the rest.
    start_page: int = 0


@dataclass(frozen=True)
class ScheduleRecord:
    group_id: int
    stream_id: int
    content_name: str
    disk_id: str
    protocol: str
    rate: float
    variable: bool
    source_address: Tuple[str, int]  # where the client will send from
    reserve_blocks: int
    client_host: str
    group_size: int = 1


@dataclass(frozen=True)
class DeleteFile:
    """Coordinator -> MSU: remove a stored file (admin delete, §2.1)."""

    content_name: str
    disk_id: str


@dataclass(frozen=True)
class PinPrefix:
    """Coordinator -> MSU: pin a hot title's opening pages in the cache.

    Driven by the admin database's per-title request counts (extension:
    popularity-aware prefix caching).
    """

    content_name: str
    disk_id: str
    pages: int


@dataclass(frozen=True)
class CacheReport:
    """MSU -> Coordinator: periodic cache-served-bandwidth report.

    The Coordinator folds this into the MSU's resource record so the
    administrator (and the metrics report) can see how many duty-cycle
    disk slots the cache is saving and how full the pool runs.
    """

    msu_name: str
    hits: int
    misses: int
    bytes_served: int
    slots_saved: int
    pool_used: int
    pool_capacity: int


@dataclass(frozen=True)
class StreamTerminated:
    """MSU -> Coordinator when a stream/group finishes (§2.2)."""

    group_id: int
    stream_id: int
    reason: str = "quit"
    recorded_blocks: int = 0


@dataclass(frozen=True)
class Heartbeat:
    """MSU -> Coordinator: periodic liveness beacon with stream positions.

    Detects a silent MSU failure faster than waiting for the broken
    control connection (§2.2 only covers the TCP-break case), and the
    carried positions let the Coordinator resume each playback stream
    near where it stopped when migrating to a replica.

    ``positions`` holds one ``(group_id, stream_id, page_index,
    position_us)`` tuple per active playback stream.
    """

    msu_name: str
    seq: int
    positions: Tuple[Tuple[int, int, int, int], ...] = ()


@dataclass(frozen=True)
class ReportState:
    """Coordinator -> MSU: describe everything you are serving right now.

    Sent by a freshly restarted Coordinator (repro.recovery) to each MSU
    that says hello, so the replayed admission books can be reconciled
    against what the real-time half actually has in flight.
    """


@dataclass(frozen=True)
class StateReport:
    """MSU -> Coordinator: full inventory for crash-recovery reconciliation.

    ``streams`` holds one ``(group_id, stream_id, content_name, disk_id,
    kind, rate)`` tuple per active unicast stream, where ``kind`` is
    ``"play"``, ``"record"`` or ``"patch"``.  ``channels`` holds one
    ``(channel_id, group_id, stream_id, content_name, disk_id,
    subscribers)`` tuple per multicast channel, with ``subscribers`` as
    ``(group_id, stream_id)`` pairs.  ``pins`` lists pinned prefixes as
    ``(disk_id, content_name, pages)``.  ``disks`` mirrors MsuHello's
    allocator free-block counts, and ``files`` lists every stored file
    as ``(disk_id, name, blocks)`` with the blocks it holds on disk.
    """

    msu_name: str
    disks: Tuple[Tuple[str, int], ...] = ()
    cache_bps: float = 0.0
    streams: Tuple[Tuple[int, int, str, str, str, float], ...] = ()
    channels: Tuple[Tuple[int, int, int, str, str, Tuple[Tuple[int, int], ...]], ...] = ()
    pins: Tuple[Tuple[str, str, int], ...] = ()
    #: Live channels as ``(channel_id, group_id, stream_id, content_name,
    #: disk_id, rate, subscribers)`` — the in-flight ingest itself travels
    #: in ``streams`` (kind ``"record"``, under its own ingest group).
    live_channels: Tuple[Tuple[int, int, int, str, str, float, Tuple[Tuple[int, int], ...]], ...] = ()
    files: Tuple[Tuple[str, str, int], ...] = ()


@dataclass(frozen=True)
class ResumePlay:
    """Coordinator -> MSU: continue a migrated stream from mid-file.

    Identical to :class:`ScheduleRead` plus a starting position — the
    last page/media-time the failed MSU reported via :class:`Heartbeat`.
    """

    group_id: int
    stream_id: int
    content_name: str
    disk_id: str
    protocol: str
    rate: float
    variable: bool
    display_address: Tuple[str, int]
    client_host: str
    start_page: int = 0
    start_us: int = 0
    group_size: int = 1


@dataclass(frozen=True)
class StreamMigrated:
    """Coordinator -> client: the group moved to a surviving MSU.

    The client library keeps the group's view alive and waits (with
    retry/backoff) for the new MSU's delivery connection to replace the
    broken one.  ``streams`` carries ``(stream_id, resume_us)`` pairs.
    """

    group_id: int
    msu_name: str
    streams: Tuple[Tuple[int, int], ...] = ()
    request_id: int = 0


# -- multicast channels (Coordinator <-> MSU) ---------------------------------

@dataclass(frozen=True)
class ChannelCreate:
    """Coordinator -> MSU: open a multicast channel for one title.

    The MSU schedules a single disk stream (one duty-cycle slot, one
    paced schedule) whose packets go to ``mcast_address``; subscribers
    are attached with :class:`ChannelSubscribe` and join/leave without
    re-anchoring the schedule.
    """

    channel_id: int
    group_id: int        # the channel's own MSU-side group
    stream_id: int
    content_name: str
    disk_id: str
    protocol: str
    rate: float
    variable: bool
    mcast_address: Tuple[str, int]


@dataclass(frozen=True)
class ChannelSubscribe:
    """Coordinator -> MSU: attach one viewer to a multicast channel.

    ``patch_end_page`` > 0 asks the MSU to also run a bounded unicast
    patch stream covering pages ``[0, patch_end_page)`` so a late joiner
    catches up with the channel; ``patch_cached`` records that admission
    charged the patch to the cache budget (pinned prefix), not the disk.
    """

    channel_id: int
    group_id: int        # the viewer's group
    stream_id: int
    client_host: str
    display_address: Tuple[str, int]
    patch_end_page: int = 0
    patch_cached: bool = False


@dataclass(frozen=True)
class PatchDrained:
    """MSU -> Coordinator: a joiner's patch finished; it merged onto the
    channel, so admission refunds the patch charge."""

    channel_id: int
    group_id: int
    stream_id: int


@dataclass(frozen=True)
class ChannelDowngrade:
    """MSU -> Coordinator: a subscriber left its channel for unicast.

    Sent when a VCR command (pause/seek/scan) makes the shared schedule
    unusable for this viewer; the MSU has already installed a private
    unicast stream at ``position_us`` and the Coordinator must move the
    viewer's admission charge from patch/channel to a full unicast slot.
    """

    channel_id: int
    group_id: int
    stream_id: int
    position_us: int = 0


# -- live channels (Coordinator <-> MSU) --------------------------------------

@dataclass(frozen=True)
class LiveOpen:
    """Coordinator -> MSU: start a live channel (ingest + fan-out).

    The MSU creates the ring file, installs a recording stream fed by
    the broadcaster at ``source_host`` (which learns the ingest address
    through the usual :class:`StreamReady` ``record_address``), and a
    tail-following :class:`ChannelStream` fanning the same file out to
    ``mcast_address`` while it is still being appended.  ``ring_blocks``
    bounds the time-shift window: pages older than the window are
    reclaimed, except when the channel doubles as a scheduled recording
    (``ring_blocks`` 0 keeps everything).
    """

    channel_id: int
    group_id: int          # the fan-out stream's own MSU-side group
    stream_id: int
    ingest_group_id: int   # the broadcaster's group (holds the RecordStream)
    ingest_stream_id: int
    content_name: str
    disk_id: str
    protocol: str
    rate: float
    variable: bool
    source_host: str
    mcast_address: Tuple[str, int]
    reserve_blocks: int = 0
    ring_blocks: int = 0   # 0 = no trimming (scheduled recording)


@dataclass(frozen=True)
class LiveStop:
    """Coordinator -> MSU: end a live channel's ingest (EPG off-air).

    The recording stream finishes (trailer pages + root), the fan-out
    drains to the true end of file and completes normally, and every
    viewer hears :class:`EndOfStream` — the same path a broadcaster quit
    takes through the VCR channel.
    """

    channel_id: int


@dataclass(frozen=True)
class LiveRewound:
    """MSU -> Coordinator: a live viewer rewound into the ring window.

    The MSU already runs the unicast rewind patch over
    ``[start_page, end_page)``; the Coordinator charges a refundable
    patch slot (released again by :class:`PatchDrained` when the viewer
    re-merges with the live fan-out).  ``hit`` is False when part of the
    requested window had already been reclaimed and the patch was
    clamped to the oldest resident page.
    """

    channel_id: int
    group_id: int
    stream_id: int
    start_page: int
    end_page: int
    hit: bool = True


# -- edge proxies (Coordinator <-> EdgeProxy) ---------------------------------

@dataclass(frozen=True)
class EdgeHello:
    """Sent when an edge proxy (re)connects to the Coordinator.

    ``pinned`` carries the edge's surviving prefix inventory as
    ``(content_name, pages)`` pairs — the authoritative truth the
    Coordinator's placement view adopts wholesale (edge-wins
    reconciliation, mirroring the MSU StateReport contract).
    """

    edge_name: str
    memory_budget: int
    uplink_bps: float
    pinned: Tuple[Tuple[str, int], ...] = ()


@dataclass(frozen=True)
class PlacePrefix:
    """Coordinator -> edge: fetch and pin a title's opening pages.

    The edge trickle-fetches ``pages`` pages of ``page_size`` bytes from
    the title's home MSU and pins them; the fill is best effort and the
    Coordinator learns the outcome from the next :class:`EdgeReport`.
    """

    content_name: str
    msu_name: str
    disk_id: str
    pages: int
    page_size: int
    rate: float


@dataclass(frozen=True)
class EvictPrefix:
    """Coordinator -> edge: drop a title's pinned prefix (placement loop)."""

    content_name: str


@dataclass(frozen=True)
class EdgeReport:
    """Edge -> Coordinator: periodic inventory + counters report."""

    edge_name: str
    pinned: Tuple[Tuple[str, int], ...] = ()
    bytes_pinned: int = 0
    uplink_used_bps: float = 0.0
    prefix_bytes_served: int = 0
    patch_bytes_served: int = 0
    hits: int = 0
    misses: int = 0


@dataclass(frozen=True)
class EdgeServe:
    """Coordinator -> edge: pace pages ``[start_page, end_page)`` of a
    title at ``rate`` to ``display_address``.

    ``kind`` is ``"prefix"`` (opening leg of a spliced unicast play,
    sharing the MSU tail stream's ids), ``"patch"`` (a late joiner's
    multicast catch-up window) or ``"interval"`` (a trailing viewer
    riding a recently-served window).
    """

    group_id: int
    stream_id: int
    content_name: str
    display_address: Tuple[str, int]
    start_page: int
    end_page: int
    rate: float
    page_size: int
    kind: str = "prefix"


@dataclass(frozen=True)
class EdgeServeDone:
    """Edge -> Coordinator: a serve finished; refund its uplink charge."""

    edge_name: str
    group_id: int
    stream_id: int
    nbytes: int
    kind: str = "prefix"


# -- MSU <-> client ------------------------------------------------------------

@dataclass(frozen=True)
class StreamReady:
    """The MSU's control connection greeting: VCR commands may begin."""

    group_id: int
    msu_name: str
    stream_id: int = -1
    content_name: str = ""
    group_size: int = 1
    #: For recordings: the MSU address the client should send media to.
    record_address: Optional[Tuple[str, int]] = None


VCR_PLAY = "play"
VCR_PAUSE = "pause"
VCR_SEEK = "seek"
VCR_FAST_FORWARD = "fast-forward"
VCR_FAST_BACKWARD = "fast-backward"
VCR_NORMAL = "normal"
VCR_QUIT = "quit"
#: Live channels only: jump back ``position_seconds`` into the
#: time-shift ring window (pause-live resume uses it implicitly).
VCR_REWIND = "rewind"


@dataclass(frozen=True)
class VcrCommand:
    group_id: int
    command: str
    position_seconds: float = 0.0  # for seek


@dataclass(frozen=True)
class EndOfStream:
    group_id: int
    stream_id: int
