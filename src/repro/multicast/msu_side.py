"""The MSU side of multicast: channel streams, subscribers and patches.

:class:`MsuMulticast` handles ``ChannelCreate`` and ``ChannelSubscribe``
and owns ``Msu.channels``.  The core MSU calls it for subscriber VCR
commands, quits and stream ends; as an
:class:`~repro.core.msu.parts.MsuPart` it also adds heartbeat positions
and ``StateReport`` channels and forgets its channels when the MSU halts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.msu.msu import GroupState, Msu
from repro.core.msu.parts import MsuPart
from repro.core.msu.streams import ChannelStream, PatchStream, PlayStream
from repro.net import messages as m

__all__ = ["ChannelState", "MsuMulticast"]


@dataclass
class ChannelState:
    """MSU-side state of one multicast channel."""

    channel_id: int
    stream: ChannelStream
    group: GroupState    # the channel stream's own (server-internal) group
    disk_id: str
    content_name: str
    mcast_host: str
    #: viewer group_id -> (stream_id, unicast display address).
    subscribers: Dict[int, tuple] = field(default_factory=dict)


class MsuMulticast(MsuPart):
    """One MSU's multicast channels and their subscribers."""

    def __init__(self, msu: Msu):
        self.msu = msu
        msu.multicast_part = self
        #: Active multicast channels, by channel id (``Msu.channels``).
        self.channels: Dict[int, ChannelState] = {}
        msu.channels = self.channels
        msu.handlers[m.ChannelCreate] = self.create
        msu.handlers[m.ChannelSubscribe] = self.subscribe

    def create(self, msg: m.ChannelCreate) -> None:
        """Open one shared disk stream whose packets go to a group address."""
        self.open(msg, self.msu.filesystems[msg.disk_id].open(msg.content_name))
        self.msu.streams_served += 1
        self.msu._trace("channel", msg.content_name,
                        f"channel={msg.channel_id} group={msg.group_id} "
                        f"disk={msg.disk_id}")

    def open(self, msg, handle, live: bool = False) -> None:
        """Start the fan-out stream of a ``ChannelCreate`` or ``LiveOpen``."""
        msu = self.msu
        stream = ChannelStream(
            msg.stream_id, msg.group_id, handle,
            msu.protocols.get(msg.protocol), msg.rate,
            tuple(msg.mcast_address), msu.ibtree_config,
            channel_id=msg.channel_id,
        )
        stream.live = live
        group = msu._server_group(msg.group_id)
        self.channels[msg.channel_id] = ChannelState(
            msg.channel_id, stream, group, msg.disk_id,
            msg.content_name, msg.mcast_address[0],
        )
        msu._attach(stream, group, msg.disk_id)

    def subscribe(self, msg: m.ChannelSubscribe) -> None:
        """Attach a viewer to a channel, with an optional patch stream."""
        msu = self.msu
        ch = self.channels.get(msg.channel_id)
        group = msu._group_for(msg.group_id, msg.client_host, 1)
        if ch is None:
            # The channel completed between scheduling and arrival; tell
            # everyone so neither side waits on a ghost subscription.
            msu._send_ready(group, msg.stream_id)
            msu._send_end(group, msg.stream_id)
            msu._notify_terminated(group, msg.stream_id, "channel-gone")
            msu._close_group(group, msg.stream_id)
            return
        address = tuple(msg.display_address)
        group.channel_id = msg.channel_id
        ch.subscribers[msg.group_id] = (msg.stream_id, address)
        ch.stream.subscribe(msg.group_id, msg.stream_id, address)
        msu.host.network.join_group(ch.mcast_host, address)
        msu._stream_group[msg.stream_id] = group
        if msg.patch_end_page > 0:
            patch = PatchStream(
                msg.stream_id, msg.group_id,
                msu.filesystems[ch.disk_id].open(ch.content_name),
                ch.stream.protocol, ch.stream.rate, address, msu.ibtree_config,
                end_page=msg.patch_end_page, channel_id=msg.channel_id,
            )
            msu._attach(patch, group, ch.disk_id)
        msu.streams_served += 1
        msu._trace("subscribe", ch.content_name,
                   f"channel={msg.channel_id} group={msg.group_id} "
                   f"patch={msg.patch_end_page}")
        msu._send_ready(group, msg.stream_id, ch.content_name,
                        group_size=group.expected)

    def detach(self, group: GroupState) -> Optional[int]:
        """Drop a group's channel membership; returns its stream id.

        Closes the channel early ("channel-idle") when the last
        subscriber leaves — nobody is listening to the fan-out anymore.
        """
        channel_id, group.channel_id = group.channel_id, None
        ch = self.channels.get(channel_id)
        if ch is None:
            return None
        entry = ch.subscribers.pop(group.group_id, None)
        if entry is None:
            return None
        stream_id, address = entry
        ch.stream.unsubscribe(group.group_id)
        self.msu.host.network.leave_group(ch.mcast_host, address)
        if ch.channel_id in self.msu.live:
            self.msu.live[ch.channel_id].paused.pop(group.group_id, None)
        if ch.stream.idle and not ch.stream.live:
            # A live channel stays on the air with zero viewers — the
            # next surfer tunes straight in; only VoD channels close
            # when their audience is gone.
            msu = self.msu
            self.channels.pop(ch.channel_id, None)
            msu.live_part.forget(ch.channel_id)
            msu._stop_stream(ch.stream)
            msu.groups.pop(ch.group.group_id, None)
            msu._stream_group.pop(ch.stream.stream_id, None)
            msu._notify_terminated(ch.group, ch.stream.stream_id, "channel-idle")
            msu._trace("channel-close", ch.content_name,
                       f"channel={ch.channel_id} reason=channel-idle "
                       f"fanout={ch.stream.fanout_packets}")
        return stream_id

    def complete(self, stream: ChannelStream) -> None:
        """The channel played its file to the end: finish every viewer."""
        msu = self.msu
        ch = self.channels.pop(stream.channel_id, None)
        msu.live_part.forget(stream.channel_id)
        if ch is None:
            return
        msu.groups.pop(ch.group.group_id, None)
        msu._stream_group.pop(stream.stream_id, None)
        for sub_group_id in sorted(ch.subscribers):
            sub_stream_id, address = ch.subscribers[sub_group_id]
            msu.host.network.leave_group(ch.mcast_host, address)
            sub_group = msu.groups.get(sub_group_id)
            if sub_group is None:
                continue
            sub_group.channel_id = None
            # A patch still draining this late cannot outrun its channel
            # usefully; the server tears it down with the channel.
            msu._end_patches(sub_group)
            msu._send_end(sub_group, sub_stream_id)
            msu._notify_terminated(sub_group, sub_stream_id, "end-of-stream")
            msu._close_group(sub_group, sub_stream_id)
        msu._notify_terminated(ch.group, stream.stream_id, "channel-complete")
        msu._trace("channel-complete", ch.content_name,
                   f"channel={ch.channel_id} viewers={len(ch.subscribers)} "
                   f"fanout={stream.fanout_packets}")

    def patch_drained(self, stream: PatchStream, group: GroupState) -> None:
        """The missed prefix is delivered: refund the patch, keep the group."""
        if stream in group.play_streams:
            group.play_streams.remove(stream)
        self.msu._tell_coordinator(
            m.PatchDrained(stream.channel_id, group.group_id, stream.stream_id)
        )
        self.msu._trace("patch-drained", f"stream={stream.stream_id}",
                        f"channel={stream.channel_id} group={group.group_id}")

    def downgrade(self, group: GroupState) -> None:
        """Swap a subscriber's channel membership for a private stream.

        Used when a VCR command (pause/seek/scan) needs a schedule of the
        viewer's own.  The unicast stream picks up at the channel's
        current position; the Coordinator is told so admission can move
        the viewer's charge from patch/channel to a full unicast slot.
        """
        msu = self.msu
        ch = self.channels.get(group.channel_id)
        if ch is None or group.group_id not in ch.subscribers:
            group.channel_id = None
            return
        stream_id, address = ch.subscribers[group.group_id]
        position_us = ch.stream.position_us
        front = ch.stream.front()
        resume_page = (
            front.page_index if front is not None
            else min(ch.stream.next_page, ch.stream.handle.nblocks - 1)
        )
        # Tear down any still-active patch; the private stream replaces it.
        msu._end_patches(group)
        self.detach(group)
        stream = PlayStream(
            stream_id, group.group_id,
            msu.filesystems[ch.disk_id].open(ch.content_name),
            ch.stream.protocol, ch.stream.rate, address, msu.ibtree_config,
        )
        stream.next_page = max(0, resume_page)
        stream.position_us = position_us
        msu._attach(stream, group, ch.disk_id)
        msu._tell_coordinator(
            m.ChannelDowngrade(ch.channel_id, group.group_id, stream_id, position_us)
        )
        msu._trace("downgrade", ch.content_name,
                   f"channel={ch.channel_id} group={group.group_id} "
                   f"page={stream.next_page}")

    def positions(self) -> Tuple[tuple, ...]:
        """Heartbeat entries: each subscriber at its channel's position."""
        return tuple(
            (group_id, stream_id, ch.stream.resume_page, ch.stream.position_us)
            for ch in self.channels.values()
            for group_id, (stream_id, _addr) in sorted(ch.subscribers.items())
        )

    def report(self) -> dict:
        """``channels`` and ``live_channels`` as ``StateReport`` carries them."""
        channels, live_channels = [], []
        for channel_id in sorted(self.channels):
            ch = self.channels[channel_id]
            members = tuple(sorted(
                (gid, sid) for gid, (sid, _addr) in ch.subscribers.items()
            ))
            row = (channel_id, ch.group.group_id, ch.stream.stream_id,
                   ch.content_name, ch.disk_id)
            if channel_id in self.msu.live:
                # Live channels travel in their own field: the multicast
                # reconciler must not adopt them as VoD channels.
                live_channels.append(row + (ch.stream.rate, members))
            else:
                channels.append(row + (members,))
        return dict(channels=tuple(channels), live_channels=tuple(live_channels))

    def halt(self, cause: str) -> None:
        """Forget every channel and its fan-out memberships."""
        for ch in self.channels.values():
            for _group_id, (_stream_id, address) in ch.subscribers.items():
                self.msu.host.network.leave_group(ch.mcast_host, address)
        self.channels.clear()
