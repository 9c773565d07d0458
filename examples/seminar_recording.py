#!/usr/bin/env python3
"""Recording an MBone seminar and replaying it with an index.

Reproduces two applications from §2.1: recording MBone presentations
(a composite Seminar = RTP video + VAT audio stream group), and the
seminar-index application — "users can examine the index and skip to the
portion of the seminar that interests them" — implemented with VCR seeks
on the replayed group.

Run:  python examples/seminar_recording.py
"""

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.media import NvEncoder, VatEncoder
from repro.net import messages as m
from repro.net.rtp import RtpHeader
from repro.net.vat import VatHeader
from repro.sim import Simulator

SEMINAR_SECONDS = 20.0

#: A human-made index of the talk: name -> seconds from the start.
SEMINAR_INDEX = {
    "introduction": 0.0,
    "architecture": 6.0,
    "performance": 12.0,
    "questions": 17.0,
}


def mbone_session(seconds):
    """The live session as it would arrive off the MBone: RTP + VAT."""
    video = []
    for i, packet in enumerate(NvEncoder(seed=21).packets(seconds)):
        header = RtpHeader(
            payload_type=28, sequence=i & 0xFFFF,
            timestamp=int(packet.delivery_us * 90 // 1000), ssrc=0xBEEF,
        )
        video.append((packet.delivery_us, header.pack() + packet.payload))
    audio = []
    for packet in VatEncoder(seed=22).packets(seconds):
        header = VatHeader(0, 1, 42, int(packet.delivery_us * 8 // 1000))
        audio.append((packet.delivery_us, header.pack() + packet.payload))
    return video, audio


def main():
    sim = Simulator()
    cluster = CalliopeCluster(sim, ClusterConfig(n_msus=1))
    cluster.coordinator.db.add_customer("av-team")
    client = Client(sim, cluster, "seminar-room")
    video, audio = mbone_session(SEMINAR_SECONDS)
    print(f"live session: {len(video)} video packets, {len(audio)} audio packets")

    def record_phase():
        yield from client.open_session("av-team")
        yield from client.register_port("cam", "rtp-video")
        yield from client.register_port("mic", "vat-audio")
        yield from client.register_composite_port("room", "seminar", ["cam", "mic"])
        rec = yield from client.record(
            "usenix-talk", "seminar", "room", estimate_seconds=SEMINAR_SECONDS + 10
        )
        yield from client.wait_ready(rec)
        addresses = rec.record_addresses()
        print(f"MSU listening on {sorted(addresses.values())}; streaming the talk ...")
        video_feed = sim.process(
            client.send_stream("cam", addresses["usenix-talk.rtp-video"], video)
        )
        audio_feed = sim.process(
            client.send_stream("mic", addresses["usenix-talk.vat-audio"], audio)
        )
        yield video_feed
        yield audio_feed
        yield sim.timeout(0.5)
        client.quit(rec.group_id)
        yield from client.wait_done(rec)
        print(f"recorded at t={sim.now:.1f}s; unused reservation returned")

    def replay_phase():
        # A later viewer replays the seminar and hops through the index.
        yield from client.register_port("v-out", "rtp-video")
        yield from client.register_port("a-out", "vat-audio")
        yield from client.register_composite_port("desk", "seminar", ["v-out", "a-out"])
        view = yield from client.play("usenix-talk", "desk")
        yield from client.wait_ready(view)
        print(f"replaying as stream group {view.group_id} "
              f"({len(view.ready_streams)} synchronized members)")
        for section, offset in SEMINAR_INDEX.items():
            print(f"  index: jump to {section!r} at {offset:.0f}s")
            client.vcr(view.group_id, m.VCR_SEEK, offset)
            yield sim.timeout(3.0)
        client.quit(view.group_id)

    def scenario():
        yield from record_phase()
        yield from replay_phase()

    done = sim.process(scenario())
    sim.run(until=600.0)
    assert done.ok, "scenario failed"

    stored_video = cluster.coordinator.db.content("usenix-talk.rtp-video")
    stored_audio = cluster.coordinator.db.content("usenix-talk.vat-audio")
    print(f"stored: video {stored_video.blocks} blocks on {stored_video.disk_id}, "
          f"audio {stored_audio.blocks} blocks on {stored_audio.disk_id}")
    print(f"viewer received {client.ports['v-out'].stats.packets} video / "
          f"{client.ports['a-out'].stats.packets} audio packets across the jumps")


if __name__ == "__main__":
    main()
