#!/usr/bin/env python3
"""Video mail: record short messages, list the mailbox, play them back.

The paper's video-mail application (§1, §2.1): each message is a short
recorded stream; the Coordinator's table of contents doubles as the
mailbox listing.  Recording uses a length *estimate*, and Calliope
returns the over-reserved disk space once the message ends (§2.2) — the
example prints the reservation accounting to show it.

Run:  python examples/video_mail.py
"""

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.media import NvEncoder
from repro.net.rtp import RtpHeader
from repro.sim import Simulator

MESSAGES = [
    ("alice", "re-the-demo", 4.0),
    ("bob", "scsi-bus-woes", 6.0),
    ("alice", "friday-plans", 3.0),
]


def rtp_message(seconds, seed):
    packets = []
    for i, packet in enumerate(NvEncoder(seed=seed).packets(seconds)):
        header = RtpHeader(28, i & 0xFFFF, int(packet.delivery_us * 90 // 1000), seed)
        packets.append((packet.delivery_us, header.pack() + packet.payload))
    return packets


def main():
    sim = Simulator()
    cluster = CalliopeCluster(sim, ClusterConfig(n_msus=1))
    for sender, _, _ in MESSAGES:
        if cluster.coordinator.db.authenticate(sender) is None:
            cluster.coordinator.db.add_customer(sender)

    def leave_message(client, sender, subject, seconds, seed):
        yield from client.open_session(sender)
        yield from client.register_port("cam", "rtp-video")
        name = f"mail.{sender}.{subject}"
        # Senders overestimate: ask for 60 s regardless of actual length.
        rec = yield from client.record(name, "rtp-video", "cam", estimate_seconds=60.0)
        yield from client.wait_ready(rec)
        address = rec.record_addresses()[name]
        yield from client.send_stream("cam", address, rtp_message(seconds, seed))
        yield sim.timeout(0.3)
        client.quit(rec.group_id)
        yield from client.wait_done(rec)
        yield sim.timeout(0.1)  # let the MSU's termination report land
        entry = cluster.coordinator.db.content(name)
        print(f"  {sender} left {subject!r}: {seconds:.0f}s, "
              f"{entry.blocks} blocks on {entry.msu_name}/{entry.disk_id}")
        client.close_session()

    def read_mailbox(client, reader):
        yield from client.open_session(reader)
        listing = yield from client.list_contents()
        mailbox = [name for name, _ in listing if name.startswith("mail.")]
        print(f"  {reader}'s mailbox listing: {mailbox}")
        yield from client.register_port("screen", "rtp-video")
        for name in mailbox:
            view = yield from client.play(name, "screen")
            yield from client.wait_done(view)
            print(f"  {reader} watched {name!r} "
                  f"({client.ports['screen'].stats.packets} packets so far)")

    def scenario():
        print("recording messages:")
        for i, (sender, subject, seconds) in enumerate(MESSAGES):
            mailer = Client(sim, cluster, f"{sender}-phone-{i}")
            yield from leave_message(mailer, sender, subject, seconds, seed=30 + i)
        print("reading the mailbox:")
        reader = Client(sim, cluster, "bob-desktop")
        yield from read_mailbox(reader, "bob")

    done = sim.process(scenario())
    sim.run(until=600.0)
    assert done.ok, "scenario failed"

    # The 60 s estimates were returned: no reservations remain anywhere.
    for msu in cluster.msus:
        for disk_id, fs in msu.filesystems.items():
            assert fs.allocator.reserved_blocks == 0
            print(f"{disk_id}: {fs.allocator.used_blocks} blocks used, "
                  f"{fs.allocator.free_blocks} free, 0 reserved")


if __name__ == "__main__":
    main()
