"""§2.3.2's RTP two-port handling end to end.

During recording the RTP module "interleaves the control messages with
the rest of the data stream before the data is given to the disk process.
On output, the opposite process is performed": stored KIND_CONTROL
records demultiplex back onto the display port's control socket
(data port + 1), while data stays on the data socket.
"""

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.net.rtp import RtpHeader
from repro.sim import Simulator
from repro.storage import SMALL_PAGES


def session_packets(n_data=60, control_every=10):
    """An RTP session with RTCP-ish reports sprinkled in."""
    packets = []
    for i in range(n_data):
        t = i * 40_000
        header = RtpHeader(28, i, int(t * 90 // 1000), 3)
        packets.append((t, header.pack() + b"frame-data" * 20))
        if i and i % control_every == 0:
            # Unparseable as RTP (version 0) -> classified as control.
            packets.append((t + 1000, b"\x00RTCP-report" + bytes([i])))
    return packets


def record_and_replay(packets):
    sim = Simulator()
    cluster = CalliopeCluster(
        sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES)
    )
    cluster.coordinator.db.add_customer("user")
    client = Client(sim, cluster, "c0")

    def scenario():
        yield from client.open_session("user")
        yield from client.register_port("cam", "rtp-video")
        rec = yield from client.record("talk", "rtp-video", "cam", 60.0)
        yield from client.wait_ready(rec)
        address = rec.record_addresses()["talk"]
        yield from client.send_stream("cam", address, packets)
        yield sim.timeout(0.2)
        client.quit(rec.group_id)
        yield from client.wait_done(rec)
        yield from client.register_port("tv", "rtp-video", capture_payloads=True)
        view = yield from client.play("talk", "tv")
        yield from client.wait_done(view)

    proc = sim.process(scenario())
    sim.run(until=120.0)
    assert proc.ok
    return client


class TestRtpControlPort:
    def test_control_messages_demultiplex_to_control_socket(self):
        packets = session_packets()
        data = [p for t, p in packets if p[0] >> 6 == 2]
        control = [p for t, p in packets if p[0] >> 6 != 2]
        client = record_and_replay(packets)
        port = client.ports["tv"]
        assert port.stats.packets == len(data)
        assert port.control_stats.packets == len(control)
        # The control socket saw exactly the stored control bytes, in order.
        assert port.control_stats.payloads == control

    def test_data_socket_free_of_control_bytes(self):
        client = record_and_replay(session_packets())
        for payload in client.ports["tv"].stats.payloads:
            RtpHeader.parse(payload)  # every data packet parses as RTP

    def test_rtp_port_registers_control_socket(self):
        sim = Simulator()
        cluster = CalliopeCluster(
            sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES)
        )
        cluster.coordinator.db.add_customer("user")
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("v", "rtp-video")
            yield from client.register_port("tv", "mpeg1")

        proc = sim.process(scenario())
        sim.run(until=10.0)
        assert proc.ok
        rtp_port = client.ports["v"]
        mpeg_port = client.ports["tv"]
        assert rtp_port.control_socket is not None
        assert rtp_port.control_socket.port == rtp_port.socket.port + 1
        assert mpeg_port.control_socket is None  # raw is single-port

    def test_close_port_releases_both_sockets(self):
        sim = Simulator()
        cluster = CalliopeCluster(
            sim, ClusterConfig(n_msus=1, ibtree_config=SMALL_PAGES)
        )
        cluster.coordinator.db.add_customer("user")
        client = Client(sim, cluster, "c0")

        def scenario():
            yield from client.open_session("user")
            yield from client.register_port("v", "rtp-video")

        proc = sim.process(scenario())
        sim.run(until=10.0)
        assert proc.ok
        data_port = client.ports["v"].socket.port
        client.close_port("v")
        assert client.host.socket_on(data_port) is None
        assert client.host.socket_on(data_port + 1) is None
