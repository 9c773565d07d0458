#!/usr/bin/env python3
"""MSU failure and recovery (§2.2's fault-tolerance story).

"The Coordinator detects when one of the MSUs fails by a break in the TCP
connection ... When an MSU is down, the Coordinator marks it as
unavailable in the scheduling database.  When the MSU becomes available
again, it contacts the Coordinator and is restored."

The example runs a two-MSU installation, crashes one mid-stream, shows
requests for its content parking in the scheduling queue while the other
MSU keeps serving, then rejoins the failed MSU and watches the queue
drain.  A second act goes past the paper: the MSU *hangs* silently (no
TCP break), the heartbeat monitor declares it dead, and the stream it
was serving migrates to a replica mid-play (DESIGN.md §7).

Run:  python examples/fault_tolerance.py
"""

from repro.clients import Client
from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.core.replication import ReplicationManager
from repro.media import MpegEncoder, packetize_cbr
from repro.sim import Simulator
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE


def main():
    sim = Simulator()
    cluster = CalliopeCluster(sim, ClusterConfig(n_msus=2))
    cluster.coordinator.db.add_customer("ops")
    stream = MpegEncoder(seed=3).bitstream(40.0)
    packets = packetize_cbr(stream, MPEG1_RATE, CBR_PACKET_SIZE)
    cluster.load_content("news", "mpeg1", packets, msu_index=0)
    cluster.load_content("weather", "mpeg1", packets, msu_index=1)

    client = Client(sim, cluster, "ops-desk")
    db = cluster.coordinator.db

    def availability():
        return {name: state.available for name, state in sorted(db.msus.items())}

    def scenario():
        yield from client.open_session("ops")
        yield from client.register_port("tv1", "mpeg1")
        yield from client.register_port("tv2", "mpeg1")

        view = yield from client.play("weather", "tv2")
        yield from client.wait_ready(view)
        print(f"t={sim.now:5.1f}  weather playing from {view.msu_name}")

        print(f"t={sim.now:5.1f}  crashing msu0 ...")
        cluster.fail_msu(0)
        yield sim.timeout(0.5)
        print(f"t={sim.now:5.1f}  coordinator sees: {availability()}")

        print(f"t={sim.now:5.1f}  requesting 'news' (it lives on the dead MSU)")
        news = yield from client.play_with_timeout("news", "tv1", timeout=5.0)
        queue = cluster.coordinator.admission.queue
        print(f"t={sim.now:5.1f}  request {'scheduled' if news else 'parked'}; "
              f"scheduling queue length = {len(queue)}")

        print(f"t={sim.now:5.1f}  msu0 comes back and says hello ...")
        cluster.rejoin_msu(0)
        yield sim.timeout(0.5)
        print(f"t={sim.now:5.1f}  coordinator sees: {availability()}")

        # The parked request was retried on the hello; play again to show
        # service is fully restored.
        news = yield from client.play("news", "tv1")
        yield from client.wait_ready(news)
        print(f"t={sim.now:5.1f}  news playing from {news.msu_name}")
        yield sim.timeout(5.0)

        # -- act two: a silent hang, caught by heartbeats ----------------
        print(f"t={sim.now:5.1f}  replicating 'news' to msu1 ...")
        ReplicationManager(cluster).replicate(
            "news", "msu1", cluster.msus[1].disk_ids()[0]
        )
        print(f"t={sim.now:5.1f}  msu0 hangs silently (no TCP break) ...")
        cluster.hang_msu(0)
        yield sim.timeout(3.0)
        monitor = cluster.coordinator.monitor
        print(f"t={sim.now:5.1f}  heartbeat monitor says msu0 is "
              f"{monitor.state('msu0')!r}; news now playing from "
              f"{news.msu_name} (migrations={news.migrations})")
        yield sim.timeout(2.0)
        client.quit(news.group_id)
        client.quit(view.group_id)

    done = sim.process(scenario())
    sim.run(until=300.0)
    assert done.ok, "scenario failed"
    print(f"weather packets: {client.ports['tv2'].stats.packets}, "
          f"news packets: {client.ports['tv1'].stats.packets}")
    print("queue empty:", len(cluster.coordinator.admission.queue) == 0)


if __name__ == "__main__":
    main()
