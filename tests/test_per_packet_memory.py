"""Per-packet memory: what a delivered packet leaves behind (DESIGN.md §13.8).

Every delivered packet is kept for the length of a run: its arrival
(time, size) on the client port, once in the port's totals and once in
its unicast or channel flow, and its lateness sample in the IOP's
collector.  All three are flat arrays, so a packet costs about 32
bytes.  A tuple per arrival and a boxed float per sample cost 204
bytes, and this test then fails.

The measurement runs Graph 1's rig at 22 streams: a 3 s window, then
6 s more, with ``tracemalloc`` on from the start so that blocks freed in
the second stretch are subtracted.  The storage layer's allocations are
left out: they are the disk pages the IOP holds in its stream buffers,
which are bounded by the buffer slots and churn with the disk cycle
instead of growing with delivered packets.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.experiments._support import StreamingRig, run_streaming_workload
from repro.media.mpeg import MpegEncoder, packetize_cbr
from repro.units import CBR_PACKET_SIZE, MPEG1_RATE

#: Retained bytes per delivered packet allowed; flat arrays read 31.
BYTES_PER_PACKET = 64

_NOT_STORAGE = [tracemalloc.Filter(False, "*/repro/storage/*")]


def _traced_bytes() -> int:
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(_NOT_STORAGE)
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_graph1_rig_retains_under_64_bytes_per_delivered_packet():
    tracemalloc.start()
    try:
        rig = StreamingRig()
        rig.uncap_admission()
        bitstream = MpegEncoder(rate=MPEG1_RATE, seed=1).bitstream(33.0)
        packets = packetize_cbr(bitstream, MPEG1_RATE, CBR_PACKET_SIZE)
        for d in range(2):
            rig.cluster.load_content(f"movie-d{d}", "mpeg1", packets, disk_index=d)
        plan = [(f"movie-d{i % 2}", "mpeg1") for i in range(22)]
        run_streaming_workload(rig, plan, 3.0, stagger_span=2.0, seed=1)
        ports = rig.client.ports.values()
        delivered0 = sum(p.stats.packets for p in ports)
        retained0 = _traced_bytes()
        rig.sim.run(until=rig.sim.now + 6.0)
        delivered = sum(p.stats.packets for p in ports) - delivered0
        retained = _traced_bytes() - retained0
    finally:
        tracemalloc.stop()
    assert delivered > 5000
    assert retained / delivered <= BYTES_PER_PACKET
