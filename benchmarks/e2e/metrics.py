"""Metric definitions and the arithmetic that turns a run into numbers.

The tables here are the single source for ``BENCHMARK.json``'s
``end_to_end`` and ``per_layer`` lists (``test_e2e_smoke.py`` holds the
two in step) and for the prediction column of the README.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import Counter
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "LAYERS", "END_TO_END", "PER_LAYER", "SIMULATED", "hi_percentile",
    "request_spans", "simulated_metrics", "sim_digest",
]

#: The packages of ``src/repro`` a workload can spend events in.  ``other``
#: is everything else: the benchmark's own load-generator processes and
#: the packages no workload exercises (``live``, ``scaleout``, ``verify``).
LAYERS = (
    "sim", "hardware", "storage", "media", "core.msu", "core", "net",
    "clients", "multicast", "edge", "cache", "recovery", "failover",
    "metrics", "other",
)

#: name -> (unit, better, bound, kind).  ``kind`` is "host" (wall clock on
#: the benchmark machine) or "simulated" (what the modelled 1995 hardware
#: does; repeats exactly for a fixed seed).
END_TO_END: Dict[str, Tuple[str, str, float, str]] = {
    "setup_s": ("s", "lower", 0.25, "host"),
    "sim_s_per_wall_s": ("ratio", "higher", 0.25, "host"),
    "events_per_unit": ("events", "lower", 0.10, "simulated"),
    "peak_rss_mb": ("MiB", "lower", 0.10, "host"),
    "startup_ms_p50": ("sim_ms", "lower", 0.05, "simulated"),
    "late_ms_hi": ("sim_ms", "lower", 0.25, "simulated"),
    "served_frac": ("fraction", "higher", 0.15, "simulated"),
    "peak_streams": ("count", "higher", 0.25, "simulated"),
}

SIMULATED = tuple(k for k, v in END_TO_END.items() if v[3] == "simulated")

#: name -> (unit, better, "what it should move, on which workload").
PER_LAYER: Dict[str, Tuple[str, str, str]] = {}

_HW = "events_per_unit and sim_s_per_wall_s on cbr22 and rec_play_mix; ~0 on ctrl_storm"
_LAYER_MOVES = {
    "sim": "sim_s_per_wall_s on all four (the kernel sits under every event)",
    "hardware": _HW,
    "storage": "sim_s_per_wall_s on rec_play_mix only",
    "media": "nothing during the measured phase (content is encoded in set-up)",
    "core.msu": "sim_s_per_wall_s on cbr22, rec_play_mix and zipf_mcast_edge",
    "core": "sim_s_per_wall_s on ctrl_storm and zipf_mcast_edge",
    "net": "sim_s_per_wall_s on cbr22; events_per_unit on zipf_mcast_edge",
    "clients": "events_per_unit on zipf_mcast_edge (one receive per fan-out copy)",
    "multicast": "sim_s_per_wall_s on zipf_mcast_edge; 0 on the other three",
    "edge": "sim_s_per_wall_s on zipf_mcast_edge; 0 on the other three",
    "cache": "0 everywhere (the cache package runs inside edge/MSU processes)",
    "recovery": "0 everywhere (journaling runs inside Coordinator events; see recovery.*_s)",
    "failover": "heartbeat monitor timers; a small constant on the media workloads",
    "metrics": "0 everywhere (collectors are called synchronously)",
    "other": "the benchmark's own load-generator processes",
}
for _layer in LAYERS:
    # Charged to the layer whose frame the wake-up resumes ...
    PER_LAYER[f"{_layer}.events"] = ("count", "lower", _LAYER_MOVES[_layer])
    PER_LAYER[f"{_layer}.host_s"] = ("s", "lower", _LAYER_MOVES[_layer])
for _layer in LAYERS:
    # ... and to the layer that owns the woken process.
    PER_LAYER[f"{_layer}.proc_events"] = ("count", "lower", _LAYER_MOVES[_layer])
    PER_LAYER[f"{_layer}.proc_host_s"] = ("s", "lower", _LAYER_MOVES[_layer])

_SETUP = "setup_s on the three media workloads"
_STORM = "sim_s_per_wall_s on ctrl_storm"
_ZIPF = "peak_streams, served_frac, startup_ms_* on zipf_mcast_edge; 0 on the other three"
_G1 = "late_ms_hi on cbr22 (the §3.2.3 memory-path bottleneck)"
PER_LAYER.update({
    "trace_overhead_frac": ("fraction", "lower", "nothing: the cost of the hook itself"),
    "sim.us_per_event": ("us", "lower", "sim_s_per_wall_s on all four; read on cbr22 and ctrl_storm for heap-vs-wheel"),
    "media.encode_s": ("s", "lower", _SETUP),
    "storage.load_s": ("s", "lower", _SETUP),
    "storage.verify_s": ("s", "lower", "nothing measured (the read-back check of rec_play_mix)"),
    "recovery.append_s": ("s", "lower", _STORM),
    "recovery.snapshot_s": ("s", "lower", _STORM),
    "recovery.replay_s": ("s", "lower", "nothing measured (the replay check of ctrl_storm)"),
    "core.schedule_ms_p50": ("sim_ms", "lower", "startup_ms_p50 on zipf_mcast_edge and ctrl_storm"),
    "core.schedule_ms_hi": ("sim_ms", "lower", "startup_ms_hi on zipf_mcast_edge and ctrl_storm"),
    "core.msu.first_pkt_ms_p50": ("sim_ms", "lower", "startup_ms_p50 on the three media workloads"),
    "core.msu.first_pkt_ms_hi": ("sim_ms", "lower", "startup_ms_hi on the three media workloads"),
    "hardware.disk_busy_frac": ("fraction", "lower", _G1),
    "hardware.membus_busy_frac": ("fraction", "lower", _G1),
    "hardware.nic_line_busy_frac": ("fraction", "lower", _G1),
    "hardware.cpu_busy_frac": ("fraction", "lower", _G1 + "; startup_ms_* on ctrl_storm"),
    "hardware.scsi_cmds": ("count", "lower", _HW),
    "hardware.enobufs": ("count", "lower", "late_ms_hi on cbr22"),
    "core.msu.cycles": ("count", "lower", _G1),
    "core.msu.pages_read": ("count", "lower", "sim_s_per_wall_s on cbr22"),
    "core.msu.pages_written": ("count", "higher", "sim_s_per_wall_s on rec_play_mix; 0 on the other three"),
    "core.msu.pages_from_cache": ("count", "higher", "0 everywhere (no MSU page cache is configured)"),
    "core.msu.packets_sent": ("count", "lower", "sim_s_per_wall_s on cbr22"),
    "net.datagrams_carried": ("count", "lower", "sim_s_per_wall_s on cbr22"),
    "net.datagrams_lost": ("count", "lower", "served_frac on the media workloads; 0 today"),
    "net.multicast_copies": ("count", "higher", "events_per_unit on zipf_mcast_edge; 0 on the other three"),
    "net.ctrl_msgs": ("count", "lower", _STORM),
    "net.ctrl_bytes": ("count", "lower", _STORM),
    "core.requests_handled": ("count", "higher", _STORM),
    "core.admitted": ("count", "higher", "served_frac on zipf_mcast_edge and ctrl_storm"),
    "core.queued": ("count", "lower", "startup_ms_hi on zipf_mcast_edge"),
    "core.rejected": ("count", "lower", "served_frac on zipf_mcast_edge"),
    "core.edge_admitted": ("count", "higher", _ZIPF),
    "multicast.channels_created": ("count", "lower", _ZIPF),
    "multicast.batched_joins": ("count", "higher", _ZIPF),
    "multicast.patched_joins": ("count", "higher", _ZIPF),
    "multicast.merges": ("count", "higher", _ZIPF),
    "multicast.ledger_outstanding": ("count", "lower", "must be 0 after every drain"),
    "edge.hits": ("count", "higher", _ZIPF),
    "edge.misses": ("count", "lower", _ZIPF),
    "edge.bytes_served": ("count", "higher", _ZIPF),
    "edge.uplink_outstanding": ("count", "lower", "must be 0 after every drain"),
    "cache.hits": ("count", "higher", _ZIPF),
    "cache.bytes_served": ("count", "higher", _ZIPF),
    "recovery.wal_records": ("count", "lower", _STORM),
    "recovery.snapshots": ("count", "lower", _STORM),
    "storage.blocks_written": ("count", "lower", "sim_s_per_wall_s on rec_play_mix; 0 on the other three"),
    "storage.ibtree_pages": ("count", "lower", "setup_s on the three media workloads"),
    "clients.packets_received": ("count", "higher", "events_per_unit on the three media workloads"),
    # The hi percentile of start-up sits on zipf_mcast_edge's overload
    # knee (0.7-2.5 s by seed), too unsteady to carry a bound.
    "startup_ms_hi": ("sim_ms", "lower", "core.schedule_ms_hi + core.msu.first_pkt_ms_hi"),
    # Two definitions of the issue that legitimately read 0 on most
    # workloads and so cannot carry a bound relative to their median.
    "late_50ms_frac": ("fraction", "lower", "must stay 0 on cbr22 and rec_play_mix (Graph 1's criterion)"),
    "fail_frac": ("fraction", "lower", "1 - served_frac"),
})


def hi_percentile(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With fewer than eleven
    samples no percentile qualifies and the maximum is reported
    (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n


def request_spans(requests) -> Dict[str, List[float]]:
    """Per-request spans in simulated milliseconds.

    ``startup`` covers every request attempted: one that was refused,
    abandoned or never received data is charged the time until it gave
    up, which is what its user waited.
    """
    startup, schedule, first_pkt = [], [], []
    for r in requests:
        if r.first is not None:
            startup.append((r.first - r.due) * 1e3)
        elif r.ended is not None:
            startup.append((r.ended - r.due) * 1e3)
        if r.scheduled is not None:
            schedule.append((r.scheduled - r.due) * 1e3)
            if r.first is not None:
                first_pkt.append((r.first - r.scheduled) * 1e3)
    return {"startup": startup, "schedule": schedule, "first_pkt": first_pkt}


def simulated_metrics(workload, events: int) -> Tuple[Dict[str, float], dict]:
    """Every simulated number of one run (end-to-end and per-layer), and
    the counts printed beside them."""
    requests = workload.requests
    spans = request_spans(requests)
    attempted = len(requests)
    served = sum(1 for r in requests if r.outcome == "served")
    late_ms = workload.lateness_seconds() * 1e3
    late_hi, late_pct, late_n = hi_percentile(late_ms)
    start_hi, start_pct, start_n = hi_percentile(spans["startup"])
    units = workload.units()
    out = {
        "events_per_unit": events / units if units else float(events),
        "startup_ms_p50": _median(spans["startup"]),
        "startup_ms_hi": start_hi,
        "late_ms_hi": max(0.0, late_hi),
        "served_frac": served / attempted if attempted else 0.0,
        "peak_streams": float(workload.peak_streams),
        "late_50ms_frac": float((late_ms > 50.0).mean()) if late_n else 0.0,
        "fail_frac": 1.0 - served / attempted if attempted else 1.0,
        "core.schedule_ms_p50": _median(spans["schedule"]),
        "core.schedule_ms_hi": hi_percentile(spans["schedule"])[0],
        "core.msu.first_pkt_ms_p50": _median(spans["first_pkt"]),
        "core.msu.first_pkt_ms_hi": hi_percentile(spans["first_pkt"])[0],
    }
    out.update(workload.counters())
    notes = {
        "units": units, "events": events, "attempted": attempted, "served": served,
        "startup_hi_percentile": start_pct, "startup_samples": start_n,
        "late_hi_percentile": late_pct, "late_samples": late_n,
        "outcomes": dict(sorted(Counter(r.outcome or "open" for r in requests).items())),
    }
    return out, notes


def _median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def sim_digest(simulated: Dict[str, float], events: int, sim_now: float) -> str:
    """sha256 over every simulated number, the event count and final sim.now."""
    body = json.dumps(
        {"metrics": {k: repr(v) for k, v in sorted(simulated.items())},
         "events_executed": events, "sim_now": repr(sim_now)},
        sort_keys=True,
    )
    return hashlib.sha256(body.encode()).hexdigest()
