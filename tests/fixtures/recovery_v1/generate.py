"""Regenerate the v1 journal fixture and its expected recovered snapshot.

Runs the chaos harness's all-on cluster (multicast, cache, failover,
live, one edge, two admission shards) under a pinned fault plan, crashes
the Coordinator, and writes three files next to this script:

* ``journal.json`` — the durable journal at the crash, in the
  ``calliope-journal-v1`` format;
* ``recovered.json`` — ``snapshot_state`` of a fresh Coordinator after
  ``recover`` replays that journal (``calliope-snapshot-v1``);
* ``state_reports.json`` — every MSU's ``state_report()`` sampled every
  0.5 s from 0.5 s to the crash at 9.0 s (sampling reads state only, so
  the journal is the same with or without it).

``tests/test_recovery_fixture.py`` loads the first two and checks that
today's replay still lands on the committed snapshot;
``tests/test_state_report_fixture.py`` reruns the cluster and compares
its journal and samples with the first and the third.  Usage::

    PYTHONPATH=src python tests/fixtures/recovery_v1/generate.py [outdir]
"""

import dataclasses
import json
import pathlib
import sys
from typing import List, Tuple

from repro.core.cluster import ClusterConfig, build_coordinator
from repro.core.coordinator import Coordinator
from repro.edge import EdgeConfig
from repro.failover import FailoverConfig
from repro.live import LiveConfig
from repro.multicast import MulticastConfig
from repro.recovery import JournalStore, recover, snapshot_state
from repro.scaleout import ScaleOutConfig
from repro.sim import Simulator
from repro.verify import ChaosConfig, ChaosSchedule
from repro.verify.faults import FAULT_KINDS, FaultOp
from repro.verify.harness import ChaosCluster

SEED = 10
N_OPS = 100
CRASH_AT = 9.0
#: One snapshot mid-broadcast (channels, live TV, edge serves on the
#: books); automatic snapshots are off so the WAL tail runs to the crash.
SNAPSHOT_AT = 1.5
#: Instants at which every MSU's state_report() is sampled.
REPORT_TIMES = tuple(0.5 * k for k in range(1, 19))

#: The plan draws every non-Coordinator fault; the one crash is pinned.
KINDS = {
    kind: weight for kind, weight in FAULT_KINDS.items()
    if not kind.startswith("coordinator_")
}


def fresh_coordinator() -> Coordinator:
    """A cold-started replacement with every subsystem the journal names."""
    return build_coordinator(Simulator(), ClusterConfig(
        failover=FailoverConfig(), multicast=MulticastConfig(),
        edge=EdgeConfig(), live=LiveConfig(), scaleout=ScaleOutConfig(shards=2),
    ))


def run_to_crash() -> Tuple[JournalStore, List[dict]]:
    """The durable journal at the crash, and the state-report samples."""
    schedule = ChaosSchedule.generate(
        SEED, n_ops=N_OPS, horizon=CRASH_AT, kinds=KINDS
    ).with_op(FaultOp(CRASH_AT, "coordinator_crash"))
    chaos = ChaosCluster(schedule, ChaosConfig(n_shards=2))
    store = chaos.cluster.journal
    store.snapshot_every = 0
    sim = chaos.sim
    sim.run(until=0.05)
    chaos._replicate_titles()
    sim.process(chaos._sync_all(), name="chaos.sync")
    samples = []
    for t in sorted(set(REPORT_TIMES) | {SNAPSHOT_AT}):
        sim.run(until=t)
        if t == SNAPSHOT_AT:
            store.install_snapshot(snapshot_state(chaos.cluster.coordinator))
        if t in REPORT_TIMES:
            samples.append({
                "t": t,
                "reports": [
                    dataclasses.asdict(msu.state_report())
                    for msu in chaos.cluster.msus
                ],
            })
    sim.run(until=CRASH_AT + 0.01)
    assert chaos.cluster.coordinator_down
    return JournalStore.from_json(store.to_json()), samples


def state_reports_json(samples: List[dict]) -> str:
    """The committed text of ``state_reports.json``."""
    return json.dumps(samples, indent=1, sort_keys=True) + "\n"


def main(outdir: pathlib.Path) -> None:
    store, samples = run_to_crash()
    coord = fresh_coordinator()
    recover(coord, store)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "journal.json").write_text(store.to_json() + "\n")
    (outdir / "recovered.json").write_text(
        json.dumps(snapshot_state(coord), indent=1, sort_keys=True) + "\n"
    )
    (outdir / "state_reports.json").write_text(state_reports_json(samples))
    print(f"{store.wal_length()} WAL records, "
          f"{len(store.counts_by_kind())} kinds -> {outdir}")


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
         else pathlib.Path(__file__).parent)
