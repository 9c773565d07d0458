"""Regenerate the v1 journal fixture and its expected recovered snapshot.

Runs the chaos harness's all-on cluster (multicast, cache, failover,
live, one edge, two admission shards) under a pinned fault plan, crashes
the Coordinator, and writes two files next to this script:

* ``journal.json`` — the durable journal at the crash, in the
  ``calliope-journal-v1`` format;
* ``recovered.json`` — ``snapshot_state`` of a fresh Coordinator after
  ``recover`` replays that journal (``calliope-snapshot-v1``).

``tests/test_recovery_fixture.py`` loads both and checks that today's
replay still lands on the committed snapshot.  Usage::

    PYTHONPATH=src python tests/fixtures/recovery_v1/generate.py [outdir]
"""

import json
import pathlib
import sys

from repro.core.coordinator import Coordinator
from repro.edge import EdgeConfig
from repro.failover import FailoverConfig
from repro.live import LiveConfig
from repro.multicast import MulticastConfig
from repro.recovery import JournalStore, recover, snapshot_state
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

#: The plan draws every non-Coordinator fault; the one crash is pinned.
KINDS = {
    kind: weight for kind, weight in FAULT_KINDS.items()
    if not kind.startswith("coordinator_")
}


def fresh_coordinator() -> Coordinator:
    """A cold-started replacement with every subsystem the journal names."""
    coord = Coordinator(
        Simulator(), failover=FailoverConfig(), multicast=MulticastConfig(),
        edge=EdgeConfig(), live=LiveConfig(),
    )
    coord.enable_shards(2)
    return coord


def journal_at_crash() -> JournalStore:
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
    sim.run(until=SNAPSHOT_AT)
    store.install_snapshot(snapshot_state(chaos.cluster.coordinator))
    sim.run(until=CRASH_AT + 0.01)
    assert chaos.cluster.coordinator_down
    return JournalStore.from_json(store.to_json())


def main(outdir: pathlib.Path) -> None:
    store = journal_at_crash()
    coord = fresh_coordinator()
    recover(coord, store)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "journal.json").write_text(store.to_json() + "\n")
    (outdir / "recovered.json").write_text(
        json.dumps(snapshot_state(coord), indent=1, sort_keys=True) + "\n"
    )
    print(f"{store.wal_length()} WAL records, "
          f"{len(store.counts_by_kind())} kinds -> {outdir}")


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
         else pathlib.Path(__file__).parent)
