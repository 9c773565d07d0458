"""The committed v1 journal still replays to the committed snapshot.

``tests/fixtures/recovery_v1/journal.json`` is a ``calliope-journal-v1``
file written by the chaos harness's all-on cluster (multicast, cache,
failover, live TV, one edge, two admission shards) at the moment its
Coordinator crashed: a mid-broadcast snapshot plus a 712-record WAL tail.
``recovered.json`` is what ``snapshot_state`` printed after ``recover``
replayed it when the fixture was made.  Any change to the snapshot
codecs, the replay handlers or the restore path that alters what a cold
restart rebuilds from an existing journal fails here.
``tests/fixtures/recovery_v1/generate.py`` regenerates both files.
"""

import json
import pathlib

from repro.core.cluster import ClusterConfig, build_coordinator
from repro.core.coordinator import Coordinator
from repro.edge import EdgeConfig
from repro.failover import FailoverConfig
from repro.live import LiveConfig
from repro.multicast import MulticastConfig
from repro.recovery import JournalStore, recover, snapshot_state
from repro.scaleout import ScaleOutConfig
from repro.sim import Simulator

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "recovery_v1"


def _load_journal() -> JournalStore:
    return JournalStore.from_json((FIXTURE / "journal.json").read_text())


def _cold_coordinator() -> Coordinator:
    return build_coordinator(Simulator(), ClusterConfig(
        failover=FailoverConfig(), multicast=MulticastConfig(),
        edge=EdgeConfig(), live=LiveConfig(), scaleout=ScaleOutConfig(shards=2),
    ))


def test_fixture_is_a_mid_run_v1_journal():
    store = _load_journal()
    assert store.snapshot["format"] == "calliope-snapshot-v1"
    assert store.snapshot_seq > 0
    assert store.wal_length() == 712
    kinds = store.counts_by_kind()
    for kind in ("mcast-open", "live-tune", "edge-serve", "shard-grant",
                 "ticket-add", "group-open", "stream-end"):
        assert kinds.get(kind, 0) > 0, kind


def test_recover_rebuilds_the_committed_snapshot():
    store = _load_journal()
    coord = _cold_coordinator()
    assert recover(coord, store) == store.wal_length()
    expected = json.loads((FIXTURE / "recovered.json").read_text())
    assert (
        json.dumps(snapshot_state(coord), sort_keys=True)
        == json.dumps(expected, sort_keys=True)
    )
