"""The persistence seam: each part owns its journal kinds and snapshot sections.

Covers the field-copy codec, restore replacing (never merging) every
section, the loud failure for records and sections no part owns, the
offline ``cli recovery`` replay of a multicast journal, and a toy part
added through ``Coordinator.add_part`` riding ``recover``,
``restore_state`` and the warm standby's tail with no recovery change.
"""

import json
import pathlib

import pytest

from repro.core.admission import Allocation
from repro.core.cluster import ClusterConfig, build_coordinator
from repro.core.coordinator import Coordinator
from repro.core.database import ContentEntry
from repro.core.sessions import GroupRecord
from repro.edge import EdgeConfig
from repro.failover import FailoverConfig
from repro.live import LIVE_CHANNEL_BASE, LiveChannelRecord, LiveConfig
from repro.multicast import ChannelRecord, MulticastConfig
from repro.net import messages as m
from repro.recovery import (
    JournalStore,
    apply_record,
    recover,
    restore_state,
    snapshot_state,
)
from repro.recovery.reconcile import books_state
from repro.recovery.parts import Part, from_image, image
from repro.scaleout import ScaleOutConfig
from repro.sim import Simulator
from repro.tools import cli

from tests.helpers import MCAST, build_cluster, open_client, start_viewers_together

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "recovery_v1"


def _all_on() -> Coordinator:
    return build_coordinator(Simulator(), ClusterConfig(
        failover=FailoverConfig(), multicast=MulticastConfig(),
        edge=EdgeConfig(), live=LiveConfig(), scaleout=ScaleOutConfig(shards=2),
    ))


def _dump(coord: Coordinator) -> str:
    return json.dumps(snapshot_state(coord), sort_keys=True)


def _fixture() -> JournalStore:
    return JournalStore.from_json((FIXTURE / "journal.json").read_text())


class TestCodec:
    def test_tuples_and_keyed_dicts_become_sorted_lists(self):
        entry = ContentEntry(
            "m", "mpeg1", "msu0", "msu0.sd0", blocks=4,
            replicas=(("msu1", "msu1.sd0"),),
            active={("msu1", "msu1.sd0"): 1, ("msu0", "msu0.sd0"): 2},
        )
        data = json.loads(json.dumps(image(entry)))
        assert data["replicas"] == [["msu1", "msu1.sd0"]]
        assert data["active"] == [
            [["msu0", "msu0.sd0"], 2], [["msu1", "msu1.sd0"], 1]
        ]
        assert from_image(ContentEntry, data) == entry

    def test_missing_keys_take_field_defaults(self):
        assert from_image(ContentEntry, {"name": "m", "type_name": "mpeg1"}) == (
            ContentEntry("m", "mpeg1")
        )
        assert from_image(
            Allocation, {"msu_name": "msu0", "disk_id": "d", "bandwidth": 1.0}
        ) == Allocation("msu0", "d", 1.0)


#: The calliope-journal-v1 record vocabulary.
V1_KINDS = (
    "customer-add content-add content-remove content-replica note-request "
    "content-played msu-register msu-down disk-adjust prefix-pin charge "
    "release release-msu shard-grant shard-steal session-open session-close "
    "port-add group-open group-drop stream-end ticket-add ticket-remove "
    "edge-attach edge-down edge-place edge-evict edge-serve edge-serve-done "
    "mcast-open mcast-subscribe mcast-patch mcast-merge mcast-downgrade "
    "mcast-detach mcast-close live-epg live-open live-tune live-rewind "
    "live-merge live-ingest-done live-detach live-close"
).split()


def test_every_v1_kind_has_exactly_one_owner():
    owned = [kind for part in _all_on().parts for kind in part.REPLAY]
    assert sorted(owned) == sorted(V1_KINDS)


def _viewer_of(live: bool) -> Coordinator:
    """msu0, one channel of the kind and viewer group 5 on it, whose
    stream 6 holds a charged patch slot at half the channel's rate."""
    coord = _all_on()
    slot = Allocation("msu0", "msu0.sd0", 0.5, content_name="m")
    viewer = {"channel_id": LIVE_CHANNEL_BASE + 1 if live else 1,
              "group_id": 5, "stream_id": 6}
    records = [
        ("msu-register", {"name": "msu0", "disks": [["msu0.sd0", 1000]]}),
        ("content-add", {"entry": image(ContentEntry("m", "mpeg1", "msu0", "msu0.sd0"))}),
        ("charge", {"alloc": image(slot)}),
        ("group-open", {"group": image(GroupRecord(5, 0, "msu0", allocations={6: slot}))}),
    ]
    if live:
        channel = LiveChannelRecord(
            viewer["channel_id"], "m", "mpeg1", "msu0", "msu0.sd0", 1, 1,
            2, 2, 1.0, 0.0, 0, False, "mcast", "feed0",
        )
        records += [("live-open", {"channel": image(channel)}), ("live-tune", viewer)]
    else:
        channel = ChannelRecord(
            1, "m", "msu0", "msu0.sd0", 1, 1, 1.0, 0.0, 0, 0,
            Allocation("msu0", "msu0.sd0", 1.0, content_name="m"), "mcast",
        )
        records += [
            ("mcast-open", {"channel": image(channel)}),
            ("mcast-subscribe", viewer),
            ("mcast-patch", {**viewer, "rate": 0.5}),
        ]
    for kind, payload in records:
        apply_record(coord, kind, payload)
    return coord


#: kind -> (live channel?, the live path, the counter it moves).
SHARED_RECORDS = {
    "mcast-merge": (False, lambda c: c.channel_manager.patch_drained(
        m.PatchDrained(1, 5, 6)), "merges"),
    "live-merge": (True, lambda c: c.live_manager.patch_drained(
        m.PatchDrained(LIVE_CHANNEL_BASE + 1, 5, 6)), "merges"),
    "mcast-downgrade": (False, lambda c: c.channel_manager.downgrade(
        m.ChannelDowngrade(1, 5, 6)), "downgrades"),
    "live-rewind": (True, lambda c: c.live_manager.rewound(
        m.LiveRewound(LIVE_CHANNEL_BASE + 1, 5, 6, 0, 4)), "rewinds"),
}


@pytest.mark.parametrize("kind", sorted(SHARED_RECORDS))
def test_replay_repeats_the_live_path(kind):
    live, run, counter = SHARED_RECORDS[kind]
    leader, shadow = _viewer_of(live), _viewer_of(live)
    leader.journal = JournalStore(snapshot_every=0)
    run(leader)
    assert kind in [record.kind for record in leader.journal.records]
    for record in leader.journal.records:
        apply_record(shadow, record.kind, record.payload)
    name = "live_manager" if live else "channel_manager"
    replayed, ran = getattr(shadow, name), getattr(leader, name)
    assert getattr(replayed, counter) == getattr(ran, counter) == 1
    assert shadow.groups[5].allocations == leader.groups[5].allocations
    assert books_state(shadow) == books_state(leader)
    assert [r.subscribers for r in replayed.channels.values()] == [
        r.subscribers for r in ran.channels.values()
    ]
    # Each record's own counters too, not only the manager's totals.
    assert [image(r) for r in replayed.channels.values()] == [
        image(r) for r in ran.channels.values()
    ]


class TestRestoreReplaces:
    """Restoring into a used Coordinator equals restoring into a fresh one."""

    @pytest.mark.parametrize(
        "emptied",
        [None, "customers", "contents", "msus", "queue", "counters",
         "sessions", "next_session_id", "groups", "multicast", "edge",
         "live", "shards"],
    )
    def test_used_and_fresh_agree_for_every_section(self, emptied):
        state = dict(_fixture().snapshot)
        if emptied is not None:
            state[emptied] = None
        used = _all_on()
        recover(used, _fixture())  # channels, serves, live TV, escrow...
        fresh = _all_on()
        restore_state(used, state)
        restore_state(fresh, state)
        assert _dump(used) == _dump(fresh)

    def test_edge_free_snapshot_clears_edges_and_serves(self):
        shadow = _all_on()
        alloc = Allocation("", "", 1.0, content_name="m", edge_name="e0")
        apply_record(shadow, "edge-attach", {
            "edge": "e0", "memory_budget": 1, "uplink_bps": 1e6, "pinned": [],
        })
        apply_record(shadow, "edge-serve", {
            "edge": "e0", "group_id": 7, "stream_id": 8, "content": "m",
            "kind": "prefix", "end_page": 4, "alloc": image(alloc),
        })
        assert (7, 8) in shadow.placement.serves
        restore_state(shadow, snapshot_state(Coordinator(Simulator())))
        assert shadow.placement.serves == {}
        assert shadow.placement.edges == {}

    def test_live_channel_does_not_survive_a_restore(self):
        shadow = _all_on()
        record = LiveChannelRecord(
            900, "live0", "mpeg1", "msu0", "msu0.sd0", 1, 1, 2, 2, 1.0, 0.0,
            0, False, "mcast", "feed0",
        )
        apply_record(shadow, "live-open", {"channel": image(record)})
        assert 900 in shadow.live_manager.channels
        restore_state(shadow, snapshot_state(Coordinator(Simulator())))
        assert shadow.live_manager.channels == {}
        assert shadow.live_manager.channel_for("live0") is None


class TestUnownedStateFailsLoudly:
    def test_record_kind_no_part_owns(self):
        with pytest.raises(ValueError, match="mcast-open"):
            apply_record(Coordinator(Simulator()), "mcast-open", {})

    def test_snapshot_section_no_part_owns(self):
        with pytest.raises(ValueError, match="multicast"):
            restore_state(Coordinator(Simulator()), _fixture().snapshot)


@pytest.mark.integration
class TestCliReplay:
    def test_compact_keeps_the_multicast_section(self, tmp_path, capsys):
        sim, cluster, _ = build_cluster(
            n_msus=2, n_titles=1, multicast=MCAST, run_to=0.05
        )
        viewers = [open_client(sim, cluster, name) for name in ("c0", "c1")]
        start_viewers_together(
            sim, [(client, "title0", "tv") for client in viewers]
        )
        assert len(cluster.coordinator.channel_manager.channels) == 1
        path, out = tmp_path / "journal.json", tmp_path / "compact.json"
        path.write_text(cluster.journal.to_json())
        assert cli.main(["recovery", str(path), "--compact", str(out)]) == 0
        snapshot = JournalStore.from_json(out.read_text()).snapshot
        assert len(snapshot["multicast"]["channels"]) == 1

    def test_unplaceable_records_exit_1_without_writing(self, tmp_path, capsys):
        store = JournalStore(snapshot_every=0)
        store.append("shard-grant", {
            "shard": 0, "msu": "msu0", "disk": "msu0.sd0", "amount": 1.0,
        })
        path, out = tmp_path / "journal.json", tmp_path / "compact.json"
        path.write_text(store.to_json())
        assert cli.main(["recovery", str(path), "--compact", str(out)]) == 1
        assert "shard-grant" in capsys.readouterr().out
        assert not out.exists()


class _Tally(Part):
    """A toy part: one counter, one journal kind, one snapshot section."""

    SECTIONS = ("tally",)

    def __init__(self, coord: Coordinator):
        self.coord = coord
        self.count = 0

    def bump(self) -> None:
        self.count += 1
        self.coord._journal("tally-bump", {"by": 1})

    def snapshot(self) -> dict:
        return {"tally": {"count": self.count}}

    def load(self, state: dict) -> None:
        self.count = (state.get("tally") or {}).get("count", 0)

    def _replay_bump(self, payload: dict) -> None:
        self.count += payload["by"]

    REPLAY = {"tally-bump": _replay_bump}


def test_a_new_part_rides_recover_restore_and_the_standby():
    sim, cluster, _ = build_cluster(n_msus=1, standby=True, run_to=0.05)
    leader, standby = cluster.coordinator, cluster.standbys[0]
    tally, shadow = _Tally(leader), _Tally(standby.shadow)
    leader.add_part(tally)
    standby.shadow.add_part(shadow)
    tally.bump()
    standby.sync()
    assert shadow.count == 1  # replayed record
    tally.bump()
    cluster.journal.install_snapshot(snapshot_state(leader))
    tally.bump()
    standby.sync()
    assert shadow.count == 3  # snapshot resync, then the tail
    cold = cluster.build_coordinator()
    cold_tally = _Tally(cold)
    cold.add_part(cold_tally)
    recover(cold, cluster.journal)
    assert cold_tally.count == 3
    with pytest.raises(ValueError, match="tally"):
        recover(cluster.build_coordinator(), cluster.journal)
    with pytest.raises(ValueError, match="already owned"):
        leader.add_part(_Tally(leader))
