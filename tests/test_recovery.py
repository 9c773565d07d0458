"""Coordinator crash recovery: journal, snapshots, replay, reconciliation.

The unit half exercises the durable pieces in isolation — the
:class:`JournalStore` WAL/snapshot mechanics and the snapshot round trip.
The integration half kills the live Coordinator mid-playback
(``cluster.crash_coordinator``), cold-starts a replacement from the
journal, and checks the paper-level promises: already-admitted streams
keep playing through the outage, queued requests survive as durable
tickets, terminations the dead Coordinator never heard about are
resolved MSU-wins, and the rebuilt books are byte-identical to a
from-scratch reconciliation.
"""

import json

import pytest

from repro.core.coordinator import Coordinator
from repro.errors import CalliopeError, ContentInUseError
from repro.live import ChannelSpec
from repro.recovery import (
    JournalStore,
    books_state,
    expected_books,
    recover,
    restore_state,
    snapshot_state,
)
from repro.sim import Simulator
from repro.units import MPEG1_RATE
from repro.verify import builtin_registry

from tests.helpers import (
    MCAST, build_cluster, open_client, start_viewer, start_viewers_together,
)
from tests.test_live import build_live


class TestJournalStore:
    def test_append_assigns_monotone_seqs(self):
        store = JournalStore(snapshot_every=4)
        first = store.append("customer-add", {"name": "a", "admin": False})
        second = store.append("note-request", {"name": "m"})
        assert (first.seq, second.seq) == (1, 2)
        assert store.wal_length() == 2
        assert store.appends == 2
        assert store.counts_by_kind() == {"customer-add": 1, "note-request": 1}

    def test_snapshot_due_and_truncation(self):
        store = JournalStore(snapshot_every=3)
        for i in range(3):
            assert not store.snapshot_due() or i == 3
            store.append("note-request", {"name": f"m{i}"})
        assert store.snapshot_due()
        store.install_snapshot({"fake": "state"})
        assert store.snapshot == {"fake": "state"}
        assert store.snapshot_seq == 3
        assert store.wal_length() == 0
        assert store.truncated_records == 3
        # Sequence numbers keep climbing across the truncation.
        assert store.append("note-request", {"name": "m"}).seq == 4

    def test_zero_snapshot_every_disables_auto_snapshots(self):
        store = JournalStore(snapshot_every=0)
        for i in range(10):
            store.append("note-request", {"name": "m"})
        assert not store.snapshot_due()

    def test_json_round_trip(self):
        store = JournalStore(snapshot_every=5)
        store.install_snapshot({"v": 1})
        store.append("customer-add", {"name": "a", "admin": True})
        clone = JournalStore.from_json(store.to_json())
        assert clone.snapshot == store.snapshot
        assert clone.snapshot_seq == store.snapshot_seq
        assert clone.next_seq == store.next_seq
        assert clone.records == store.records

    def test_from_json_rejects_foreign_files(self):
        with pytest.raises(ValueError, match="not a Calliope journal"):
            JournalStore.from_json(json.dumps({"format": "something-else"}))


def _fresh_coordinator():
    return Coordinator(Simulator())


def _comparable(state: dict) -> str:
    """Snapshot image minus the lifetime metric counters.

    Replaying "charge"/"release" records rebuilds the books but not the
    admitted/queued/rejected tallies — a documented accepted loss
    (DESIGN.md §10); everything else must round-trip byte-identical.
    """
    state = json.loads(json.dumps(state))  # deep copy
    for key in ("admitted", "queued", "rejected", "cache_admitted"):
        state["counters"].pop(key, None)
    return json.dumps(state, sort_keys=True)


class TestSnapshotRestore:
    def test_round_trip_is_byte_identical(self):
        coord = _fresh_coordinator()
        coord.db.add_customer("user")
        coord.admin_add_content("m", "mpeg1", "msu0", "msu0.sd0", blocks=4)
        coord.db.register_msu("msu0", [("msu0.sd0", 1000)], cache_bps=1e6)
        coord.db.note_request("m")
        ctype = coord.types.get("mpeg1")
        alloc = coord.admission.place_read(coord.db.content("m"), ctype)
        assert alloc is not None
        state = snapshot_state(coord)
        clone = _fresh_coordinator()
        restore_state(clone, state)
        assert (
            json.dumps(snapshot_state(clone), sort_keys=True)
            == json.dumps(state, sort_keys=True)
        )

    def test_replay_reproduces_mutations(self):
        store = JournalStore(snapshot_every=256)
        coord = _fresh_coordinator()
        coord.attach_journal(store)
        coord.db.add_customer("user")
        coord.db.register_msu("msu0", [("msu0.sd0", 1000)])
        coord.admin_add_content("m", "mpeg1", "msu0", "msu0.sd0", blocks=4)
        ctype = coord.types.get("mpeg1")
        held = coord.admission.place_read(coord.db.content("m"), ctype)
        released = coord.admission.place_read(coord.db.content("m"), ctype)
        coord.admission.release(released)
        clone = _fresh_coordinator()
        assert recover(clone, store) == store.wal_length()
        assert _comparable(snapshot_state(clone)) == _comparable(
            snapshot_state(coord)
        )
        assert clone.db.msus["msu0"].active_streams == 1

    def test_replay_starts_from_snapshot_plus_tail(self):
        store = JournalStore(snapshot_every=2)  # snapshot after 2 records
        coord = _fresh_coordinator()
        coord.attach_journal(store)
        coord.db.add_customer("user")
        coord.db.register_msu("msu0", [("msu0.sd0", 1000)])
        assert store.snapshots_taken >= 2  # the attach seed + one auto
        coord.db.add_customer("late")
        assert store.wal_length() == 1  # only the tail past the snapshot
        clone = _fresh_coordinator()
        recover(clone, store)
        assert set(clone.db.customers) == {"user", "late"}


@pytest.mark.integration
class TestCoordinatorRestart:
    def test_admitted_streams_survive_the_outage(self):
        sim, cluster, _ = build_cluster(n_msus=2, n_titles=2, run_to=0.3)
        client = open_client(sim, cluster)
        views = [
            start_viewer(sim, client, f"title{t}", f"v{t}") for t in range(2)
        ]
        cluster.crash_coordinator()
        crash_at = sim.now
        sim.run(until=crash_at + 1.5)
        # MSUs kept serving unsupervised: every group still has streams.
        for msu in cluster.msus:
            assert msu.up
        cluster.restart_coordinator()
        sim.run(until=sim.now + 1.0)
        coord = cluster.coordinator
        outcome = coord.last_recovery
        assert outcome is not None
        assert outcome.msus_missing == 0
        assert outcome.streams_kept == 2
        assert outcome.streams_dropped == 0
        assert outcome.streams_adopted == 0
        for view in views:
            assert view.group_id in coord.groups
        assert (
            json.dumps(books_state(coord), sort_keys=True)
            == json.dumps(expected_books(coord), sort_keys=True)
        )

    def test_crash_requires_a_journal(self):
        sim, cluster, _ = build_cluster(n_msus=1, run_to=0.2)
        cluster.journal = None
        with pytest.raises(CalliopeError, match="journal"):
            cluster.crash_coordinator()

    def test_client_rpcs_fail_fast_while_down(self):
        sim, cluster, _ = build_cluster(n_msus=1, n_titles=1, run_to=0.3)
        client = open_client(sim, cluster)
        cluster.crash_coordinator()
        with pytest.raises(CalliopeError):
            open_client(sim, cluster, name="c1")

        def late_play():
            yield from client.register_port("tv", "mpeg1")

        proc = sim.process(late_play())
        with pytest.raises(CalliopeError, match="closed"):
            sim.run_until_event(proc, limit=5.0)

    def test_termination_during_outage_resolved_msu_wins(self):
        sim, cluster, _ = build_cluster(n_msus=2, n_titles=2, run_to=0.3)
        client = open_client(sim, cluster)
        kept = start_viewer(sim, client, "title0", "v0")
        quitter = start_viewer(sim, client, "title1", "v1")
        cluster.crash_coordinator()
        # The quit travels client -> MSU over the VCR channel, which is
        # alive; the StreamTerminated toward the dead Coordinator is lost.
        client.quit(quitter.group_id)
        sim.run(until=sim.now + 1.0)
        cluster.restart_coordinator()
        sim.run(until=sim.now + 1.0)
        coord = cluster.coordinator
        outcome = coord.last_recovery
        assert outcome.streams_kept == 1
        assert outcome.streams_dropped == 1
        assert quitter.group_id not in coord.groups
        assert kept.group_id in coord.groups
        assert (
            json.dumps(books_state(coord), sort_keys=True)
            == json.dumps(expected_books(coord), sort_keys=True)
        )

    def test_msu_dead_during_outage_declared_failed(self):
        sim, cluster, _ = build_cluster(
            n_msus=2, n_titles=1, failover="fast", run_to=0.3
        )
        client = open_client(sim, cluster)
        start_viewer(sim, client, "title0", "v0")
        cluster.crash_coordinator()
        cluster.fail_msu(1, crash=True)  # no StateReport will ever come
        sim.run(until=sim.now + 0.5)
        cluster.restart_coordinator()
        sim.run(until=sim.now + 2.0)
        coord = cluster.coordinator
        outcome = coord.last_recovery
        assert outcome.msus_missing == 1
        assert not coord.db.msus["msu1"].available

    def test_queued_ticket_survives_the_crash(self):
        sim, cluster, _ = build_cluster(n_msus=1, n_titles=1, run_to=0.3)
        coord = cluster.coordinator
        # Pinch delivery so a third stream cannot fit and must queue.
        coord.db.msus["msu0"].delivery_capacity = 2.2 * MPEG1_RATE
        client = open_client(sim, cluster)
        start_viewer(sim, client, "title0", "v0")
        start_viewer(sim, client, "title0", "v1")

        def third():
            yield from client.register_port("v2", "mpeg1")
            yield from client.play("title0", "v2")

        sim.process(third())
        sim.run(until=sim.now + 0.5)
        assert len(coord.admission.queue) == 1
        ticket_id = coord.admission.queue[0].ticket_id
        assert ticket_id > 0
        cluster.crash_coordinator()
        sim.run(until=sim.now + 1.0)
        cluster.restart_coordinator()
        coord = cluster.coordinator
        sim.run(until=sim.now + 1.0)
        assert coord.last_recovery.tickets_recovered == 1
        # The replayed MSU registration restored full default capacity,
        # so the post-recovery retry places the parked request.
        assert len(coord.admission.queue) == 0
        assert len(coord.groups) == 3

    def test_restart_without_msus_reconciles_empty(self):
        sim, cluster, _ = build_cluster(n_msus=1, run_to=0.2)
        cluster.fail_msu(0, crash=True)
        sim.run(until=sim.now + 0.2)
        cluster.crash_coordinator()
        cluster.restart_coordinator()
        sim.run(until=sim.now + 2.0)
        coord = cluster.coordinator
        assert coord.last_recovery is not None
        assert coord.last_recovery.msus_reported == 0


class TestRemoveContentGuard:
    def test_active_readers_block_removal(self):
        sim, cluster, _ = build_cluster(n_msus=1, n_titles=1, run_to=0.3)
        coord = cluster.coordinator
        client = open_client(sim, cluster)
        view = start_viewer(sim, client, "title0", "v0")
        with pytest.raises(ContentInUseError, match="active reader"):
            coord.db.remove_content("title0")
        client.quit(view.group_id)
        sim.run(until=sim.now + 1.0)
        assert coord.db.content("title0").active_total() == 0
        entry = coord.db.remove_content("title0")
        assert entry.name == "title0"
        assert "title0" not in coord.db.contents


class TestReplayIdempotence:
    """Replaying the same durable state twice must change nothing.

    The warm standby re-runs exactly this machinery continuously — a
    snapshot re-restore after a truncation, then whatever WAL suffix it
    has not seen — so restore+replay has to be a pure function of the
    journal: byte-identical however many times, and from whatever
    starting state, it is applied.
    """

    def _journaled_cluster(self):
        sim, cluster, _ = build_cluster(n_msus=2, n_titles=2, run_to=0.3)
        client = open_client(sim, cluster)
        for t in range(2):
            start_viewer(sim, client, f"title{t}", f"v{t}")
        sim.run(until=2.0)
        return sim, cluster

    def test_recover_is_deterministic_across_fresh_coordinators(self):
        _, cluster = self._journaled_cluster()
        store = cluster.journal
        first, second = _fresh_coordinator(), _fresh_coordinator()
        recover(first, store)
        recover(second, store)
        assert (
            json.dumps(snapshot_state(first), sort_keys=True)
            == json.dumps(snapshot_state(second), sort_keys=True)
        )

    def test_recover_twice_into_one_coordinator_is_idempotent(self):
        _, cluster = self._journaled_cluster()
        store = cluster.journal
        coord = _fresh_coordinator()
        recover(coord, store)
        once = json.dumps(snapshot_state(coord), sort_keys=True)
        books_once = json.dumps(books_state(coord), sort_keys=True)
        # The restore resets the state wholesale, so replaying the very
        # same snapshot + WAL again lands on the very same bytes — no
        # charge applies twice, no grant accumulates.
        recover(coord, store)
        assert json.dumps(snapshot_state(coord), sort_keys=True) == once
        assert json.dumps(books_state(coord), sort_keys=True) == books_once

    def test_compaction_is_invisible_to_replay(self):
        _, cluster = self._journaled_cluster()
        store = cluster.journal
        replayed = _fresh_coordinator()
        recover(replayed, store)
        compacted = JournalStore.from_json(store.to_json())
        compacted.install_snapshot(snapshot_state(replayed))
        assert compacted.wal_length() == 0
        fresh = _fresh_coordinator()
        recover(fresh, compacted)
        assert (
            json.dumps(snapshot_state(fresh), sort_keys=True)
            == json.dumps(snapshot_state(replayed), sort_keys=True)
        )

    def test_standby_tail_skips_already_applied_records(self):
        sim, cluster, _ = build_cluster(
            n_msus=2, n_titles=1, standby=True, run_to=0.3
        )
        client = open_client(sim, cluster)
        start_viewer(sim, client, "title0", "v0")
        sim.run(until=1.0)
        standby = cluster.standbys[0]
        standby.sync()
        before = json.dumps(books_state(standby.shadow), sort_keys=True)
        # An overlapping suffix (same snapshot, same records) applies
        # nothing: the seq cursor already covers every record.
        assert standby.sync() == 0
        after = json.dumps(books_state(standby.shadow), sort_keys=True)
        assert after == before


class TestLostJournalTail:
    """The journal's tail is lost from the channel-open record on, so the
    restarted Coordinator meets a channel an MSU runs that it never saw.

    Reconcile adopts the channel MSU-wins; the invariants hold, the books
    equal the ones rebuilt from every part's held allocations, and the
    adopted channel runs to its end and settles cleanly.
    """

    @staticmethod
    def lose_tail_and_restart(sim, cluster, kind):
        cluster.crash_coordinator()
        records = cluster.journal.records
        cut = [r.kind for r in records].index(kind)
        del records[cut:]
        sim.run(until=sim.now + 0.5)
        cluster.restart_coordinator()
        sim.run(until=sim.now + 1.5)
        coord = cluster.coordinator
        assert builtin_registry().check(cluster, "mid") == []
        assert (
            json.dumps(books_state(coord), sort_keys=True)
            == json.dumps(expected_books(coord), sort_keys=True)
        )
        return coord.last_recovery

    def test_multicast_channel_is_adopted(self):
        sim, cluster, _ = build_cluster(
            n_msus=1, n_titles=1, length=10.0, multicast=MCAST, run_to=0.3
        )
        clients = [open_client(sim, cluster, name=f"c{i}") for i in range(2)]
        views = start_viewers_together(
            sim, [(client, "title0", "tv") for client in clients]
        )
        sim.run(until=sim.now + 1.0)
        outcome = self.lose_tail_and_restart(sim, cluster, "mcast-open")
        assert outcome.channels_adopted == 1
        assert outcome.discrepancies == ["msu0: unknown channel 1 ('title0'); adopted"]
        manager = cluster.coordinator.channel_manager
        (record,) = manager.channels.values()
        assert sorted(record.subscribers) == sorted(v.group_id for v in views)
        sim.run(until=30.0)
        assert manager.channels == {}
        assert all(view.done_event.triggered for view in views)
        assert builtin_registry().check(cluster, "drain") == []

    def test_live_channel_is_adopted(self):
        spec = ChannelSpec("news", "mpeg1", "feed0", start_at=0.5,
                           duration_seconds=6.0)
        sim, cluster, _ = build_live([spec], ring_seconds=3.0)
        client = open_client(sim, cluster)

        def tune():
            yield from client.register_port("tv", "mpeg1")
            yield sim.timeout(1.5)
            view = yield from client.play("news", "tv")
            yield from client.wait_ready(view)
            return view

        view = sim.run_until_event(sim.process(tune()), limit=10.0)
        sim.run(until=3.0)
        outcome = self.lose_tail_and_restart(sim, cluster, "live-open")
        assert outcome.channels_adopted == 1
        assert outcome.discrepancies == [
            "msu0: unknown live channel 1048577 ('news'); adopted"
        ]
        manager = cluster.coordinator.live_manager
        (record,) = manager.channels.values()
        assert list(record.subscribers) == [view.group_id]
        assert not record.ingest_done
        sim.run(until=30.0)
        assert manager.channels == {}
        assert view.done_event.triggered
        msu = cluster.msus[0]
        assert not any(fs.exists("news") for fs in msu.filesystems.values())
        assert builtin_registry().check(cluster, "drain") == []
