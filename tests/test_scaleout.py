"""Coordinator scale-out: escrowed shards, warm standby, chaos plans.

The unit half exercises the escrow protocol in isolation — grants from
the bank, steals between shards, overdraft-under-exhaustion and its
self-heal, snapshot/replay round trips — plus the generalized heartbeat
intake the leader watch rides on.  The integration half brings up real
clusters: a warm standby that takes over within one ``report_grace``
with zero dropped streams, sharded admission that conserves every disk
book, and pinned chaos plans mixing leader kills with shard partitions.
"""

import pytest

from repro.core.admission import Allocation
from repro.core.coordinator import Coordinator
from repro.failover.heartbeat import (
    EndpointHealth,
    HeartbeatMonitor,
    MsuHealth,
)
from repro.net import messages as m
from repro.recovery import restore_state, snapshot_state
from repro.scaleout import ShardSet, shard_for
from repro.sim import Simulator
from repro.verify import ChaosConfig, ChaosSchedule, run_schedule
from repro.verify.faults import FAULT_KINDS, SCALEOUT_FAULT_KINDS, FaultOp
from repro.verify.invariants import (
    check_scaleout_escrow,
    check_takeover_latency,
)

from tests.helpers import (
    FAST,
    build_admission_db,
    build_cluster,
    open_client,
    start_stream,
)

EPS = 1e-6


def _alloc(bandwidth, content="m", msu="msu0", disk="msu0.sd0"):
    return Allocation(
        msu_name=msu, disk_id=disk, bandwidth=bandwidth,
        content_name=content,
    )


def _shards(n, capacity=100.0, refill_fraction=0.25, **kwargs):
    """A ShardSet over the one-disk fixture with a chosen capacity."""
    db, _admission, _entry = build_admission_db()
    db.msus["msu0"].disks["msu0.sd0"].bandwidth_capacity = capacity
    return ShardSet(db, n, refill_fraction=refill_fraction, **kwargs)


def _same_shard_titles(shards, count=2):
    """``count`` content names that all route to the same shard."""
    by_shard = {}
    for i in range(64):
        name = f"t{i}"
        by_shard.setdefault(shards.shard_for(name), []).append(name)
        if any(len(names) >= count for names in by_shard.values()):
            break
    return next(n for n in by_shard.values() if len(n) >= count)


class TestShardRouting:
    def test_single_shard_is_always_zero(self):
        assert shard_for("anything", 1) == 0
        assert shard_for("", 1) == 0

    def test_routing_is_stable_and_in_range(self):
        for name in ("title0", "title1", ""):
            s = shard_for(name, 4)
            assert 0 <= s < 4
            assert shard_for(name, 4) == s


class TestEscrowProtocol:
    def test_first_charge_grants_from_bank(self):
        shards = _shards(4)
        alloc = _alloc(10.0)
        shards.on_charge(alloc)
        book = shards.books[("msu0", "msu0.sd0")]
        s = shards.shard_for("m")
        assert book.spent[s] == pytest.approx(10.0)
        assert book.granted[s] >= 10.0 - EPS
        assert shards.grants == 1
        # Conservation: the bank is exactly what was never granted.
        assert sum(book.granted) + book.bank_free() == pytest.approx(100.0)
        assert book.bank_free() >= -EPS
        assert shards.audit() == []

    def test_release_credits_the_owner_shard(self):
        shards = _shards(4)
        alloc = _alloc(10.0)
        shards.on_charge(alloc)
        shards.on_release(alloc)
        book = shards.books[("msu0", "msu0.sd0")]
        assert sum(book.spent) == pytest.approx(0.0)
        assert shards.audit() == []

    def test_edge_and_cache_covered_charges_are_ignored(self):
        shards = _shards(2)
        shards.on_charge(Allocation(
            msu_name="", disk_id="", bandwidth=5.0, edge_name="edge0",
        ))
        shards.on_charge(Allocation(
            msu_name="msu0", disk_id="msu0.sd0", bandwidth=5.0,
            content_name="m", cache_covered=True,
        ))
        assert shards.books == {}

    def test_steal_when_bank_exhausted(self):
        # refill_fraction 2.0 with n=2 makes the quantum the whole
        # capacity: the first shard's grant drains the bank, so the
        # second shard's charge can only be covered by stealing.
        shards = _shards(2, refill_fraction=2.0)
        names = {shards.shard_for(f"t{i}"): f"t{i}" for i in range(16)}
        assert set(names) == {0, 1}
        shards.on_charge(_alloc(10.0, content=names[0]))
        assert shards.steals == 0
        shards.on_charge(_alloc(10.0, content=names[1]))
        assert shards.steals >= 1
        book = shards.books[("msu0", "msu0.sd0")]
        assert sum(book.granted) + book.bank_free() == pytest.approx(100.0)
        assert book.spent == pytest.approx([10.0, 10.0])
        assert shards.audit() == []

    def test_overdraft_under_genuine_exhaustion_then_self_heal(self):
        shards = _shards(1)
        first, second = _alloc(80.0), _alloc(50.0)
        shards.on_charge(first)
        shards.on_charge(second)  # 130 spent against capacity 100
        book = shards.books[("msu0", "msu0.sd0")]
        assert shards.overdrafts == 1
        assert book.spent[0] == pytest.approx(130.0)
        assert book.spent[0] > book.granted[0]
        # Legal overdraft: nothing anywhere was free, audit stays clean.
        assert shards.audit() == []
        # A release frees escrow; _repair must top the slice back up.
        shards.on_release(first)
        assert book.spent[0] == pytest.approx(50.0)
        assert book.granted[0] >= book.spent[0] - EPS
        assert shards.audit() == []

    def test_partitioned_shard_neither_admits_nor_yields(self):
        shards = _shards(2, refill_fraction=2.0)
        names = {shards.shard_for(f"t{i}"): f"t{i}" for i in range(16)}
        shards.on_charge(_alloc(10.0, content=names[0]))  # bank drained
        shards.partition(0)
        assert not shards.can_admit(0, "msu0", "msu0.sd0", 1.0)
        # Shard 1 cannot steal from the partitioned holder: overdraft.
        shards.on_charge(_alloc(10.0, content=names[1]))
        assert shards.steals == 0
        assert shards.overdrafts == 1
        shards.heal(0)
        assert shards.can_admit(0, "msu0", "msu0.sd0", 1.0)

    def test_can_admit_counts_bank_and_stealable_escrow(self):
        shards = _shards(2)
        assert shards.can_admit(0, "msu0", "msu0.sd0", 100.0)
        assert not shards.can_admit(0, "msu0", "msu0.sd0", 100.1)
        assert not shards.can_admit(0, "msu0", "nope", 1.0)

    def test_release_msu_zeroes_spends(self):
        shards = _shards(2)
        shards.on_charge(_alloc(10.0))
        shards.on_release_msu("msu0")
        book = shards.books[("msu0", "msu0.sd0")]
        assert sum(book.spent) == 0.0
        assert sum(book.granted) > 0.0  # grants survive (re-derived spends)

    def test_grants_and_steals_are_journaled(self):
        records = []
        shards = _shards(2, refill_fraction=2.0)
        shards.journal = lambda kind, payload: records.append((kind, payload))
        names = {shards.shard_for(f"t{i}"): f"t{i}" for i in range(16)}
        shards.on_charge(_alloc(10.0, content=names[0]))
        shards.on_charge(_alloc(10.0, content=names[1]))
        kinds = [kind for kind, _ in records]
        assert "shard-grant" in kinds and "shard-steal" in kinds

    def test_replay_reproduces_the_split(self):
        records = []
        shards = _shards(4)
        shards.journal = lambda kind, payload: records.append((kind, payload))
        allocs = [_alloc(10.0, content=f"t{i}") for i in range(6)]
        for alloc in allocs:
            shards.on_charge(alloc)
        clone = _shards(4)
        clone.replaying = True
        for kind, payload in records:
            if kind == "shard-grant":
                clone.apply_grant(payload)
            else:
                clone.apply_steal(payload)
        for alloc in allocs:
            clone.on_charge(alloc)
        assert clone.state() == shards.state()

    def test_snapshot_round_trip_and_shard_count_mismatch(self):
        shards = _shards(4)
        shards.on_charge(_alloc(10.0))
        clone = _shards(4)
        clone.restore(shards.state())
        assert clone.state() == shards.state()
        other = _shards(2)
        other.on_charge(_alloc(5.0))
        other.restore(shards.state())  # n mismatch: start from empty
        assert other.books == {}

    def test_admission_delay_serializes_per_shard(self):
        shards = _shards(2, service_time=0.05)
        assert shards.admission_delay(0, 0.0) == pytest.approx(0.05)
        assert shards.admission_delay(0, 0.0) == pytest.approx(0.10)
        assert shards.admission_delay(1, 0.0) == pytest.approx(0.05)
        free = _shards(2)  # service_time 0: the decision is free
        assert free.admission_delay(0, 0.0) == 0.0


class TestHeartbeatGeneralization:
    """Satellite: the MSU watchdog now watches arbitrary endpoints."""

    def _monitor(self, deaths):
        sim = Simulator()
        return sim, HeartbeatMonitor(sim, FAST, on_dead=deaths.append)

    def test_beat_for_self_arms_and_detects_silence(self):
        deaths = []
        sim, monitor = self._monitor(deaths)
        monitor.beat_for("leader")
        assert monitor.state("leader") == "alive"
        sim.run(until=2.0)  # silence: alive -> suspect -> dead
        assert deaths == ["leader"]

    def test_beat_revives_a_dead_endpoint(self):
        deaths = []
        sim, monitor = self._monitor(deaths)
        monitor.beat_for("leader")
        sim.run(until=2.0)
        assert deaths == ["leader"]
        monitor.beat_for("leader")
        assert monitor.state("leader") == "alive"

    def test_forget_stops_the_watch(self):
        deaths = []
        sim, monitor = self._monitor(deaths)
        monitor.beat_for("leader")
        monitor.forget("leader")
        sim.run(until=2.0)
        assert deaths == []

    def test_msu_heartbeat_message_still_delegates(self):
        deaths = []
        sim, monitor = self._monitor(deaths)
        monitor.beat(m.Heartbeat("msu0", 1, ()))
        assert monitor.state("msu0") == "alive"
        assert MsuHealth is EndpointHealth  # compatibility alias


def _active_streams(coord):
    return sum(len(group.allocations) for group in coord.groups.values())


@pytest.mark.integration
class TestWarmStandbyTakeover:
    def test_takeover_within_grace_keeps_streams(self):
        sim, cluster, _ = build_cluster(
            n_msus=2, n_titles=2, standby=True, run_to=0.05
        )
        client = open_client(sim, cluster)
        start_stream(sim, client, "title0", "p0")
        start_stream(sim, client, "title1", "p1")
        sim.run(until=2.0)
        old = cluster.coordinator
        before = _active_streams(old)
        assert before == 2
        standby = cluster.standbys[0]
        assert standby.records_tailed > 0  # it really was tailing

        cluster.crash_coordinator()
        sim.run(until=4.0)
        assert cluster.takeovers, "standby never took over"
        outcome = cluster.takeovers[-1]
        grace = cluster.config.recovery.report_grace
        assert outcome.takeover_latency <= grace + EPS
        assert outcome.detected_at >= outcome.leader_lost_at
        assert outcome.detection_latency <= outcome.takeover_latency
        # The shadow is now the Coordinator; nobody was dropped.
        assert cluster.coordinator is standby.shadow
        assert not cluster.coordinator_down
        assert cluster.coordinator is not old
        assert cluster.coordinator.takeover_drops == 0
        assert _active_streams(cluster.coordinator) == before
        assert cluster.standbys == []
        assert check_takeover_latency(cluster) == []

    def test_new_admissions_work_after_takeover(self):
        sim, cluster, _ = build_cluster(
            n_msus=2, n_titles=2, standby=True, run_to=0.05
        )
        client = open_client(sim, cluster)
        start_stream(sim, client, "title0", "p0")
        sim.run(until=2.0)
        cluster.crash_coordinator()
        sim.run(until=4.0)
        assert cluster.takeovers
        # The old client's connection died with the old leader (clients
        # fail fast, same as a cold restart); a fresh connection reaches
        # the promoted Coordinator, which admits and journals normally.
        wal_before = cluster.journal.next_seq
        fresh = open_client(sim, cluster, name="c1")
        start_stream(sim, fresh, "title1", "p1")
        assert _active_streams(cluster.coordinator) == 2
        assert cluster.journal.next_seq > wal_before

    def test_standby_stands_down_when_leader_was_cold_restarted(self):
        sim, cluster, _ = build_cluster(
            n_msus=2, n_titles=1, standby=True, run_to=0.05
        )
        client = open_client(sim, cluster)
        start_stream(sim, client, "title0", "p0")
        sim.run(until=2.0)
        standby = cluster.standbys[0]
        cluster.crash_coordinator()
        # An operator cold-restarts the leader mid-detection: the beacon
        # went silent long enough for the suspect machine to engage, but
        # the dead verdict lands after the restart — and must be ignored.
        sim.run(until=2.15)
        cluster.restart_coordinator()
        sim.run(until=4.0)
        assert not standby.promoted  # stale verdict was discarded
        assert cluster.takeovers == []
        assert not cluster.coordinator_down


@pytest.mark.integration
class TestShardedCluster:
    def test_sharded_admission_conserves_books(self):
        sim, cluster, _ = build_cluster(
            n_msus=2, n_titles=4, n_coordinators=4, run_to=0.05
        )
        client = open_client(sim, cluster)
        for t in range(4):
            start_stream(sim, client, f"title{t}", f"p{t}")
        sim.run(until=2.0)
        coord = cluster.coordinator
        assert coord.shards is not None and coord.shards.n == 4
        assert _active_streams(coord) == 4
        assert check_scaleout_escrow(cluster) == []
        assert coord.shards.grants > 0

    def test_shard_books_survive_cold_restart(self):
        sim, cluster, _ = build_cluster(
            n_msus=2, n_titles=4, n_coordinators=4, run_to=0.05
        )
        client = open_client(sim, cluster)
        for t in range(4):
            start_stream(sim, client, f"title{t}", f"p{t}")
        sim.run(until=2.0)
        before = cluster.coordinator.shards.state()
        cluster.crash_coordinator()
        sim.run(until=3.0)
        cluster.restart_coordinator()
        sim.run(until=6.0)
        coord = cluster.coordinator
        # Replay rebuilt the same split: grants from the WAL, spends
        # re-derived charge by charge through the observer.
        assert coord.shards.state() == before
        assert check_scaleout_escrow(cluster) == []

    def test_snapshot_carries_the_escrow_section(self):
        sim, cluster, _ = build_cluster(
            n_msus=2, n_titles=2, n_coordinators=2, run_to=0.05
        )
        client = open_client(sim, cluster)
        start_stream(sim, client, "title0", "p0")
        sim.run(until=1.0)
        coord = cluster.coordinator
        state = snapshot_state(coord)
        assert state["shards"] == coord.shards.state()
        clone = Coordinator(Simulator())
        clone.enable_shards(ShardSet(clone.db, 2))
        restore_state(clone, state)
        assert clone.shards.state() == coord.shards.state()


class TestTakeoverInvariant:
    """The drain-time checker itself, against crafted outcomes."""

    def _cluster_with(self, outcome):
        from types import SimpleNamespace

        from repro.recovery import RecoveryConfig

        return SimpleNamespace(
            takeovers=[outcome],
            config=SimpleNamespace(recovery=RecoveryConfig(report_grace=1.0)),
        )

    def test_flags_takeover_slower_than_grace(self):
        from repro.scaleout.standby import TakeoverOutcome

        late = TakeoverOutcome(
            leader_lost_at=1.0, detected_at=2.0, completed_at=2.5,
            records_tailed=3, resyncs=0, streams_at_takeover=1,
        )
        assert check_takeover_latency(self._cluster_with(late))
        fine = TakeoverOutcome(
            leader_lost_at=1.0, detected_at=1.3, completed_at=1.3,
            records_tailed=3, resyncs=0, streams_at_takeover=1,
        )
        assert check_takeover_latency(self._cluster_with(fine)) == []


def plan(seed, ops, horizon=20.0):
    return ChaosSchedule(
        seed=seed, horizon=horizon,
        ops=tuple(FaultOp(at, kind, dict(args)) for at, kind, args in ops),
    )


#: The scaled-out cluster every plan below runs against.
SCALEOUT = ChaosConfig(n_shards=4, standby=True)

#: Pinned scale-out fault plans (by construction): a leader kill with
#: admissions in flight, a shard partition that must heal, and a leader
#: kill landing while a shard is still partitioned.  All must stay green
#: under the full invariant registry, escrow conservation included.
SCALEOUT_PLANS = {
    "leader-kill-mid-admission": plan(41, [
        (1.0, "client_join", {"title": 0, "patience": 4.0}),
        (1.5, "client_join", {"title": 1, "patience": 4.0}),
        (3.0, "coordinator_failover", {}),
        (5.0, "client_join", {"title": 0, "patience": 4.0}),
    ]),
    "shard-partition-heals": plan(42, [
        (1.0, "client_join", {"title": 0, "patience": 4.0}),
        (2.0, "shard_partition", {"shard": 1, "duration": 1.0}),
        (2.3, "client_join", {"title": 1, "patience": 4.0}),
        (4.5, "client_join", {"title": 0, "patience": 4.0}),
    ]),
    "leader-kill-during-partition": plan(43, [
        (1.0, "client_join", {"title": 0, "patience": 4.0}),
        (2.0, "shard_partition", {"shard": 2, "duration": 3.0}),
        (2.5, "coordinator_failover", {}),
        (5.0, "client_join", {"title": 1, "patience": 4.0}),
    ]),
}


@pytest.mark.integration
@pytest.mark.parametrize("name", sorted(SCALEOUT_PLANS))
def test_pinned_scaleout_plan(name):
    report = run_schedule(SCALEOUT_PLANS[name], SCALEOUT)
    assert report.ok, f"{name}: {[str(v) for v in report.violations]}"


@pytest.mark.integration
def test_generated_scaleout_sweep_stays_green():
    # The opt-in kind table keeps the frozen one intact (pinned plans
    # from older seeds must keep replaying bit-identically).
    assert "coordinator_failover" not in FAULT_KINDS
    assert set(SCALEOUT_FAULT_KINDS) >= set(FAULT_KINDS) | {
        "coordinator_failover", "shard_partition",
    }
    schedule = ChaosSchedule.generate(
        3, 25, horizon=20.0, kinds=SCALEOUT_FAULT_KINDS
    )
    report = run_schedule(schedule, SCALEOUT)
    assert report.ok, [str(v) for v in report.violations]


class TestFollowJournal:
    """Satellite: ``recovery --follow`` tails a journal like the standby."""

    def _write(self, path, store):
        path.write_text(store.to_json())

    def test_follow_emits_new_records_and_resyncs(self, tmp_path):
        from repro.recovery import JournalStore
        from repro.tools.cli import follow_journal

        store = JournalStore(snapshot_every=0)
        store.append("customer-add", {"name": "a", "admin": False})
        path = tmp_path / "journal.json"
        self._write(path, store)

        lines = []
        polls = []

        def between_polls(_delay):
            # Someone appends while we tail; then a snapshot truncates.
            polls.append(len(lines))
            if len(polls) == 1:
                store.append("note-request", {"name": "m"})
                self._write(path, store)
            elif len(polls) == 2:
                # An unseen record folded into a snapshot: the log was
                # truncated past our cursor, so follow must resync.
                store.append("note-request", {"name": "m2"})
                store.install_snapshot({"fake": "state"})
                self._write(path, store)

        last = follow_journal(
            path, since_seq=0, poll=0.0, max_polls=4,
            sleep=between_polls, emit=lines.append,
        )
        text = "\n".join(lines)
        assert "customer-add" in text
        assert "note-request" in text
        assert "resync" in text
        assert last == store.snapshot_seq

    def test_cli_recovery_follow(self, tmp_path, capsys):
        from repro.recovery import JournalStore
        from repro.tools import cli

        store = JournalStore(snapshot_every=0)
        store.append("customer-add", {"name": "a", "admin": False})
        store.append("note-request", {"name": "m"})
        path = tmp_path / "journal.json"
        self._write(path, store)
        rc = cli.main([
            "recovery", str(path), "--follow", "--since", "0",
            "--max-polls", "1", "--poll", "0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "following from seq 0" in out
        assert "note-request" in out


@pytest.mark.integration
def test_cli_verify_scaleout_flags(capsys):
    from repro.tools import cli

    rc = cli.main([
        "verify", "--seed", "3", "--ops", "12", "--horizon", "12",
        "--shards", "4", "--standby",
    ])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "OK" in out
