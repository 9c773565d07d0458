"""The chaos harness itself: schedules, invariants, shrinking, repros.

The pinned-seed regression tests at the bottom replay the shrunk fault
plans that first exposed real cross-subsystem bugs (see DESIGN.md §9);
each must stay green forever.
"""

import dataclasses

import pytest

from repro.tools import cli
from repro.verify import (
    ChaosConfig,
    ChaosSchedule,
    InvariantRegistry,
    Violation,
    builtin_registry,
    load_repro,
    run_schedule,
    shrink,
    write_repro,
)
from repro.verify.faults import FAULT_KINDS, FaultOp
from repro.verify.invariants import check_admission_conservation

from tests.helpers import build_cluster, open_client, start_viewer


def plan(seed, ops, horizon=20.0):
    """A literal fault plan: [(at, kind, args), ...] -> ChaosSchedule."""
    return ChaosSchedule(
        seed=seed, horizon=horizon,
        ops=tuple(FaultOp(at, kind, dict(args)) for at, kind, args in ops),
    )


class TestChaosSchedule:
    def test_generation_is_deterministic(self):
        a = ChaosSchedule.generate(42, 30)
        b = ChaosSchedule.generate(42, 30)
        assert a == b
        assert len(a) == 30
        assert all(0.5 <= op.at < a.horizon for op in a.ops)
        assert all(op.kind in FAULT_KINDS for op in a.ops)
        assert list(a.ops) == sorted(a.ops, key=lambda o: (o.at, o.kind))

    def test_distinct_seeds_differ(self):
        assert ChaosSchedule.generate(1, 30) != ChaosSchedule.generate(2, 30)

    def test_json_round_trip(self):
        schedule = ChaosSchedule.generate(5, 20)
        assert ChaosSchedule.from_json(schedule.to_json()) == schedule

    def test_without_and_with_op(self):
        schedule = ChaosSchedule.generate(5, 10)
        smaller = schedule.without([0, 3, 9])
        assert len(smaller) == 7
        assert smaller.seed == schedule.seed
        extra = FaultOp(1.0, "msu_crash", {"msu": 0})
        grown = smaller.with_op(extra)
        assert len(grown) == 8 and extra in grown.ops

    def test_repro_file_round_trip(self, tmp_path):
        schedule = ChaosSchedule.generate(9, 6)
        path = write_repro(schedule, tmp_path / "repro.json")
        assert load_repro(path) == schedule


def _fake_cluster(now=2.0):
    from types import SimpleNamespace

    return SimpleNamespace(sim=SimpleNamespace(now=now))


class TestInvariantRegistry:
    def test_register_and_filter_by_phase(self):
        registry = InvariantRegistry()
        calls = []

        def checker(cluster):
            calls.append(cluster.sim.now)
            return ["always unhappy"]

        registry.register("demo", checker, when="drain")
        assert "demo" in registry.names()
        assert registry.check(_fake_cluster(1.0), phase="mid") == []
        violations = registry.check(_fake_cluster(2.0), phase="drain")
        assert [(v.invariant, v.detail, v.at, v.phase) for v in violations] == [
            ("demo", "always unhappy", 2.0, "drain")
        ]
        assert calls == [2.0]

    def test_builtin_registry_covers_the_subsystems(self):
        names = set(builtin_registry().names())
        for expected in (
            "admission-books", "multicast-ledger", "cache-balance",
            "failover-groups", "storage-bounds", "stream-deadlines",
        ):
            assert expected in names

    def test_checker_exception_becomes_violation(self):
        registry = InvariantRegistry()

        def broken(cluster):
            raise RuntimeError("checker blew up")

        registry.register("broken", broken, when="both")
        violations = registry.check(_fake_cluster(), phase="mid")
        assert len(violations) == 1
        assert "checker blew up" in violations[0].detail


class TestConservationWhileStreaming:
    """Exact conservation sums live allocations, not just empty books."""

    def streaming(self):
        sim, cluster, _ = build_cluster(n_msus=2, n_titles=2, run_to=0.3)
        client = open_client(sim, cluster)
        views = [start_viewer(sim, client, f"title{t}", f"v{t}") for t in range(2)]
        sim.run(until=sim.now + 1.0)  # quiescent: no request in flight
        return cluster, views

    def test_holds_with_streams_playing(self):
        cluster, views = self.streaming()
        coord = cluster.coordinator
        assert all(coord.groups[view.group_id].allocations for view in views)
        assert sum(state.active_streams for state in coord.db.msus.values()) == 2
        assert check_admission_conservation(cluster) == []

    def test_a_bumped_charge_breaks_it(self):
        cluster, views = self.streaming()
        allocations = cluster.coordinator.groups[views[0].group_id].allocations
        (stream_id, alloc), = allocations.items()
        allocations[stream_id] = dataclasses.replace(
            alloc, bandwidth=alloc.bandwidth + 1000.0
        )
        problems = check_admission_conservation(cluster)
        assert [p.split(":")[0] for p in problems] == [
            alloc.msu_name, f"{alloc.msu_name}/{alloc.disk_id}",
        ]
        assert "delivery_used" in problems[0]
        assert "bandwidth_used" in problems[1]


@pytest.mark.integration
class TestHarness:
    def test_quiet_schedule_is_green(self, chaos_cluster):
        report = chaos_cluster(3, ops=10)
        assert report.ok, report.summary()
        assert report.checks_run > 0
        assert report.stats.get("joins", 0) > 0

    def test_double_charge_is_caught_and_shrunk(self):
        base = ChaosSchedule.generate(6, 4)
        schedule = base.with_op(FaultOp(9.1234, "bug_double_charge", {}))
        report = run_schedule(schedule)
        assert not report.ok
        assert any("multicast-ledger" in str(v) for v in report.violations)
        small, small_report = shrink(schedule)
        assert not small_report.ok
        assert len(small) <= 3  # the acceptance bar; in practice 1
        assert any(op.kind == "bug_double_charge" for op in small.ops)


@pytest.mark.integration
class TestCliVerify:
    def test_parse_seeds(self):
        assert cli._parse_seeds("7") == [7]
        assert cli._parse_seeds("1..5") == [1, 2, 3, 4, 5]

    def test_verify_seed_green(self, capsys):
        assert cli.main(["verify", "--seed", "3", "--ops", "10"]) == 0
        out = capsys.readouterr().out
        assert "seed 3" in out and "OK" in out

    def test_verify_replay_of_failing_repro(self, tmp_path, capsys):
        schedule = ChaosSchedule(
            seed=1, horizon=20.0,
            ops=(FaultOp(9.0, "bug_double_charge", {}),),
        )
        source = write_repro(schedule, tmp_path / "bad.json")
        out_path = tmp_path / "shrunk.json"
        rc = cli.main([
            "verify", "--replay", str(source), "--repro", str(out_path),
        ])
        assert rc == 1
        assert out_path.exists()
        replay = load_repro(out_path)
        assert all(op.kind == "bug_double_charge" for op in replay.ops)
        assert "VIOLATIONS" in capsys.readouterr().out


#: Shrunk fault plans that exposed real bugs; each replay must stay green.
#:
#: seed 7  - a failover ResumePlay raced with msu_hang: the frozen MSU's
#:           control loop installed the group anyway, so after rejoin the
#:           same group lived on two MSUs (fix: _control_loop drops
#:           messages once the MSU is down or the channel is stale).
#: seed 23 - a VCR "play" landed on a freshly-downgraded, still-LOADING
#:           subscriber stream; resume() promoted it to PLAYING with no
#:           anchor and the deadline lookup killed the whole IOP (fix:
#:           resume() only acts on PAUSED streams).
#: seed 24 - an MSU crash interrupted a disk process parked at the drive
#:           arm's grant wait; the granted request's owner was gone, so
#:           the arm stayed marked busy and every later transfer on the drive
#:           queued forever (fix: transfer() retracts or releases the
#:           grant when interrupted there).
PINNED_PLANS = {
    "hung-msu-installs-group": plan(7, [
        (2.1748, "client_join", {"title": 1, "patience": 4.22}),
        (4.8111, "msu_hang", {"msu": 0}),
        (4.8445, "msu_crash", {"msu": 1}),
    ]),
    "resume-without-anchor-kills-iop": plan(23, [
        (5.5392, "client_join", {"title": 0, "patience": 4.12}),
        (5.8735, "msu_hang", {"msu": 1}),
        (8.7631, "msu_crash", {"msu": 0}),
        (10.2157, "client_join", {"title": 1, "patience": 3.08}),
        (10.4267, "msu_powercycle", {"msu": 1}),
        (10.8149, "client_join", {"title": 0, "patience": 2.76}),
        (12.2989, "client_join", {"title": 1, "patience": 3.22}),
        (12.6093, "vcr_storm",
         {"pick": 47551, "commands": ["seek", "seek", "play"],
          "position": 5.81}),
    ]),
    "interrupted-grant-wedges-drive": plan(24, [
        (4.9152, "client_join", {"title": 1, "patience": 3.43}),
        (5.1301, "client_join", {"title": 0, "patience": 2.56}),
        (5.2308, "msu_powercycle", {"msu": 1}),
        (5.6468, "client_join", {"title": 1, "patience": 3.66}),
        (6.0017, "vcr_storm",
         {"pick": 30434, "commands": ["pause", "seek", "play"],
          "position": 1.5}),
        (6.2299, "client_join", {"title": 0, "patience": 4.4}),
        (6.6111, "msu_crash", {"msu": 0}),
        (7.8425, "msu_powercycle", {"msu": 1}),
    ]),
    # Coordinator-recovery scenarios (pinned by construction, not shrunk):
    # a kill/restart mid-schedule with admitted streams riding through the
    # outage, an MSU dying *during* the outage so reconciliation must
    # declare it failed from a missing StateReport, and a crash the drain
    # itself has to recover from.  All must end with zero violations.
    "coordinator-crash-restart-mid-stream": plan(31, [
        (1.0, "client_join", {"title": 0, "patience": 4.0}),
        (1.2, "client_join", {"title": 1, "patience": 4.0}),
        (3.5, "coordinator_crash", {}),
        (4.0, "client_join", {"title": 0, "patience": 3.0}),
        (6.0, "coordinator_restart", {}),
        (7.0, "client_join", {"title": 1, "patience": 4.0}),
    ]),
    "coordinator-outage-msu-churn": plan(32, [
        (1.0, "client_join", {"title": 0, "patience": 4.0}),
        (2.0, "client_join", {"title": 1, "patience": 4.0}),
        (3.0, "coordinator_crash", {}),
        (3.8, "msu_crash", {"msu": 1}),
        (5.5, "coordinator_restart", {}),
        (6.5, "msu_rejoin", {"msu": 1}),
        (8.0, "client_join", {"title": 0, "patience": 4.0}),
    ]),
    "coordinator-down-until-drain": plan(33, [
        (1.0, "client_join", {"title": 0, "patience": 4.0}),
        (2.0, "client_join", {"title": 1, "patience": 4.0}),
        (2.5, "vcr_storm",
         {"pick": 11, "commands": ["pause", "play"], "position": 1.0}),
        (10.0, "coordinator_crash", {}),
        (12.0, "client_join", {"title": 0, "patience": 3.0}),
    ]),
    # Shrunk from generated seed 1 (50 ops): an edge-covered patch serve
    # was live when the edge and its backing MSU both died *during* a
    # Coordinator outage, so no edge_down ever refunded it; the restarted
    # Coordinator replayed the serve record from the WAL while failover
    # re-admitted the orphaned subscriber with a fresh MSU allocation —
    # the same stream charged twice (fix: reconcile_edges refunds serves
    # of edges that never re-attach, the silent-MSU rule applied to the
    # edge tier).
    "stale-edge-serve-survives-restart": plan(1, [
        (8.2476, "client_join", {"title": 0, "patience": 3.34}),
        (9.4531, "client_join", {"title": 0, "patience": 3.15}),
        (10.373, "coordinator_crash", {}),
        (15.6796, "edge_crash", {"edge": 0}),
        (16.1356, "msu_crash", {"msu": 0}),
        (16.7974, "coordinator_restart", {}),
    ]),
    # Shrunk from generated seed 12 (50 ops): a viewer that gave up left
    # while its disk read was in flight; the completed read's cache fill
    # registered it again, so the interval cache held a position for a
    # stream no disk process served (fix: the disk process fills the
    # cache only for streams it still serves).
    "in-flight-read-reregisters-viewer": plan(12, [
        (12.4171, "client_join", {"title": 1, "patience": 3.74}),
    ]),
    # Shrunk from generated seed 4 (50 ops): a hang cleared the disk
    # processes' stream lists without telling the page cache, so every
    # halted stream kept its interval-cache position and claims (fix:
    # the halt releases each stream through DiskProcess.remove).
    "hang-keeps-interval-claims": plan(4, [
        (5.3759, "msu_hang", {"msu": 0}),
    ]),
    # Shrunk from generated seeds 4, 12 and 11 (50 ops): a pure-live
    # channel's ring outlived it.  A crashed or hung MSU forgot the
    # channel the Coordinator had written off without a DeleteFile, and
    # a Coordinator restarted after the broadcast signed off forgot the
    # record but kept the title (fix: the MSU's halt deletes its rings;
    # reconciliation closes an off-air channel like a sign-off does).
    "msu-crash-keeps-live-ring": plan(4, [
        (6.753, "msu_crash", {"msu": 1}),
    ]),
    "msu-hang-keeps-live-ring": plan(12, [
        (4.4859, "msu_hang", {"msu": 0}),
    ]),
    "outage-sign-off-keeps-live-ring": plan(11, [
        (1.9676, "live_ingest_stall", {"channel": 0, "duration": 1.38}),
        (7.9832, "coordinator_crash", {}),
    ]),
}


@pytest.mark.integration
@pytest.mark.parametrize("name", sorted(PINNED_PLANS))
def test_pinned_regression(name):
    report = run_schedule(PINNED_PLANS[name])
    assert report.ok, f"{name}: {[str(v) for v in report.violations]}"
