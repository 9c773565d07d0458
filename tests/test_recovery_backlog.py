"""MSU messages that race a restarted Coordinator's reconciliation window.

While a restarted Coordinator waits for StateReports, a stream
termination or a patch drain would fight the reports it has already
collected, so the Coordinator holds such messages back and applies them
once reconciliation completes.  One MSU that hangs just after the
restart reattaches it keeps the window open for the whole
``report_grace`` (one already down at the restart would be declared
missing at once); a message the other MSU sends inside it must be held,
then applied exactly once.

Timeline (both tests): the Coordinator crashes at 1.0 s, restarts at
1.5 s with msu1 hanging as it says hello, and the grace expires at 2.5 s.
"""

import json

import pytest

from repro.net import messages as m
from repro.recovery import books_state, expected_books
from repro.verify.invariants import builtin_registry

from tests.helpers import MCAST, build_cluster, open_client, start_viewer

CRASH_AT = 1.0
RESTART_AT = 1.5
BEFORE_GRACE = 2.45
AFTER_GRACE = 2.6


def restart_with_msu1_silent(sim, cluster):
    sim.run(until=CRASH_AT)
    cluster.crash_coordinator()
    sim.run(until=RESTART_AT)
    cluster.restart_coordinator()
    cluster.hang_msu(1)  # its hello is on the wire; no report follows


@pytest.mark.integration
class TestHeldDuringReconciliation:
    def test_stream_terminated_is_applied_once_after_the_window(self):
        # A 2 s title playing on msu0 ends at ~2.0 s, inside the window.
        sim, cluster, _ = build_cluster(n_msus=2, n_titles=1, length=2.0)
        client = open_client(sim, cluster)
        view = start_viewer(sim, client, "title0", "v0")
        restart_with_msu1_silent(sim, cluster)
        coord = cluster.coordinator

        sim.run(until=BEFORE_GRACE)
        assert coord.recovering
        assert [type(msg) for msg in coord._recovery_backlog] == [
            m.StreamTerminated
        ]
        assert view.group_id in coord.groups
        assert coord.terminations_handled == 0

        sim.run(until=AFTER_GRACE)
        assert not coord.recovering
        assert coord._recovery_backlog == []
        assert coord.last_recovery.streams_kept == 1
        assert view.group_id not in coord.groups
        assert coord.terminations_handled == 1
        assert coord.db.msus["msu0"].delivery_used == 0.0
        assert (
            json.dumps(books_state(coord), sort_keys=True)
            == json.dumps(expected_books(coord), sort_keys=True)
        )
        sim.run(until=3.0)
        assert builtin_registry().check(cluster, "drain") == []

    def test_patch_drained_is_applied_once_after_the_window(self):
        # A patching joiner at 0.9 s drains its ~0.7 s patch at ~1.8 s.
        sim, cluster, _ = build_cluster(
            n_msus=2, n_titles=1, length=4.0, multicast=MCAST
        )
        client = open_client(sim, cluster)
        start_viewer(sim, client, "title0", "first")
        sim.run(until=0.9)
        joiner = start_viewer(sim, client, "title0", "joiner")
        restart_with_msu1_silent(sim, cluster)
        coord = cluster.coordinator
        manager = coord.channel_manager

        sim.run(until=BEFORE_GRACE)
        assert coord.recovering
        assert [type(msg) for msg in coord._recovery_backlog] == [
            m.PatchDrained
        ]
        assert coord.groups[joiner.group_id].allocations  # the patch charge
        assert manager.merges == 0

        sim.run(until=AFTER_GRACE)
        assert not coord.recovering
        assert coord._recovery_backlog == []
        assert coord.groups[joiner.group_id].allocations == {}
        assert manager.merges == 1
        assert manager.ledger.patches_refunded == manager.ledger.patches_charged
        sim.run(until=8.0)
        assert builtin_registry().check(cluster, "drain") == []
