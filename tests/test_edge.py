"""Edge proxy tier: placement loop, zero-disk-cost lane, crash, failover.

The multicast tests already exercise edge-covered patches; everything
here runs with ``multicast=None`` so plays take the plain unicast path
in ``Coordinator._play`` — the only route to the *prefix* serve lane
(an edged multicast play is intercepted by the channel manager first).
"""

import pytest

from repro.core.cluster import CalliopeCluster, ClusterConfig
from repro.core.coordinator import Coordinator
from repro.core.replication import ReplicationManager
from repro.edge import EdgeConfig
from repro.edge.proxy import EdgeProxy
from repro.failover import FailoverConfig
from repro.net import messages as m
from repro.net.network import Host, Network
from repro.sim import Simulator
from repro.units import MPEG1_RATE
from repro.verify.invariants import builtin_registry

from tests.helpers import (
    FAST,
    SMALL,
    crash_in_hold,
    make_packets,
    open_client,
    record_failures,
    record_holds,
    start_stream,
)

#: Fast enough for test horizons: one play pins the title on the next
#: placement tick (score 1.0 decays to 0.9, above promote at 0.5) and
#: the 48-page fill trickle completes in ~0.1 s.
EDGE = EdgeConfig(
    n_edges=1, prefix_pages=48, placement_period=0.25,
    decay=0.9, promote_score=0.5, evict_score=0.05, report_period=0.25,
)


def build_edged(*, n_msus=1, edge=EDGE, failover=None, length=30.0, seed=3):
    sim = Simulator()
    cluster = CalliopeCluster(
        sim,
        ClusterConfig(
            n_msus=n_msus, ibtree_config=SMALL, failover=failover,
            multicast=None, edge=edge,
        ),
    )
    cluster.coordinator.db.add_customer("user")
    return sim, cluster, make_packets(length, seed=seed)


class TestEdgeConfig:
    def test_decay_must_stay_below_one(self):
        with pytest.raises(ValueError):
            EdgeConfig(decay=1.0)

    def test_evict_must_stay_below_promote(self):
        with pytest.raises(ValueError):
            EdgeConfig(promote_score=1.0, evict_score=1.0)


class TestPlacementLoop:
    def test_popular_title_is_pinned_then_evicted_when_cold(self):
        sim, cluster, packets = build_edged(
            edge=EdgeConfig(
                n_edges=1, prefix_pages=48, placement_period=0.25,
                decay=0.7, promote_score=0.5, evict_score=0.3,
                report_period=0.25,
            ),
        )
        cluster.load_content("movie", "mpeg1", packets)
        sim.run(until=0.05)
        placement = cluster.coordinator.placement
        proxy = cluster.edges[0]
        placement.note_request("movie")
        # Score 1.0 decays to 0.7 at the first tick — pinned and filled.
        sim.run(until=0.8)
        assert placement.edges[proxy.name].pinned.get("movie", 0) == 48
        assert proxy.pinned_titles() == {"movie": 48}
        assert proxy.pool.used == 48 * EDGE.page_size
        # No further requests: 0.7 -> 0.49 -> 0.343 -> 0.24 <= evict.
        sim.run(until=3.0)
        assert "movie" not in placement.edges[proxy.name].pinned
        assert proxy.pinned_titles() == {}
        assert proxy.pool.used == 0

    def test_hot_titles_sorted_by_decayed_score(self):
        sim, cluster, _ = build_edged()
        placement = cluster.coordinator.placement
        placement.note_request("a")
        placement.note_request("b")
        placement.note_request("b")
        assert placement.hot_titles()[0] == ("b", 2.0)
        placement.decay()
        assert placement.scores["b"] == pytest.approx(1.8)


class TestPrefixServeUnicast:
    def test_second_play_splices_from_the_edge(self):
        sim, cluster, packets = build_edged()
        coord = cluster.coordinator
        placement = coord.placement
        proxy = cluster.edges[0]
        cluster.load_content("movie", "mpeg1", packets)
        sim.run(until=0.05)
        client = open_client(sim, cluster)
        # First play: nothing pinned yet — a plan miss, served MSU-only.
        start_stream(sim, client, "movie", "cold")
        assert placement.prefix_serves == 0
        assert coord.admission.edge_admitted == 0
        # The placement loop pins the now-hot title.
        sim.run(until=sim.now + 1.0)
        assert proxy.pinned_titles() == {"movie": 48}
        view = start_stream(sim, client, "movie", "tv")
        assert placement.prefix_serves == 1
        assert coord.admission.edge_admitted == 1
        # The serve is live: charged against the edge uplink, and the
        # group's books hold only MSU-lane allocations.
        assert placement.edges[proxy.name].uplink_used > 0.0
        assert proxy.uplink_used > 0.0
        group = coord.groups[view.group_id]
        assert all(not a.edge_name for a in group.allocations.values())
        # 48 pages at the MPEG-1 rate take ~4 s; let the serve finish.
        sim.run(until=sim.now + 6.0)
        assert proxy.prefix_bytes_served == 48 * EDGE.page_size
        assert proxy.hits >= 1
        assert placement.serves == {}
        assert placement.edges[proxy.name].uplink_used == pytest.approx(0.0)

    def test_edge_crash_mid_serve_does_not_stall_the_stream(self):
        sim, cluster, packets = build_edged()
        coord = cluster.coordinator
        placement = coord.placement
        cluster.load_content("movie", "mpeg1", packets)
        sim.run(until=0.05)
        client = open_client(sim, cluster)
        start_stream(sim, client, "movie", "cold")
        sim.run(until=sim.now + 1.0)
        view = start_stream(sim, client, "movie", "tv")
        assert placement.prefix_serves == 1
        cluster.fail_edge(0)
        sim.run(until=sim.now + 1.0)
        # The broken control channel told the Coordinator: the serve is
        # refunded, no uplink charge lingers, the pins are gone.
        assert placement.serves == {}
        assert all(
            v.uplink_used == pytest.approx(0.0)
            for v in placement.edges.values()
        )
        assert cluster.edges[0].pinned_titles() == {}
        # The MSU tail stream never depended on the edge: data still flows.
        frozen = client.ports["tv"].stats.packets
        sim.run(until=sim.now + 2.0)
        assert client.ports["tv"].stats.packets > frozen
        assert not view.done_event.triggered


class TestFailoverMissPath:
    def test_backing_msu_death_migrates_without_losing_edge_position(self):
        """The satellite case: a client spliced onto an edge prefix whose
        backing MSU dies mid-stream migrates to the replica via the
        migrator while the edge keeps serving its prefix leg — the
        stream is charged once per leg, never twice."""
        sim, cluster, packets = build_edged(
            n_msus=2, failover=FailoverConfig(heartbeat=FAST),
        )
        coord = cluster.coordinator
        placement = coord.placement
        proxy = cluster.edges[0]
        cluster.load_content("movie", "mpeg1", packets, msu_index=0)
        sim.run(until=0.05)
        client = open_client(sim, cluster)
        warm = start_stream(sim, client, "movie", "warm")
        sim.run(until=sim.now + 1.0)
        assert proxy.pinned_titles() == {"movie": 48}
        view = start_stream(sim, client, "movie", "tv")
        assert coord.groups[view.group_id].msu_name == "msu0"
        serve_key = next(iter(placement.serves))
        assert serve_key[0] == view.group_id
        served_before = proxy.prefix_bytes_served
        # The replica appears only now, so both streams started on msu0
        # and the migrator has somewhere to move them.
        replica_disk = cluster.msus[1].disk_ids()[0]
        ReplicationManager(cluster).replicate("movie", "msu1", replica_disk)

        cluster.hang_msu(0)
        sim.run(until=sim.now + FAST.detection_latency + 1.5)
        # Both groups moved to the replica without a fresh PlayRequest.
        assert coord.groups[view.group_id].msu_name == "msu1"
        assert view.migrations == 1
        assert warm.migrations == 1
        # The edge leg never noticed: the serve record survived the
        # migration under its original ids (the 48-page serve outlives
        # the ~0.8 s detection + resume window) and keeps streaming.
        assert serve_key in placement.serves
        assert placement.serves[serve_key].edge_name == proxy.name
        frozen = client.ports["tv"].stats.packets
        sim.run(until=sim.now + 6.0)
        assert client.ports["tv"].stats.packets > frozen
        # The serve ran to completion from edge memory ...
        assert proxy.prefix_bytes_served >= served_before + 48 * EDGE.page_size
        assert placement.serves == {}
        # ... and nothing is double-charged once the dust settles: the
        # uplink refunded, and the migrated group's books are MSU-lane
        # only (one place_read charge per leg).
        assert placement.edges[proxy.name].uplink_used == pytest.approx(0.0)
        group = coord.groups[view.group_id]
        assert all(not a.edge_name for a in group.allocations.values())
        assert all(a.msu_name == "msu1" for a in group.allocations.values())


class TestEdgeSplice:
    """The no-channel-slot fall-through: edge prefix + unicast tail."""

    def _edged_mcast(self):
        from repro.cache.manager import CacheConfig
        from repro.multicast import MulticastConfig

        sim = Simulator()
        cluster = CalliopeCluster(
            sim,
            ClusterConfig(
                n_msus=1, ibtree_config=SMALL,
                multicast=MulticastConfig(batch_window=0.2, patch_horizon=2.0),
                edge=EDGE, cache=CacheConfig(),
            ),
        )
        cluster.coordinator.db.add_customer("user")
        cluster.load_content("movie", "mpeg1", make_packets(30.0))
        return sim, cluster

    def test_splice_serves_play_when_no_channel_slot(self):
        sim, cluster = self._edged_mcast()
        coord = cluster.coordinator
        placement = coord.placement
        proxy = cluster.edges[0]
        placement.note_request("movie")
        sim.run(until=1.0)
        assert placement.edges[proxy.name].pinned.get("movie", 0) > 0

        # A leader channel holds the title active on its home disk.
        leader = open_client(sim, cluster, name="a")
        start_stream(sim, leader, "movie", "tv")
        mcast = coord.channel_manager
        assert len(mcast.channels) == 1

        # Exhaust the disk's raw bandwidth: no new channel is placeable,
        # but the cache-covered unicast second chance still is.
        entry = coord.db.contents["movie"]
        ctype = coord.types.get("mpeg1")
        while coord.admission.place_channel(entry, ctype) is not None:
            pass

        # Past the prefix-stretched patch horizon nothing is joinable
        # either, so without the splice this viewer would be parked.
        sim.run(until=8.0)
        viewer = open_client(sim, cluster, name="b")
        view = start_stream(sim, viewer, "movie", "tv")
        assert view.ready_streams
        assert mcast.edge_spliced == 1
        assert mcast.fallbacks == 0
        assert placement.prefix_serves == 1
        assert coord.admission.cache_admitted >= 1
        # The tail rides the cache; the opening pages come off the edge.
        group = coord.groups[view.group_id]
        tail = [a for a in group.allocations.values() if not a.edge_name]
        assert len(tail) == 1 and tail[0].cache_covered
        before = viewer.ports["tv"].stats.packets
        sim.run(until=sim.now + 3.0)
        assert viewer.ports["tv"].stats.packets > before

    def test_splice_unavailable_without_prefix_parks_request(self):
        sim, cluster = self._edged_mcast()
        coord = cluster.coordinator
        leader = open_client(sim, cluster, name="a")
        start_stream(sim, leader, "movie", "tv")
        entry = coord.db.contents["movie"]
        ctype = coord.types.get("mpeg1")
        while coord.admission.place_channel(entry, ctype) is not None:
            pass
        sim.run(until=8.0)  # nothing pinned: plan_prefix misses
        viewer = open_client(sim, cluster, name="b")
        proc = sim.process(
            _play_only(sim, viewer, "movie", "tv")
        )
        sim.run(until=sim.now + 2.0)
        mcast = coord.channel_manager
        assert mcast.edge_spliced == 0
        assert mcast.fallbacks == 1
        assert proc.is_alive  # parked on the queue, still waiting


def _journal_kinds(coord):
    """Every journal kind ``coord`` appends from now on, in order."""
    kinds = []
    append = coord.journal.append

    def spy(kind, payload):
        kinds.append(kind)
        return append(kind, payload)

    coord.journal.append = spy
    return kinds


class TestEdgeLegOrder:
    """The edge leg's two call sites run in opposite orders, and both
    orders show.  A plain unicast play places its MSU members first, so
    a play with no MSU slot never plans an edge leg and never counts a
    plan miss.  The splice plans first, so a title no edge holds never
    charges an MSU slot only to release it."""

    def test_play_without_msu_slot_parks_before_planning(self):
        sim, cluster, packets = build_edged()
        coord = cluster.coordinator
        placement = coord.placement
        proxy = cluster.edges[0]
        cluster.load_content("movie", "mpeg1", packets)
        cluster.load_content("other", "mpeg1", packets)
        placement.note_request("movie")
        sim.run(until=1.0)
        view = placement.edges[proxy.name]
        assert view.pinned.get("movie", 0) > 0
        assert "other" not in view.pinned
        disk = coord.db.disk("msu0", coord.db.contents["movie"].disk_id)
        disk.bandwidth_capacity = disk.bandwidth_used + 0.5 * MPEG1_RATE
        misses, view_misses = placement.plan_misses, view.misses
        client = open_client(sim, cluster)
        pinned = sim.process(_play_only(sim, client, "movie", "tv"))
        unpinned = sim.process(_play_only(sim, client, "other", "tv2"))
        sim.run(until=sim.now + 0.5)
        assert pinned.is_alive and unpinned.is_alive
        assert [req.kind for req in coord.admission.queue] == ["play", "play"]
        assert placement.plan_misses == misses
        assert view.misses == view_misses
        assert coord.admission.edge_admitted == 0
        assert view.uplink_used == 0.0

    def test_splice_without_prefix_charges_nothing_and_parks(self):
        sim, cluster = TestEdgeSplice()._edged_mcast()
        coord = cluster.coordinator
        start_stream(sim, open_client(sim, cluster, name="a"), "movie", "tv")
        entry = coord.db.contents["movie"]
        ctype = coord.types.get("mpeg1")
        while coord.admission.place_channel(entry, ctype) is not None:
            pass
        sim.run(until=8.0)  # nothing pinned: plan_prefix misses
        viewer = open_client(sim, cluster, name="b")
        admitted = coord.admission.admitted
        kinds = _journal_kinds(coord)
        proc = sim.process(_play_only(sim, viewer, "movie", "tv"))
        sim.run(until=sim.now + 2.0)
        mcast = coord.channel_manager
        assert "charge" not in kinds and "release" not in kinds
        assert coord.admission.admitted == admitted
        assert mcast.edge_spliced == 0
        assert mcast.fallbacks == 1
        assert [req.kind for req in coord.admission.queue] == ["play"]
        assert proc.is_alive


class TestEdgeSpliceCrashWhileScheduling:
    """The tail MSU dies inside the splice's SCHEDULE_CPU hold.

    A batch that found no channel slot falls back to an edge prefix plus
    a unicast tail; the tail's MSU fails while its ScheduleRead goes
    out.  The group is never registered, the edge's uplink charge is
    refunded and the request parks like any other fallback.
    """

    def _splice_play(self):
        """The splice rig at the instant viewer b asks for the title: the
        prefix is pinned, a leader channel plays, and the disk has no
        room for a second channel."""
        sim, cluster = TestEdgeSplice()._edged_mcast()
        coord = cluster.coordinator
        coord.placement.note_request("movie")
        sim.run(until=1.0)
        start_stream(sim, open_client(sim, cluster, name="a"), "movie", "tv")
        disk = coord.db.disk("msu0", coord.db.contents["movie"].disk_id)
        disk.bandwidth_capacity = disk.bandwidth_used + 0.5 * MPEG1_RATE
        sim.run(until=8.0)
        viewer = open_client(sim, cluster, name="b")
        sim.process(_play_only(sim, viewer, "movie", "tv"))
        return sim, cluster

    def crash_instant(self):
        """A crash instant whose detection lands mid-hold, from two
        probes: when the splice's hold starts, and how long the crash
        takes to detect."""
        sim, cluster = self._splice_play()
        holds = record_holds(cluster.coordinator)
        sim.run(until=sim.now + 1.0)
        (hold,) = holds
        sim, cluster = self._splice_play()
        detected = record_failures(cluster.coordinator)
        sim.run(until=hold)
        cluster.fail_msu(0, crash=True)
        sim.run(until=sim.now + 1.0)
        return hold + Coordinator.SCHEDULE_CPU / 2 - (detected["msu0"] - hold)

    def test_failure_inside_the_hold_parks_and_refunds_the_edge(self):
        crash_at = self.crash_instant()
        sim, cluster = self._splice_play()
        coord = cluster.coordinator
        holds = record_holds(coord)
        detected = record_failures(coord)
        sim.run(until=crash_at)
        cluster.fail_msu(0, crash=True)
        sim.run(until=sim.now + 1.0)
        # The failure really landed inside the splice's hold.
        assert holds[0] < detected["msu0"] < holds[0] + Coordinator.SCHEDULE_CPU
        mcast = coord.channel_manager
        assert mcast.edge_spliced == 0
        assert mcast.fallbacks == 1
        # Viewer b's request parked beside the leader's resume ticket.
        assert sorted(req.kind for req in coord.admission.queue) == [
            "play", "resume",
        ]
        assert not coord.groups
        view = coord.placement.edges[cluster.edges[0].name]
        assert view.uplink_used == 0.0
        assert coord.placement.prefix_serves == 0
        assert builtin_registry().check(cluster, "drain") == []


class TestEdgePatchCrashWhileScheduling:
    """An edge-covered patch join whose channel's MSU fails inside the
    subscribe hold.  The edge's serve went out before the hold and
    refunds itself when done; the viewer batches, parks, and is served
    once the MSU rejoins."""

    @staticmethod
    def _patch_join():
        sim, cluster = TestEdgeSplice()._edged_mcast()
        cluster.coordinator.placement.note_request("movie")
        sim.run(until=1.0)
        start_stream(sim, open_client(sim, cluster, name="a"), "movie", "tv")
        sim.run(until=4.0)  # past the 2 s horizon, inside the prefix
        viewer = open_client(sim, cluster, name="b")
        sim.process(_play_only(sim, viewer, "movie", "tv"))
        return sim, cluster, None

    def test_failure_inside_the_hold_batches_the_viewer(self):
        sim, cluster, _ = crash_in_hold(self._patch_join)
        coord = cluster.coordinator
        mcast = coord.channel_manager
        assert mcast.edge_patched == 1 and mcast.patched_joins == 0
        assert [g for g in coord.groups.values() if g.msu_name == "msu0"] == []
        assert [req.kind for req in coord.admission.queue].count("play") == 1
        cluster.rejoin_msu(0)
        sim.run(until=sim.now + 40.0)
        assert coord.placement.edges[cluster.edges[0].name].uplink_used == 0.0
        assert builtin_registry().check(cluster, "drain") == []


def _play_only(sim, client, title, port):
    yield from client.register_port(port, "mpeg1")
    yield from client.play(title, port)


class TestIntervalWindowSeeding:
    """begin_serve seeds a rideable window when its span is resident."""

    def _pinned(self):
        sim, cluster, packets = build_edged()
        cluster.load_content("movie", "mpeg1", packets)
        coord = cluster.coordinator
        placement = coord.placement
        placement.note_request("movie")
        sim.run(until=1.0)
        proxy = cluster.edges[0]
        assert placement.edges[proxy.name].pinned.get("movie", 0) == 48
        return sim, cluster, coord, placement, proxy

    def test_resident_span_seeds_window_at_begin_serve(self):
        sim, cluster, coord, placement, proxy = self._pinned()
        entry = coord.db.contents["movie"]
        ctype = coord.types.get("mpeg1")
        alloc = coord.admission.place_edge(entry, ctype, proxy.name)
        # The serve's whole span is pinned: the window is rideable the
        # moment the serve *starts*, not only at serve_done.
        placement.begin_serve(
            proxy.name, 900, 901, entry, 0, 48, ctype.bandwidth_rate,
            "prefix", ("b", 1), alloc,
        )
        window = placement.recent[proxy.name]["movie"]
        assert window[0] == 48
        assert window[1] > sim.now
        # A planless client can now ride it as an interval hit.
        placement.edges[proxy.name].pinned.pop("movie")
        plan = placement.plan_prefix(entry, ctype, "b")
        assert plan is not None and plan[2] == "interval"

    def test_unresident_span_waits_for_serve_done(self):
        sim, cluster, coord, placement, proxy = self._pinned()
        entry = coord.db.contents["movie"]
        ctype = coord.types.get("mpeg1")
        alloc = coord.admission.place_edge(entry, ctype, proxy.name)
        # End page beyond the pinned span: nothing is seeded up front...
        placement.begin_serve(
            proxy.name, 900, 901, entry, 0, 60, ctype.bandwidth_rate,
            "interval", ("b", 1), alloc,
        )
        assert "movie" not in placement.recent.get(proxy.name, {})
        # ...and a patch serve never seeds, even when fully resident.
        alloc2 = coord.admission.place_edge(entry, ctype, proxy.name)
        placement.begin_serve(
            proxy.name, 902, 903, entry, 0, 32, ctype.bandwidth_rate,
            "patch", ("b", 1), alloc2,
        )
        assert "movie" not in placement.recent.get(proxy.name, {})


class TestSharedZeroPage:
    """Edge prefix pages are synthetic zeros: every pin of one page size
    shares one immutable page object, while the pool still charges each
    pin its full length."""

    PAGE = 16384
    PAGES = 256

    def _proxy(self):
        sim = Simulator()
        net = Network(sim)
        config = EdgeConfig(prefix_pages=self.PAGES,
                            memory_budget=2 * self.PAGES * self.PAGE,
                            fetch_per_page=0.0)
        proxy = EdgeProxy(sim, "edge0", net, config)
        viewer = Host(sim, net, "viewer").bind()
        return sim, proxy, viewer

    def _pin(self, sim, proxy):
        msg = m.PlacePrefix("movie", "msu0", "d0", self.PAGES, self.PAGE, 0.0)
        sim.process(proxy._place(msg))
        sim.run(until=sim.now + 1.0)

    def test_pinned_pages_share_one_object_and_charge_full_bytes(self):
        sim, proxy, _ = self._proxy()
        self._pin(sim, proxy)
        key = ("mem", "movie")
        assert proxy.pinned_pages("movie") == self.PAGES
        pages = [proxy.prefix.lookup(key, i) for i in range(self.PAGES)]
        assert len({id(p) for p in pages}) == 1
        assert pages[0] == bytes(self.PAGE)
        assert proxy.pool.used == proxy.prefix.pinned_bytes() == self.PAGES * self.PAGE

    def test_evict_and_crash_release_exactly_the_pinned_bytes(self):
        sim, proxy, _ = self._proxy()
        self._pin(sim, proxy)
        assert proxy.evict("movie") == self.PAGES
        assert proxy.pool.used == proxy.prefix.pinned_bytes() == 0
        self._pin(sim, proxy)
        assert proxy.pool.used == self.PAGES * self.PAGE
        proxy.crash()
        assert proxy.pool.used == proxy.prefix.pinned_bytes() == 0

    def test_miss_path_serve_sends_a_full_page(self):
        sim, proxy, viewer = self._proxy()
        msg = m.EdgeServe(1, 1, "movie", viewer.address, 0, 1, 1e6, self.PAGE)
        sim.process(proxy._serve(msg))
        sim.run(until=sim.now + 1.0)
        assert proxy.misses == 1
        assert proxy.prefix_bytes_served == self.PAGE
        dgram = viewer.try_recv()
        assert dgram is not None and len(dgram.payload) == self.PAGE
