"""The MSU page cache: pool accounting, interval/prefix policy, admission.

Unit tests for the cache subsystem (``repro.cache``), the popularity-aware
cache-covered placement in admission control, and one short end-to-end run
showing a single disk sustaining more streams with the cache on.
"""

import pytest

from repro.cache.interval import IntervalCache
from repro.cache.manager import CacheConfig, MsuPageCache
from repro.cache.pool import BufferPool
from repro.cache.prefix import PrefixCache
from repro.core.cluster import ClusterConfig, msu_parts
from repro.core.msu.msu import Msu
from repro.hardware.params import MachineParams
from repro.media import MpegEncoder, packetize_cbr
from repro.media.content import ContentType
from repro.net import messages as m
from repro.net.network import ControlChannel, Network
from repro.sim import Simulator
from repro.storage import SMALL_PAGES
from repro.units import MPEG1_RATE

from tests.helpers import build_admission_db

KEY = ("sd0", "movie")
PAGE = b"x" * 1024
MPEG = ContentType("mpeg1", MPEG1_RATE, MPEG1_RATE)


class TestBufferPool:
    def test_reserve_and_release(self):
        pool = BufferPool(100)
        assert pool.try_reserve(60)
        assert pool.used == 60 and pool.free == 40
        pool.release(60)
        assert pool.used == 0 and pool.peak == 60

    def test_denies_over_capacity(self):
        pool = BufferPool(100)
        assert pool.try_reserve(100)
        assert not pool.try_reserve(1)
        assert pool.denied == 1

    def test_zero_capacity_denies_everything(self):
        pool = BufferPool(0)
        assert not pool.try_reserve(1)
        assert pool.occupancy == 0.0

    def test_over_release_raises(self):
        pool = BufferPool(100)
        pool.try_reserve(10)
        with pytest.raises(ValueError):
            pool.release(11)


class TestIntervalCache:
    def test_fill_without_trailing_stream_not_retained(self):
        cache = IntervalCache(BufferPool(1 << 20))
        assert not cache.fill(KEY, 0, PAGE, producer_id=1)
        assert cache.retained_pages() == 0

    def test_leader_page_retained_for_follower(self):
        cache = IntervalCache(BufferPool(1 << 20))
        cache.observe(KEY, 2, 0)  # follower at the start
        assert cache.fill(KEY, 3, PAGE, producer_id=1)
        assert cache.pool.used == len(PAGE)
        assert cache.lookup(KEY, 3, stream_id=2) == PAGE
        assert cache.hits == 1
        # The only claimant consumed it: evicted, pool drained.
        assert cache.retained_pages() == 0
        assert cache.pool.used == 0

    def test_page_survives_until_every_claimant_reads(self):
        cache = IntervalCache(BufferPool(1 << 20))
        cache.observe(KEY, 2, 0)
        cache.observe(KEY, 3, 1)
        cache.fill(KEY, 5, PAGE, producer_id=1)
        cache.lookup(KEY, 5, stream_id=2)
        assert cache.retained_pages() == 1  # stream 3 still owed it
        cache.lookup(KEY, 5, stream_id=3)
        assert cache.retained_pages() == 0

    def test_free_rider_does_not_evict_others_claims(self):
        cache = IntervalCache(BufferPool(1 << 20))
        cache.observe(KEY, 2, 0)
        cache.fill(KEY, 4, PAGE, producer_id=1)
        # Stream 9 registered late: it may read the page (free ride)
        # without holding a claim, and stream 2's claim keeps it alive.
        assert cache.lookup(KEY, 4, stream_id=9) == PAGE
        assert cache.retained_pages() == 1

    def test_forget_stream_releases_claims_and_pool(self):
        cache = IntervalCache(BufferPool(1 << 20))
        cache.observe(KEY, 2, 0)
        cache.fill(KEY, 3, PAGE, producer_id=1)
        cache.forget_stream(2)
        assert cache.retained_pages() == 0
        assert cache.pool.used == 0
        assert cache.evicted == 1

    def test_holders_are_positions_and_claims(self):
        cache = IntervalCache(BufferPool(1 << 20))
        cache.observe(KEY, 2, 0)
        cache.fill(KEY, 3, PAGE, producer_id=1)
        assert cache.holders() == {1, 2}
        cache.forget_stream(1)
        assert cache.holders() == {2}  # 2 still has a position and a claim
        cache.forget_stream(2)
        assert cache.holders() == set()

    def test_pool_full_drops_fill(self):
        cache = IntervalCache(BufferPool(len(PAGE)))
        cache.observe(KEY, 2, 0)
        assert cache.fill(KEY, 3, PAGE, producer_id=1)
        assert not cache.fill(KEY, 4, PAGE, producer_id=1)
        assert cache.pool.denied == 1

    def test_invalidate_drops_whole_file(self):
        cache = IntervalCache(BufferPool(1 << 20))
        cache.observe(KEY, 2, 0)
        cache.fill(KEY, 3, PAGE, producer_id=1)
        cache.invalidate(KEY)
        assert cache.retained_pages() == 0
        assert cache.pool.used == 0
        assert cache.lookup(KEY, 3, stream_id=2) is None


class TestPrefixCache:
    def test_pin_and_lookup(self):
        cache = PrefixCache(BufferPool(1 << 20), max_pages_per_title=2)
        assert cache.pin(KEY, 0, PAGE)
        assert cache.pin(KEY, 1, PAGE)
        assert not cache.pin(KEY, 2, PAGE)  # per-title budget
        assert cache.lookup(KEY, 0) == PAGE
        assert cache.lookup(KEY, 2) is None
        assert cache.hits == 1
        assert cache.pinned_count(KEY) == 2

    def test_repin_is_idempotent(self):
        cache = PrefixCache(BufferPool(1 << 20))
        assert cache.pin(KEY, 0, PAGE)
        assert cache.pin(KEY, 0, PAGE)
        assert cache.pool.used == len(PAGE)

    def test_unpin_returns_pool_bytes(self):
        cache = PrefixCache(BufferPool(1 << 20))
        cache.pin(KEY, 0, PAGE)
        cache.pin(KEY, 1, PAGE)
        assert cache.unpin(KEY) == 2
        assert cache.pool.used == 0
        assert cache.pinned_pages == 0


class TestMsuPageCache:
    def test_prefix_consulted_before_interval(self):
        cache = MsuPageCache(CacheConfig(pool_bytes=1 << 20))
        cache.pin_prefix(KEY, 0, PAGE)
        assert cache.lookup(KEY, 0, stream_id=2) == PAGE
        assert cache.prefix.hits == 1 and cache.interval.hits == 0
        assert cache.slots_saved == 1

    def test_miss_counted(self):
        cache = MsuPageCache(CacheConfig(pool_bytes=1 << 20))
        assert cache.lookup(KEY, 7, stream_id=2) is None
        assert cache.misses == 1
        assert cache.snapshot().hit_ratio == 0.0

    def test_fill_then_hit_roundtrip(self):
        cache = MsuPageCache(CacheConfig(pool_bytes=1 << 20))
        cache.interval.observe(KEY, 2, 0)  # add_play registers the follower
        cache.fill(KEY, 0, PAGE, producer_id=1)
        assert cache.lookup(KEY, 0, stream_id=2) == PAGE
        assert cache.bytes_served == len(PAGE)

    def test_clear_drops_pages_and_pool(self):
        cache = MsuPageCache(CacheConfig(pool_bytes=1 << 20))
        cache.pin_prefix(KEY, 0, PAGE)
        cache.clear()
        assert cache.pool.used == 0
        assert cache.lookup(KEY, 0, stream_id=2) is None

    def test_copy_time(self):
        cache = MsuPageCache(CacheConfig(copy_rate=1e6))
        assert cache.copy_time(1000) == pytest.approx(1e-3)


class TestInvalidateWithActiveReaders:
    """Deleting a title must not leak pool bytes or serve stale pages to
    readers that are mid-flight — a trailing viewer on the interval cache
    or a multicast patch stream walking the pinned prefix."""

    def test_invalidate_mid_patch_drops_prefix_without_leak(self):
        cache = MsuPageCache(CacheConfig(pool_bytes=1 << 20))
        for index in range(4):
            assert cache.pin_prefix(KEY, index, PAGE)
        # A patch reader is part-way through the pinned prefix...
        assert cache.lookup(KEY, 0, stream_id=2) == PAGE
        assert cache.lookup(KEY, 1, stream_id=2) == PAGE
        cache.invalidate(KEY)
        # ...the rest of its walk misses to disk instead of going stale.
        assert cache.lookup(KEY, 2, stream_id=2) is None
        assert cache.misses == 1
        assert cache.prefix.pinned_pages == 0
        assert cache.pool.used == 0
        # The reader ending later must not over-release anything.
        cache.forget_stream(2)
        assert cache.pool.used == 0

    def test_invalidate_mid_trail_releases_unconsumed_claims(self):
        cache = IntervalCache(BufferPool(1 << 20))
        cache.observe(KEY, 2, 0)  # trailing reader at the start
        for index in range(3):
            assert cache.fill(KEY, index, PAGE, producer_id=1)
        assert cache.lookup(KEY, 0, stream_id=2) == PAGE
        assert cache.pool.used == 2 * len(PAGE)
        cache.invalidate(KEY)
        # Pages the trailer had not reached yet are gone, pool and all.
        assert cache.retained_pages() == 0
        assert cache.pool.used == 0
        assert cache.lookup(KEY, 1, stream_id=2) is None
        # The trailer's eventual departure finds nothing left to release.
        cache.forget_stream(2)
        assert cache.pool.used == 0

    def test_fill_after_invalidate_not_retained_for_stale_positions(self):
        cache = IntervalCache(BufferPool(1 << 20))
        cache.observe(KEY, 2, 0)
        cache.fill(KEY, 1, PAGE, producer_id=1)
        cache.invalidate(KEY)
        # Positions died with the file: a new leader's pages are not
        # retained on behalf of readers of the deleted incarnation.
        assert not cache.fill(KEY, 1, PAGE, producer_id=1)
        assert cache.pool.used == 0
        # A reader of the *new* file registers afresh and is served.
        cache.observe(KEY, 3, 0)
        assert cache.fill(KEY, 1, PAGE, producer_id=1)
        assert cache.lookup(KEY, 1, stream_id=3) == PAGE

    def test_repin_after_invalidate_serves_fresh_content(self):
        cache = MsuPageCache(CacheConfig(pool_bytes=1 << 20))
        cache.pin_prefix(KEY, 0, PAGE)
        cache.invalidate(KEY)
        fresh = b"y" * len(PAGE)
        assert cache.pin_prefix(KEY, 0, fresh)
        assert cache.lookup(KEY, 0, stream_id=2) == fresh
        assert cache.pool.used == len(fresh)


class TestPinVersusDelete:
    """A PinPrefix still reading when its title is deleted pins nothing.

    The pin is the one Coordinator message the MSU serves in a spawned
    process, so a DeleteFile can run between two of its reads.
    """

    def build(self):
        sim = Simulator()
        msu = Msu(
            sim, "m0", Network(sim, "delivery"),
            machine_params=MachineParams(name="m0", disks_per_hba=(2,)),
            ibtree_config=SMALL_PAGES,
            parts=msu_parts(ClusterConfig(cache=CacheConfig(prefix_pages=8))),
        )
        disk = msu.disk_ids()[0]
        self.load(msu, disk, seed=1)
        spawned = []
        spawn = sim.process

        def spy(gen, name=""):
            proc = spawn(gen, name=name)
            spawned.append(proc)
            return proc

        sim.process = spy
        channel = ControlChannel(sim, "coord", "m0")
        msu.attach_coordinator(channel)

        def coordinator():
            yield sim.timeout(0.01)
            channel.send("coord", m.PinPrefix("movie", disk, 8))
            yield sim.timeout(0.01)
            channel.send("coord", m.DeleteFile("movie", disk))

        sim.process(coordinator(), name="coord")
        sim.run(until=1.0)
        return msu, disk, [p for p in spawned if p.name == "m0.pin"]

    def load(self, msu, disk, seed):
        packets = packetize_cbr(
            MpegEncoder(seed=seed).bitstream(20.0), MPEG1_RATE, 1024
        )
        return msu.admin_load(disk, "movie", "mpeg1", packets)

    def test_pin_in_flight_stops_without_pinning(self):
        msu, disk, pins = self.build()
        assert len(pins) == 1 and not pins[0].is_alive
        assert pins[0].ok  # no StorageError from reading the deleted file
        assert msu.cache.prefix.pinned_pages == 0
        assert msu.cache.pool.used == 0
        assert msu.state_report().pins == ()
        assert msu.cache.audit() == []

    def test_reloaded_title_is_not_served_the_deleted_prefix(self):
        msu, disk, _pins = self.build()
        handle = self.load(msu, disk, seed=2)
        assert msu.cache.lookup((disk, "movie"), 0, stream_id=1) is None
        assert handle.nblocks > 8


class TestClaimsEndWithTheViewer:
    """Interval-cache positions and claims die with the viewer's stream.

    A page is retained only for viewers the duty cycle still serves, so
    once every stream has left, the pool holds nothing but prefix pins.
    """

    def build(self):
        sim = Simulator()
        msu = Msu(
            sim, "m0", Network(sim, "delivery"),
            machine_params=MachineParams(name="m0", disks_per_hba=(1,)),
            ibtree_config=SMALL_PAGES,
            parts=msu_parts(ClusterConfig(cache=CacheConfig())),
        )
        disk = msu.disk_ids()[0]
        packets = packetize_cbr(
            MpegEncoder(seed=1).bitstream(5.0), MPEG1_RATE, 1024
        )
        msu.admin_load(disk, "movie", "mpeg1", packets)
        return sim, msu, disk

    def play(self, msu, disk, group_id, stream_id):
        msu.handlers[m.ScheduleRead](m.ScheduleRead(
            group_id, stream_id, "movie", disk, "raw", MPEG1_RATE, False,
            ("client", 5000), "client",
        ))
        return msu.groups[group_id].play_streams[-1]

    def test_a_read_in_flight_does_not_reregister_a_viewer_that_left(self):
        sim, msu, disk = self.build()
        proc = msu.disk_processes[disk]
        quitter = self.play(msu, disk, 1, 10)
        sim.run(until=0.001)
        assert proc.pages_read == 0 and quitter.next_page == 1  # in flight
        msu._stop_stream(quitter)  # the viewer quits mid-read
        sim.run(until=0.5)
        assert proc.pages_read == 1  # the read completed after the quit
        # A later viewer plays the whole title; nothing is retained for
        # the quitter, so the pool is empty once it is done.
        self.play(msu, disk, 2, 20)
        sim.run(until=12.0)
        assert 2 not in msu.groups  # played to the end
        assert msu.cache.interval.retained_pages() == 0
        assert msu.cache.pool.used == 0

    def test_a_hang_releases_claims_and_keeps_prefix_pins(self):
        sim, msu, disk = self.build()
        msu.handlers[m.PinPrefix](m.PinPrefix("movie", disk, 4))
        self.play(msu, disk, 1, 10)
        sim.run(until=1.0)
        self.play(msu, disk, 2, 20)  # trails the first viewer by 1 s
        sim.run(until=2.0)
        pinned = msu.cache.prefix.pinned_bytes()
        assert pinned > 0
        assert msu.cache.interval.retained_pages() > 0
        msu.hang()
        # Both viewers died with the machine's state; their claims go
        # with them, while the pinned prefixes stay in memory.
        assert msu.cache.interval.retained_pages() == 0
        assert msu.cache.pool.used == pinned
        assert msu.state_report().pins == ((disk, "movie", 4),)
        assert msu.cache.audit() == []


class TestCacheCoveredAdmission:
    def build(self, cache_bps=4.2e6):
        return build_admission_db(cache_bps)

    def exhaust_disk(self, admission, entry):
        allocs = []
        while True:
            alloc = admission.place_read(entry, MPEG)
            if alloc is None or alloc.cache_covered:
                assert alloc is None
                break
            allocs.append(alloc)
        return allocs

    def test_second_chance_when_disk_exhausted(self):
        db, admission, entry = self.build()
        disk = db.disk("msu0", "msu0.sd0")
        raw = int(disk.bandwidth_capacity // MPEG1_RATE)
        for _ in range(raw):
            alloc = admission.place_read(entry, MPEG)
            assert alloc is not None and not alloc.cache_covered
        covered = admission.place_read(entry, MPEG)
        assert covered is not None and covered.cache_covered
        assert admission.cache_admitted == 1
        assert db.msus["msu0"].cache_used == MPEG1_RATE
        assert disk.bandwidth_used == pytest.approx(raw * MPEG1_RATE)

    def test_no_second_chance_without_active_leader(self):
        db, admission, entry = self.build()
        disk = db.disk("msu0", "msu0.sd0")
        disk.bandwidth_used = disk.bandwidth_capacity  # exhausted, idle
        assert entry.active_at(("msu0", "msu0.sd0")) == 0
        assert admission.place_read(entry, MPEG) is None

    def test_no_second_chance_without_cache(self):
        db, admission, entry = self.build(cache_bps=0.0)
        disk = db.disk("msu0", "msu0.sd0")
        raw = int(disk.bandwidth_capacity // MPEG1_RATE)
        for _ in range(raw):
            assert admission.place_read(entry, MPEG) is not None
        assert admission.place_read(entry, MPEG) is None

    def test_release_refunds_cache_not_disk(self):
        db, admission, entry = self.build()
        disk = db.disk("msu0", "msu0.sd0")
        raw_allocs = []
        while disk.bandwidth_free() >= MPEG1_RATE:
            raw_allocs.append(admission.place_read(entry, MPEG))
        covered = admission.place_read(entry, MPEG)
        used_before = disk.bandwidth_used
        admission.release(covered)
        assert db.msus["msu0"].cache_used == 0.0
        assert disk.bandwidth_used == used_before  # disk untouched
        for alloc in raw_allocs:
            admission.release(alloc)
        assert disk.bandwidth_used == 0.0
        assert entry.active == {}

    def test_delivery_cap_still_binds_cache_grants(self):
        db, admission, entry = self.build(cache_bps=1e12)
        state = db.msus["msu0"]
        granted = 0
        while admission.place_read(entry, MPEG) is not None:
            granted += 1
        assert granted == int(state.delivery_capacity // MPEG1_RATE)


class TestEndToEnd:
    def test_cache_lifts_single_disk_concurrency(self):
        from repro.experiments.cache import run_cache

        off, on = run_cache(duration=60.0)
        assert on.concurrent_peak >= 1.2 * off.concurrent_peak
        assert on.snapshot.hit_ratio > 0.2
        assert on.snapshot.slots_saved > 0
        assert on.cache_admitted > 0
        assert on.pages_from_cache == on.snapshot.slots_saved
