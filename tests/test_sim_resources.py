"""Unit and property tests for Resource and Store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, Resource, Simulator, Store
from tests.conftest import run_process
from tests.test_sim_engine import SCHEDULERS


class TestResource:
    def test_grants_up_to_capacity_immediately(self, sim):
        res = Resource(sim, capacity=2)
        r1, r2 = res.request(), res.request()
        assert r1.triggered and r2.triggered
        r3 = res.request()
        assert not r3.triggered
        assert res.in_use == 2
        assert res.queue_length == 1

    def test_release_wakes_fifo(self, sim):
        res = Resource(sim, capacity=1)
        first = res.request()
        second = res.request()
        third = res.request()
        res.release(first)
        sim.run()
        assert second.triggered and not third.triggered

    def test_release_unknown_request_rejected(self, sim):
        res = Resource(sim, capacity=1)
        other = Resource(sim, capacity=1)
        req = other.request()
        with pytest.raises(RuntimeError):
            res.release(req)

    def test_release_waiting_request_cancels_it(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()
        waiter = res.request()
        res.release(waiter)  # cancel the queued claim
        res.release(holder)
        sim.run()
        assert res.in_use == 0 and res.queue_length == 0

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_mutual_exclusion_in_processes(self, sim):
        res = Resource(sim, capacity=1)
        active = [0]
        peak = [0]

        def worker():
            req = res.request()
            yield req
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield sim.timeout(1.0)
            active[0] -= 1
            res.release(req)

        for _ in range(5):
            sim.process(worker())
        sim.run()
        assert peak[0] == 1
        assert sim.now == 5.0


def _claim_idle(res: Resource):
    """Run ``res.claim()``, which must return without yielding; its request."""
    with pytest.raises(StopIteration) as stop:
        next(res.claim())
    return stop.value.value


@pytest.mark.parametrize("kind", [Resource])
class TestTryAcquire:
    """``claim()``'s inline grant: an idle unit is taken without waiting."""

    def test_grants_idle_resource_without_scheduling(self, sim, kind):
        res = kind(sim, capacity=2)
        req = _claim_idle(res)
        assert req.ok and req.value is req
        assert res.in_use == 1 and res.queue_length == 0
        assert sim.peek() == float("inf")  # no queue entry behind the grant
        sim.run()
        assert sim.events_executed == 0

    def test_refuses_while_held_or_queued(self, sim, kind):
        """A claim waits while the unit is held, and also once the freed
        unit has passed to a queued claim that has not resumed yet."""
        res = kind(sim, capacity=1)
        holder = res.request()
        waiting = res.claim()
        queued = next(waiting)
        assert not queued.triggered
        res.release(holder)  # the unit passes straight to the queued claim
        late = res.claim()
        assert not next(late).triggered
        assert (res.in_use, res.queue_length) == (1, 1)
        late.close()  # withdraws its queued request
        waiting.close()  # releases the unit it was granted
        assert (res.in_use, res.queue_length) == (0, 0)
        assert _claim_idle(res).ok

    def test_releasing_inline_grant_wakes_next_waiter(self, sim, kind):
        res = kind(sim, capacity=1)
        inline = _claim_idle(res)

        def waiter():
            req = yield from res.claim()
            res.release(req)
            return sim.now

        proc = sim.process(waiter())
        sim.schedule(2.0, res.release, inline)
        sim.run()
        assert proc.value == 2.0
        assert res.in_use == 0 and res.queue_length == 0

    def test_yielding_inline_grant_resumes_same_instant(self, sim, kind):
        res = kind(sim, capacity=1)

        def mistaken():
            yield sim.timeout(1.5)
            req = yield from res.claim()
            got = yield req  # not needed, but must not wedge
            assert got is req
            res.release(req)
            return sim.now

        assert run_process(sim, mistaken()) == 1.5
        assert res.in_use == 0


class TestClaim:
    def test_idle_hold_executes_one_event(self, sim):
        """An idle ``hold(t)`` costs its end entry and no grant event."""
        res = Resource(sim)
        hold = res.hold(0.5)
        assert res.in_use == 1
        sim.run()
        assert (sim.events_executed, sim.now) == (1, 0.5)
        assert hold.triggered
        assert res.in_use == 0

    def test_interrupted_while_queued_withdraws(self, sim):
        res = Resource(sim)
        log = []

        def claimant(tag):
            try:
                yield res.hold(1.0)
            except Interrupt:
                log.append((tag, "interrupted", sim.now))
            else:
                log.append((tag, sim.now))

        sim.process(claimant("a"))
        b = sim.process(claimant("b"))
        sim.process(claimant("c"))
        sim.schedule(0.5, b.interrupt)
        sim.run()
        assert log == [("b", "interrupted", 0.5), ("a", 1.0), ("c", 2.0)]
        assert (res.in_use, res.queue_length) == (0, 0)

    def test_interrupted_after_grant_posted_hands_unit_on(self, sim):
        """The holder interrupts the queued claimant and then releases, so
        the grant is posted before the interrupt is delivered: the claimant
        is interrupted holding a unit it never resumed with, and passes it
        on to the next waiter."""
        res = Resource(sim)
        log = []

        def holder():
            req = yield from res.claim()
            yield sim.timeout(1.0)
            doomed.interrupt("crash")
            res.release(req)

        def claimant(tag):
            try:
                req = yield from res.claim()
            except Interrupt:
                log.append((tag, "interrupted", sim.now))
                return
            log.append((tag, sim.now))
            res.release(req)

        sim.process(holder())
        doomed = sim.process(claimant("b"))
        sim.process(claimant("c"))
        sim.run()
        assert log == [("b", "interrupted", 1.0), ("c", 1.0)]
        assert (res.in_use, res.queue_length) == (0, 0)


class TestHold:
    """``hold(t)`` as one event: its checks and its interrupt phases."""

    def test_negative_time_raises_before_claiming(self, sim):
        res = Resource(sim)
        with pytest.raises(ValueError):
            res.hold(-1)
        assert (res.in_use, res.queue_length) == (0, 0)
        assert sim.peek() == float("inf")
        holder = res.request()
        with pytest.raises(ValueError):
            res.hold(-1e-9)
        assert (res.in_use, res.queue_length) == (1, 0)
        res.release(holder)

    def test_sets_every_slot(self, sim):
        """``Timeout`` and ``Hold`` set ``Event``'s fields without its
        ``__init__``: each must still set every slot, pooled or queued."""
        res = Resource(sim)
        made = [sim.timeout(1.0), sim.sleep(1.0), res.hold(1.0), res.hold(1.0)]
        assert made[3]._phase != made[2]._phase  # one holding, one queued
        for event in made:
            for cls in type(event).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    getattr(event, slot)  # AttributeError if left unset

    def test_busy_hold_grant_then_end(self, sim):
        """Behind a holder: a grant entry when the unit passes on, then
        the end entry, which releases before the waiter resumes."""
        res = Resource(sim)
        log = []

        def claimant(tag, t):
            yield res.hold(t)
            log.append((tag, sim.now, res.in_use))

        sim.process(claimant("a", 1.0))
        sim.process(claimant("b", 0.5))
        sim.run()
        assert log == [("a", 1.0, 1), ("b", 1.5, 0)]
        # Two process starts, a's end, b's grant and b's end.
        assert sim.events_executed == 5

    def test_interrupted_mid_hold_releases_at_the_interrupt(self, sim):
        """The unit passes on at the interrupt instant, the process never
        resumes from the hold, and the hold's end entry does nothing."""
        res = Resource(sim)
        log = []

        def claimant(tag):
            try:
                yield res.hold(1.0)
            except Interrupt:
                log.append((tag, "interrupted", sim.now))
                return
            log.append((tag, sim.now))

        a = sim.process(claimant("a"))
        sim.process(claimant("b"))
        sim.schedule(0.4, a.interrupt)
        sim.run(until=0.9)
        assert log == [("a", "interrupted", 0.4)]
        assert (res.in_use, res.queue_length) == (1, 0)
        sim.run()
        assert log == [("a", "interrupted", 0.4), ("b", 1.4)]
        assert (res.in_use, res.queue_length) == (0, 0)

    def test_interrupted_after_grant_posted_hands_unit_on(self, sim):
        """The hold's grant is posted, then the interrupt lands before it
        fires: the unit passes on, and the posted grant does nothing."""
        res = Resource(sim)
        log = []

        def holder():
            req = yield from res.claim()
            yield sim.timeout(1.0)
            doomed.interrupt("crash")
            res.release(req)

        def claimant(tag):
            try:
                yield res.hold(0.5)
            except Interrupt:
                log.append((tag, "interrupted", sim.now))
                return
            log.append((tag, sim.now))

        sim.process(holder())
        doomed = sim.process(claimant("b"))
        sim.process(claimant("c"))
        sim.run()
        assert log == [("b", "interrupted", 1.0), ("c", 1.5)]
        assert (res.in_use, res.queue_length) == (0, 0)


class TestStore:
    def test_fifo_items(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert store.get().value == 1
        assert store.get().value == 2

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def consumer():
            item = yield store.get()
            return (sim.now, item)

        def producer():
            yield sim.timeout(3.0)
            store.put("x")

        sim.process(producer())
        assert run_process(sim, consumer()) == (3.0, "x")

    def test_getters_fifo(self, sim):
        store = Store(sim)
        g1, g2 = store.get(), store.get()
        store.put("a")
        store.put("b")
        assert g1.value == "a" and g2.value == "b"

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put(5)
        assert store.try_get() == 5

    def test_interrupted_getter_does_not_swallow_put(self, sim):
        """A getter interrupted while blocked is withdrawn from the store,
        so the next put reaches the live getter instead of the dead one."""
        store = Store(sim)
        log = []

        def getter(tag):
            try:
                item = yield store.get()
            except Interrupt:
                log.append((tag, "interrupted", sim.now))
            else:
                log.append((tag, item, sim.now))

        first = sim.process(getter("a"))
        sim.schedule(0.1, first.interrupt)
        sim.schedule(0.2, sim.process, getter("b"))
        sim.schedule(0.3, store.put, "x")
        sim.run()
        assert log == [("a", "interrupted", 0.1), ("b", "x", 0.3)]
        assert not store._getters and len(store) == 0

    def test_len_counts_items(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestStoreDeliver:
    """``Store.deliver``: a scheduled arrival resumes its getter in place."""

    @pytest.fixture(params=sorted(SCHEDULERS))
    def sim(self, request) -> Simulator:
        s = Simulator()
        s._sched = SCHEDULERS[request.param]()
        return s

    @pytest.mark.parametrize("method, events", [("put", 2), ("deliver", 1)])
    def test_resumes_blocked_getter_at_the_same_instant(self, sim, method, events):
        store = Store(sim)
        got = []

        def reader():
            got.append(((yield store.get()), sim.now))

        sim.process(reader())
        sim.run()
        before = sim.events_executed
        sim.schedule(1.0, getattr(store, method), "x")
        sim.run()
        assert got == [("x", 1.0)]
        assert sim.events_executed - before == events

    def test_queues_item_when_no_getter_waits(self, sim):
        store = Store(sim)
        sim.schedule(1.0, store.deliver, "x")
        sim.run()
        assert len(store) == 1
        assert store.get().value == "x"

    def test_skips_getter_withdrawn_by_interrupt(self, sim):
        store = Store(sim)
        log = []

        def getter(tag):
            try:
                item = yield store.get()
            except Interrupt:
                log.append((tag, "interrupted", sim.now))
            else:
                log.append((tag, item, sim.now))

        first = sim.process(getter("a"))
        sim.schedule(0.1, first.interrupt)
        sim.schedule(0.2, sim.process, getter("b"))
        sim.schedule(0.3, store.deliver, "x")
        sim.run()
        assert log == [("a", "interrupted", 0.1), ("b", "x", 0.3)]
        assert not store._getters and len(store) == 0

    def test_raises_inside_a_process(self, sim):
        store = Store(sim)

        def producer():
            yield sim.timeout(0.1)
            store.deliver("x")

        with pytest.raises(RuntimeError, match="inside a process"):
            run_process(sim, producer())


class TestResourceProperties:
    @given(
        holds=st.lists(
            st.tuples(st.floats(0.01, 2.0), st.integers(0, 3)), min_size=1, max_size=20
        ),
        capacity=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_capacity(self, holds, capacity):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        active = [0]
        peak = [0]

        def worker(duration, start_slot):
            yield sim.timeout(start_slot * 0.1)
            req = res.request()
            yield req
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield sim.timeout(duration)
            active[0] -= 1
            res.release(req)

        for duration, slot in holds:
            sim.process(worker(duration, slot))
        sim.run()
        assert peak[0] <= capacity
        assert res.in_use == 0 and res.queue_length == 0

    @given(
        holds=st.lists(
            st.tuples(st.sampled_from([0.05, 0.1, 0.25, 1.0]), st.integers(0, 3)),
            min_size=1, max_size=20,
        ),
        capacity=st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_inline_grants_keep_every_grant_time(self, holds, capacity):
        """``claim()`` grants each claim at the same instant as a plain
        queued request (ties included); it only drops grant events."""

        def run(inline: bool):
            sim = Simulator()
            res = Resource(sim, capacity=capacity)
            spans = []

            def worker(i, duration, start_slot):
                yield sim.timeout(start_slot * 0.1)
                if inline:
                    req = yield from res.claim()
                else:
                    req = res.request()
                    yield req
                start = sim.now
                yield sim.timeout(duration)
                res.release(req)
                spans.append((i, start, sim.now))

            for i, (duration, slot) in enumerate(holds):
                sim.process(worker(i, duration, slot))
            sim.run()
            return sorted(spans), sim.events_executed

        queued, queued_events = run(inline=False)
        inline, inline_events = run(inline=True)
        assert inline == queued
        assert inline_events <= queued_events
