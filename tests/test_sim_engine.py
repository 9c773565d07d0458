"""Unit tests for the DES kernel: events, timeouts, processes.

Every test in this module runs once per scheduler in ``SCHEDULERS``, each
plugged into the ``Simulator._sched`` seam by the ``sim`` fixture below,
so any scheduler added there is held to the same kernel contract.
"""

import pytest

from repro.sim import AllOf, AnyOf, HeapScheduler, Interrupt, Simulator
from tests.conftest import run_process

SCHEDULERS = {"heap": HeapScheduler}


@pytest.fixture(params=sorted(SCHEDULERS))
def sim(request) -> Simulator:
    """A fresh simulator per test on each scheduler (overrides conftest)."""
    s = Simulator()
    s._sched = SCHEDULERS[request.param]()
    return s


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed(42)
        sim.run()
        assert seen == [42]

    def test_fail_delivers_exception(self, sim):
        ev = sim.event()
        ev.succeed if False else None
        err = ValueError("boom")
        seen = []
        ev.add_callback(lambda e: seen.append(e._exc))
        ev.fail(err)
        sim.run()
        assert seen == [err]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)
        with pytest.raises(RuntimeError):
            ev.fail(ValueError())

    def test_fail_requires_exception_instance(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callback_after_trigger_still_runs(self, sim):
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]

    def test_value_raises_stored_exception(self, sim):
        ev = sim.event()
        ev.fail(KeyError("k"))
        with pytest.raises(KeyError):
            _ = ev.value


class TestTimeout:
    def test_fires_at_exact_time(self, sim):
        fired = []
        t = sim.timeout(2.5)
        t.add_callback(lambda e: fired.append(sim.now))
        sim.run()
        assert fired == [2.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_immediately_in_order(self, sim):
        order = []
        sim.timeout(0.0).add_callback(lambda e: order.append("a"))
        sim.timeout(0.0).add_callback(lambda e: order.append("b"))
        sim.run()
        assert order == ["a", "b"]

    def test_timeout_value_passthrough(self, sim):
        def proc():
            got = yield sim.timeout(1.0, value="hello")
            return got

        assert run_process(sim, proc()) == "hello"

    def test_pacing_loop_wakes_after_each_delay(self, sim):
        log = []

        def pacer():
            for i in range(5):
                log.append(((yield sim.timeout(0.25, value=i)), sim.now))

        sim.process(pacer())
        sim.run()
        assert log == [(i, 0.25 * (i + 1)) for i in range(5)]


class TestProcess:
    def test_sequential_timeouts_advance_clock(self, sim):
        times = []

        def proc():
            yield sim.timeout(1.0)
            times.append(sim.now)
            yield sim.timeout(2.0)
            times.append(sim.now)

        run_process(sim, proc())
        assert times == [1.0, 3.0]

    def test_return_value_is_process_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        assert run_process(sim, proc()) == "done"

    def test_join_other_process(self, sim):
        def child():
            yield sim.timeout(5.0)
            return 99

        def parent():
            value = yield sim.process(child())
            return (sim.now, value)

        assert run_process(sim, parent()) == (5.0, 99)

    def test_exception_propagates_to_joiner(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise RuntimeError("child died")

        def parent():
            try:
                yield sim.process(child())
            except RuntimeError as err:
                return str(err)

        assert run_process(sim, parent()) == "child died"

    def test_failing_process_marks_event_failed(self, sim):
        def proc():
            yield sim.timeout(0.5)
            raise ValueError("oops")

        p = sim.process(proc())
        sim.run()
        assert p.triggered and not p.ok

    def test_yielding_non_event_fails(self, sim):
        def proc():
            yield "not an event"

        p = sim.process(proc())
        sim.run()
        assert p.triggered and not p.ok

    def test_immediate_return(self, sim):
        def proc():
            return 1
            yield  # pragma: no cover

        assert run_process(sim, proc()) == 1

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(1.0)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_finished_unjoined_process_takes_no_queue_slot(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        p = sim.process(proc())
        sim.run()
        assert sim.events_executed == 2  # the start and the timeout only
        assert p.triggered and p.value == "done"

    def test_late_joiners_of_finished_process_resume_at_their_instant(self, sim):
        def child():
            yield sim.timeout(1.0)
            return 99

        p = sim.process(child())
        sim.run(until=2.0)

        def joiner():
            value = yield p
            values = yield AllOf(sim, [p])
            return (sim.now, value, values)

        assert run_process(sim, joiner()) == (2.0, 99, [99])
        assert sim.run_until_event(p) == 99


class TestInterrupt:
    def test_interrupt_waiting_process(self, sim):
        caught = []

        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt as intr:
                caught.append((sim.now, intr.cause))

        p = sim.process(victim())

        def attacker():
            yield sim.timeout(2.0)
            p.interrupt("stop")

        sim.process(attacker())
        sim.run()
        assert caught == [(2.0, "stop")]

    def test_interrupted_wait_does_not_resume_twice(self, sim):
        resumes = []

        def victim():
            try:
                yield sim.timeout(1.0)
                resumes.append("timeout")
            except Interrupt:
                resumes.append("interrupt")
                yield sim.timeout(5.0)
                resumes.append("after")

        p = sim.process(victim())
        p.interrupt()
        sim.run()
        assert resumes == ["interrupt", "after"]

    def test_interrupt_finished_process_raises(self, sim):
        def proc():
            return None
            yield  # pragma: no cover

        p = sim.process(proc())
        sim.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_uncaught_interrupt_quietly_ends_process(self, sim):
        def victim():
            yield sim.timeout(100.0)

        p = sim.process(victim())
        p.interrupt()
        sim.run()
        assert p.triggered and p.ok


class TestConditions:
    def test_all_of_collects_values_in_order(self, sim):
        def proc():
            events = [sim.timeout(3.0, "c"), sim.timeout(1.0, "a"), sim.timeout(2.0, "b")]
            values = yield AllOf(sim, events)
            return (sim.now, values)

        assert run_process(sim, proc()) == (3.0, ["c", "a", "b"])

    def test_all_of_empty(self, sim):
        def proc():
            values = yield AllOf(sim, [])
            return values

        assert run_process(sim, proc()) == []

    def test_any_of_returns_winner(self, sim):
        def proc():
            events = [sim.timeout(3.0, "slow"), sim.timeout(1.0, "fast")]
            index, value = yield AnyOf(sim, events)
            return (sim.now, index, value)

        assert run_process(sim, proc()) == (1.0, 1, "fast")

    def test_any_of_empty_rejected(self, sim):
        with pytest.raises(ValueError):
            AnyOf(sim, [])


class TestSimulator:
    def test_run_until_time_advances_clock(self, sim):
        sim.timeout(1.0)
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0

    def test_run_until_past_rejected(self, sim):
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_schedule_order_stable_at_same_time(self, sim):
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_negative_schedule_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_peek_reports_next_event_time(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(4.0)
        assert sim.peek() == 4.0

    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_entry_behind_the_clock_is_refused(self, sim, drive):
        """Both dispatch paths refuse an entry due before ``now``."""
        sim.run(until=1.0)
        sim._seq += 1
        sim._sched.push(0.5, sim._seq, lambda: None, ())
        with pytest.raises(RuntimeError, match="backwards"):
            getattr(sim, drive)()
        assert (sim.now, sim.events_executed) == (1.0, 0)

    def test_run_until_event_detects_deadlock(self, sim):
        ev = sim.event()
        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run_until_event(ev)

    def test_run_until_event_respects_limit(self, sim):
        ev = sim.event()
        sim.schedule(100.0, ev.succeed)
        with pytest.raises(RuntimeError, match="limit"):
            sim.run_until_event(ev, limit=10.0)

    def test_determinism_two_runs_identical(self):
        def build():
            s = Simulator()
            log = []

            def worker(name, delay):
                for _ in range(5):
                    yield s.timeout(delay)
                    log.append((s.now, name))

            for i, d in enumerate([0.3, 0.7, 0.3]):
                s.process(worker(f"w{i}", d))
            s.run()
            return log

        assert build() == build()


class TestLateCallbacks:
    def test_late_registrations_deliver_in_one_slot(self, sim):
        """Post-fire callbacks batch: an interleaved ``schedule(0.0, ...)``
        cannot split an event's value delivery (the seed engine scheduled
        each late callback as its own queue entry, so ``g`` would have run
        between ``f1`` and ``f2``)."""
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        order = []
        ev.add_callback(lambda e: order.append(("f1", e.value)))
        sim.schedule(0.0, order.append, ("g", None))
        ev.add_callback(lambda e: order.append(("f2", e.value)))
        sim.run()
        assert order == [("f1", 7), ("f2", 7), ("g", None)]

    def test_late_batch_after_late_batch(self, sim):
        """A registration made *inside* a late delivery starts a new batch."""
        ev = sim.event()
        ev.succeed("v")
        sim.run()
        order = []
        ev.add_callback(
            lambda e: ev.add_callback(lambda e2: order.append("second"))
        )
        ev.add_callback(lambda e: order.append("first"))
        sim.run()
        assert order == ["first", "second"]


class TestRunUntilEventEdges:
    def test_limit_exactly_at_event_time_still_runs(self, sim):
        """The limit bounds simulation time inclusively: an event due at
        exactly ``limit`` fires rather than raising."""
        ev = sim.event()
        sim.schedule(5.0, ev.succeed, "x")
        assert sim.run_until_event(ev, limit=5.0) == "x"
        assert sim.now == 5.0

    def test_event_fails_while_queue_nonempty(self, sim):
        """A failure surfaces immediately; later queue entries stay put."""
        ev = sim.event()
        later = []
        sim.schedule(1.0, ev.fail, ValueError("boom"))
        sim.schedule(10.0, later.append, "later")
        with pytest.raises(ValueError, match="boom"):
            sim.run_until_event(ev)
        assert later == []
        assert sim.peek() == 10.0

    def test_interrupt_detach_races_pending_resume(self, sim):
        """An interrupt landing between a process's late registration on a
        fired event and that event's late delivery must detach the stale
        ``_resume`` — re-waiting on the same event then wakes exactly once,
        at the already-queued delivery slot."""
        ev = sim.event()
        log = []
        handle = {}

        def waiter():
            yield sim.timeout(0.1)
            log.append("woke")
            try:
                value = yield ev  # long fired -> late registration
                log.append(("value", value))
            except Interrupt:
                log.append("interrupted")
                value = yield ev  # re-wait on the same fired event
                log.append(("re-value", value, sim.now))

        def controller():
            yield sim.timeout(0.1)
            # This entry was queued before the waiter's wakeup at the
            # same instant, so interrupt *delivery* (one slot later)
            # lands after the waiter has parked on the fired event but
            # before its late batch delivers — the race under test.
            handle["p"].interrupt("race")

        ev.succeed("v")
        sim.run(until=0.4)
        sim.process(controller(), name="controller")
        handle["p"] = sim.process(waiter(), name="waiter")
        sim.run()
        assert log == ["woke", "interrupted", ("re-value", "v", 0.5)]
        assert ev._late is None  # the late batch fully drained


class TestPooledSleep:
    """A pacing process's later timeouts behave as its first one did.

    These rows once covered the pooled ``sleep`` fast path, which handed a
    recycled ``Timeout`` to every wake-up after the first.  The pool is gone,
    so they now check the plain ``sim.timeout`` on that same path.
    """

    def test_sleep_value_passthrough(self, sim):
        values = []

        def proc():
            values.append((yield sim.timeout(0.1, value="tick")))
            values.append((yield sim.timeout(0.1, value="tock")))

        sim.process(proc())
        sim.run()
        assert values == ["tick", "tock"]

    def test_sleep_negative_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-0.1)

        def one_sleep():
            yield sim.timeout(0.1)

        # Also once an earlier timeout has fired and been released.
        run_process(sim, one_sleep())
        with pytest.raises(ValueError):
            sim.timeout(-0.1)
