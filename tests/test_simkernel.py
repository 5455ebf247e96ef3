"""Tests for repro.simkernel — the discrete-event engine."""

import random
import warnings

import pytest

from repro.simkernel import (
    EventAlreadyTriggered,
    Interrupt,
    Process,
    SimError,
    Simulation,
    Timeout,
    UnhandledFailureWarning,
    tick_time,
)


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callbacks_run_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_at_equal_times(self, sim):
        order = []
        for tag in "abc":
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_callback_time(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.schedule_at(1.0, lambda: None)

    def test_cancel(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_pending_count_skips_cancelled(self, sim):
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h1.cancel()
        assert sim.pending_count == 1

    def test_nested_scheduling(self, sim):
        seen = []
        def outer():
            seen.append(("outer", sim.now))
            sim.schedule(1.0, inner)
        def inner():
            seen.append(("inner", sim.now))
        sim.schedule(1.0, outer)
        sim.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]


class TestRunUntil:
    def test_stops_before_future_events(self, sim):
        fired = []
        sim.schedule(10.0, fired.append, 1)
        sim.run(until=5.0)
        assert fired == [] and sim.now == 5.0

    def test_future_events_survive(self, sim):
        fired = []
        sim.schedule(10.0, fired.append, 1)
        sim.run(until=5.0)
        sim.run()
        assert fired == [1]

    def test_until_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.run(until=1.0)


class TestEpochOrdering:
    def test_exponential_gaps_drain_in_time_order(self, sim):
        """Exponentially growing gaps: every entry runs, in time order."""
        trace = []
        t = 0.001
        for i in range(120):
            sim.schedule_at(t, lambda i=i: trace.append((sim.now, i)))
            t *= 1.7
        sim.run()
        assert trace == sorted(trace)
        assert [i for _, i in trace] == list(range(120))
        assert sim.events_executed == 120

    def test_same_instant_schedules_join_the_epoch(self, sim):
        """A zero-delay schedule during a drain runs in the same epoch."""
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, order.append, "chained")

        sim.schedule(1.0, first)
        sim.schedule(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "chained"]
        assert sim.epochs_executed == 1

    def test_random_churn_runs_live_entries_in_time_seq_order(self, sim):
        """Seeded churn: duplicate timestamps, nested same-instant
        schedules, cancels past the compaction trigger, and
        ``run(until=)`` landing both on and between timestamps.  Exactly
        the never-cancelled entries run, in ``(time, seq)`` order."""
        rng = random.Random(17)
        handles = []
        executed = []

        def next_live_time():
            live = [h for h in handles if not (h.cancelled or h.executed)]
            return min((h.time, h.seq) for h in live)[0] if live else float("inf")

        def add(delay):
            handles.append(sim.schedule(delay, fire, len(handles)))

        def fire(i):
            executed.append(handles[i])
            if len(handles) < 1500:
                roll = rng.random()
                if roll < 0.3:
                    add(0.0)  # joins the epoch being drained
                elif roll < 0.5:
                    add(rng.randrange(8) * 0.25)
            if rng.random() < 0.3:
                rng.choice(handles).cancel()  # a no-op once run or cancelled

        for _ in range(600):
            add(rng.randrange(40) * 0.25)  # ~15 entries per timestamp
        for h in rng.sample(handles, 400):
            h.cancel()
        assert sim.kernel_stats()["compactions"] >= 1
        while sim.pending_count:
            t = next_live_time()
            sim.run(until=t + rng.choice((0.0, 0.1, 0.25, 1.0)))

        live = [h for h in handles if not h.cancelled]
        assert executed == sorted(live, key=lambda h: (h.time, h.seq))
        assert sim.events_executed == len(live)
        assert sim._queue_len() == 0

    def test_kernel_stats_keys(self, sim):
        """Keys read by the benchmark's span tracer (``bench/spans.py``)."""
        sim.schedule(1.0, lambda: None).cancel()
        sim.schedule(1.0, lambda: None)
        sim.run()
        stats = sim.kernel_stats()
        assert {"executed", "epochs", "group_calls", "cancels"} <= stats.keys()
        assert stats["executed"] == 1
        assert stats["epochs"] == 1
        assert stats["cancels"] == 1


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed("payload")
        assert got == ["payload"] and ev.ok

    def test_late_callback_fires_immediately(self, sim):
        ev = sim.event().succeed(7)
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        assert got == [7]

    def test_double_trigger_rejected(self, sim):
        ev = sim.event().succeed()
        with pytest.raises(EventAlreadyTriggered):
            ev.succeed()
        with pytest.raises(EventAlreadyTriggered):
            ev.fail(RuntimeError("x"))

    def test_fail_records_exception(self, sim):
        ev = sim.event()
        exc = RuntimeError("boom")
        ev.fail(exc)
        assert ev.triggered and not ev.ok and ev.exception is exc

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_timeout_event(self, sim):
        ev = sim.timeout(4.0, "done")
        sim.run()
        assert ev.triggered and ev.value == "done" and sim.now == 4.0


class TestProcesses:
    def test_timeout_sequencing(self, sim):
        trace = []
        def proc():
            trace.append(sim.now)
            yield Timeout(2.0)
            trace.append(sim.now)
            yield Timeout(3.0)
            trace.append(sim.now)
        sim.process(proc())
        sim.run()
        assert trace == [0.0, 2.0, 5.0]

    def test_result_captured(self, sim):
        def proc():
            yield Timeout(1.0)
            return 42
        p = sim.process(proc())
        sim.run()
        assert p.result == 42 and not p.is_alive

    def test_wait_on_event_gets_value(self, sim):
        ev = sim.event()
        got = []
        def waiter():
            val = yield ev
            got.append((sim.now, val))
        sim.process(waiter())
        sim.schedule(3.0, ev.succeed, "x")
        sim.run()
        assert got == [(3.0, "x")]

    def test_wait_on_process(self, sim):
        def child():
            yield Timeout(5.0)
            return "child-result"
        def parent():
            result = yield sim.process(child())
            return (sim.now, result)
        p = sim.process(parent())
        sim.run()
        assert p.result == (5.0, "child-result")

    def test_failed_event_raises_inside(self, sim):
        ev = sim.event()
        caught = []
        def proc():
            try:
                yield ev
            except RuntimeError as e:
                caught.append(str(e))
        sim.process(proc())
        sim.schedule(1.0, ev.fail, RuntimeError("io error"))
        sim.run()
        assert caught == ["io error"]

    def test_interrupt_cancels_timeout(self, sim):
        trace = []
        def sleeper():
            try:
                yield Timeout(100.0)
                trace.append("woke")
            except Interrupt as i:
                trace.append(f"interrupted:{i.cause}")
        p = sim.process(sleeper())
        sim.schedule(1.0, p.interrupt, "shutdown")
        sim.run()
        assert trace == ["interrupted:shutdown"]
        assert sim.now < 100.0

    def test_unhandled_interrupt_terminates(self, sim):
        def sleeper():
            yield Timeout(100.0)
        p = sim.process(sleeper())
        sim.schedule(1.0, p.interrupt)
        sim.run()
        assert not p.is_alive

    def test_interrupt_dead_process_rejected(self, sim):
        def quick():
            yield Timeout(0.0)
        p = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)

    def test_yield_garbage_raises_inside(self, sim):
        errors = []
        def proc():
            try:
                yield 12345
            except TypeError as e:
                errors.append("caught")
        sim.process(proc())
        sim.run()
        assert errors == ["caught"]

    def test_timeout_negative_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1.0)

    def test_process_waitable_via_callback(self, sim):
        def quick():
            yield Timeout(1.0)
            return "ok"
        p = sim.process(quick())
        got = []
        p.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == ["ok"]


class TestLiveCounter:
    """pending_count is a maintained counter, not a heap scan."""

    def test_counts_schedule_and_run(self, sim):
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        assert sim.pending_count == 3
        sim.run(until=2.0)
        assert sim.pending_count == 1
        sim.run()
        assert sim.pending_count == 0

    def test_double_cancel_counts_once(self, sim):
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        h.cancel()
        assert sim.pending_count == 1

    def test_cancel_after_execution_is_noop(self, sim):
        fired = []
        h = sim.schedule(1.0, fired.append, 1)
        sim.run()
        assert fired == [1]
        h.cancel()  # must not drive the counter negative
        assert sim.pending_count == 0
        sim.schedule(5.0, lambda: None)
        assert sim.pending_count == 1

    def test_counter_tracks_nested_scheduling(self, sim):
        def outer():
            sim.schedule(1.0, lambda: None)
            sim.schedule(2.0, lambda: None)

        sim.schedule(1.0, outer)
        assert sim.pending_count == 1
        sim.run(until=1.5)
        assert sim.pending_count == 2
        sim.run()
        assert sim.pending_count == 0

    def test_run_skips_cancelled_without_executing(self, sim):
        fired = []
        handles = [sim.schedule(float(t), fired.append, t) for t in range(1, 6)]
        for h in handles[::2]:
            h.cancel()
        sim.run()
        assert fired == [2, 4]
        assert sim.pending_count == 0


class TestLazyCancelCompaction:
    """Cancelled entries must not accumulate in the physical queue.

    Regression for the lazy-cancellation heap leak: a workload that
    schedules and immediately cancels (retry deadlines, watchdogs) used
    to grow the queue without bound because cancelled entries were only
    dropped when they surfaced at the head — arbitrarily late for
    far-future deadlines.
    """

    def test_queue_length_bounded_under_cancel_churn(self, sim):
        for t in range(1, 6):
            sim.schedule(1000.0 + t, lambda: None)
        for _ in range(5000):
            sim.schedule(500.0, lambda: None).cancel()
        assert sim.pending_count == 5
        # Compaction keeps the physical queue bounded by its trigger,
        # far below the 5000 cancels issued.
        assert sim._queue_len() <= 200

    def test_invariants_after_compaction(self, sim):
        live = [sim.schedule(float(t), lambda: None) for t in range(1, 21)]
        doomed = [sim.schedule(100.0, lambda: None) for _ in range(300)]
        for h in doomed:
            h.cancel()
        assert sim.pending_count == 20
        assert sim.kernel_stats()["compactions"] >= 1
        sim.run()
        assert sim.events_executed == 20
        assert sim.pending_count == 0
        assert sim._queue_len() == 0
        assert all(h.executed for h in live)

    def test_counters_survive_compaction(self, sim):
        fired = []
        for t in range(1, 11):
            sim.schedule(float(t), fired.append, t)
        for h in [sim.schedule(50.0, lambda: None) for _ in range(300)]:
            h.cancel()
        assert sim.kernel_stats()["compactions"] >= 1
        assert sim.pending_count == 10
        sim.run()
        assert fired == list(range(1, 11))
        assert sim.events_executed == 10
        assert sim.pending_count == 0
        assert sim._queue_len() == 0

    def test_cancel_inside_ready_batch(self, sim):
        """A callback cancelling a same-timestamp sibling must win."""
        fired = []
        handles = {}

        def killer():
            fired.append("killer")
            handles["victim"].cancel()

        sim.schedule(1.0, killer)
        handles["victim"] = sim.schedule(1.0, fired.append, "victim")
        sim.run()
        assert fired == ["killer"]
        assert sim.pending_count == 0


class TestTickTime:
    """tick_time computes periodic instants without cumulative drift."""

    def test_fused_multiply_identity(self):
        assert tick_time(2.0, 7, 0.25) == 2.0 + 7 * 0.25
        assert tick_time(0.0, 0, 0.1) == 0.0

    def test_beats_accumulation_drift(self):
        # Repeated += of 0.1 drifts off the grid; the fused form stays
        # within one rounding of the exact product.
        acc = 5.0
        for _ in range(1000):
            acc += 0.1
        assert abs(tick_time(5.0, 1000, 0.1) - 105.0) <= abs(acc - 105.0)
        assert tick_time(5.0, 1000, 0.1) == 5.0 + 1000 * 0.1


class TestUnhandledFailures:
    """Event.fail() with nobody listening is reported at drain time."""

    def test_unretrieved_failure_warns_at_drain(self, sim):
        sim.schedule(1.0, lambda: sim.event().fail(RuntimeError("lost")))
        with pytest.warns(UnhandledFailureWarning, match="never retrieved"):
            sim.run()

    def test_callback_at_fail_time_retrieves(self, sim):
        ev = sim.event()
        ev.add_callback(lambda e: None)
        sim.schedule(1.0, ev.fail, RuntimeError("handled"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.run()

    def test_reading_exception_retrieves(self, sim):
        ev = sim.event()
        sim.schedule(1.0, ev.fail, RuntimeError("seen"))
        sim.schedule(2.0, lambda: ev.exception)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.run()

    def test_late_callback_retrieves(self, sim):
        ev = sim.event()
        sim.schedule(1.0, ev.fail, RuntimeError("late"))
        sim.schedule(2.0, ev.add_callback, lambda e: None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.run()

    def test_process_yield_retrieves(self, sim):
        ev = sim.event()

        def proc():
            try:
                yield ev
            except RuntimeError:
                pass

        sim.process(proc())
        sim.schedule(1.0, ev.fail, RuntimeError("io error"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sim.run()

    @pytest.mark.parametrize("option", ["kernel", "dispatch"])
    def test_removed_options_rejected(self, option):
        with pytest.raises(TypeError):
            Simulation(**{option: "heap"})


class TestTimeoutCancel:
    """Simulation.timeout returns a cancellable event."""

    def test_cancel_drops_pending_trigger(self, sim):
        fired = []
        ev = sim.timeout(5.0, "late")
        ev.add_callback(lambda e: fired.append(e.value))
        ev.cancel()
        sim.run()
        assert fired == []
        assert not ev.triggered
        assert ev.cancelled
        assert sim.pending_count == 0

    def test_cancel_is_idempotent(self, sim):
        ev = sim.timeout(5.0)
        ev.cancel()
        ev.cancel()
        assert sim.pending_count == 0

    def test_cancel_after_trigger_is_noop(self, sim):
        ev = sim.timeout(1.0, "done")
        sim.run()
        ev.cancel()
        assert ev.triggered and ev.value == "done"

    def test_plain_event_cancel_rejected(self, sim):
        with pytest.raises(RuntimeError):
            sim.event().cancel()
