"""The event loop: epoch-batched execution over a binary heap.

A ``heapq`` future-event list of ``(time, seq, entry)`` tuples is
drained **one epoch at a time**: every live entry sharing the minimum
timestamp is popped into a flat ready batch and dispatched in one pass.
``seq`` is unique, so the heap's comparisons run as C tuple compares
and never call back into Python.  Same-timestamp traffic — process
resumes, sampler ticks, retry timers — never touches the heap at all:
a callback scheduling at the current instant appends straight to the
draining batch.  Live entries execute in exactly ``(time, seq)`` order,
so same-seed runs are bit-identical (pinned by the recorded
fingerprints in ``tests/test_engine.py``).

Within an epoch, consecutive entries bound to the same batchable handler
on the same receiver are delivered in one call (see
:func:`repro.simkernel.events.batch_dispatch` and
:meth:`Simulation._dispatch_group`).

Cancellation is lazy (O(1) ``ScheduledCallback.cancel``) and the heap
is **compacted** when cancelled entries pile up, so schedule-and-cancel
churn (retry-heavy fault campaigns) cannot grow it unboundedly.

Failures that nothing observes are detected at drain time: an
:meth:`~repro.simkernel.events.Event.fail` whose exception is never
retrieved warns when the loop drains — mirroring asyncio's "exception
was never retrieved".
"""

from __future__ import annotations

import heapq
import warnings
from typing import Any, Callable, Generator

from repro.obs import OBS
from repro.simkernel.events import Event, ScheduledCallback

__all__ = [
    "Simulation",
    "SimError",
    "UnhandledFailureWarning",
    "tick_time",
]


class SimError(RuntimeError):
    """Raised for simulation-kernel usage errors."""


class UnhandledFailureWarning(RuntimeWarning):
    """Warned at drain time when event failures were never retrieved."""


def tick_time(start: float, n: int, period: float) -> float:
    """Absolute time of the ``n``-th tick of a periodic series.

    ``start + n * period`` evaluated fresh per tick (two roundings total)
    instead of ``n`` accumulated additions, so tick ``n`` of a
    non-representable period (0.1, 1/3, ...) lands exactly on
    ``start + n * period`` rather than at ``t ± n·ulp`` — float drift
    that would silently defeat same-timestamp coalescing of ticks meant
    to coincide.  Monotone in ``n`` for ``period >= 0``.
    """
    return start + n * period


#: Compaction trigger: lazily-cancelled entries must number at least this
#: many *and* be at least half the queue before a rebuild pays off.
_COMPACT_MIN_CANCELLED = 64


class Simulation:
    """A discrete-event simulation: a clock plus a queue of callbacks.

    Time is a float in seconds.  ``schedule`` returns a cancellable
    handle.  Generator-based processes are started with :meth:`process`;
    see :class:`repro.simkernel.process.Process`.

    A drained epoch reaches its handlers through grouped dispatch:
    consecutive ready entries bound to the same batchable handler on the
    same receiver are handed to the handler's batch form in one call.
    Batch handlers are required to be observationally identical to their
    scalar form (grouping only spans *consecutive* entries, so any
    interleaved callback observes exactly the state per-entry dispatch
    would have produced); the test suite checks this against a subclass
    that dispatches every entry on its own.

    When the loop drains with event failures nothing ever retrieved, it
    warns with an :class:`UnhandledFailureWarning`.
    """

    def __init__(self) -> None:
        #: Current simulated time (seconds).  A plain attribute, not a
        #: property: it is read on every schedule/dispatch and the
        #: descriptor overhead is measurable.  Treat as read-only.
        self.now = 0.0
        self._seq = 0
        #: Live (scheduled, neither cancelled nor executed) entry count,
        #: maintained incrementally so ``pending_count`` is O(1).
        self._live = 0
        #: Total callbacks executed (cancelled entries excluded) — the
        #: denominator-free throughput figure the scenario benchmarks
        #: report as events/sec.
        self._executed = 0
        #: Lazy-cancellation accounting: ``_cancels`` counts cancel()
        #: notifications, ``_discards`` counts cancelled entries
        #: physically dropped; the difference is what still occupies the
        #: queue and drives compaction.
        self._cancels = 0
        self._discards = 0
        self._compactions = 0
        # Epoch-batching state: ``_ready`` holds the current epoch's
        # batch, ``_ready_idx`` the next entry to dispatch,
        # ``_dispatching`` is True while a callback runs so
        # schedule-at-now can append straight to the batch.  Heap items
        # are ``(time, seq, entry)``: ``seq`` is unique, so every heapq
        # comparison is a C tuple compare that never reaches the entry.
        self._heap: list[tuple[float, int, ScheduledCallback]] = []
        self._ready: list[ScheduledCallback] = []
        self._ready_idx = 0
        self._dispatching = False
        self._epochs = 0
        self._batched = 0
        self._max_batch = 0
        # Grouped-dispatch accounting: calls to batch handlers and
        # entries delivered through them.
        self._group_calls = 0
        self._grouped_events = 0
        # Unhandled-failure detection (see events.Event.fail).
        self._unhandled: list[Event] = []

    # -- scheduling -----------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledCallback:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        # schedule_at's body, inlined: this is the hottest kernel entry
        # point (every process resume and device timer lands here).
        time = self.now + delay
        seq = self._seq
        entry = ScheduledCallback(time, seq, callback, args, self)
        self._seq = seq + 1
        self._live += 1
        if self._dispatching and time == self.now:
            self._ready.append(entry)
        else:
            heapq.heappush(self._heap, (time, seq, entry))
        return entry

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> ScheduledCallback:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise SimError(f"cannot schedule at {time} < now ({self.now})")
        seq = self._seq
        entry = ScheduledCallback(time, seq, callback, args, self)
        self._seq = seq + 1
        self._live += 1
        if self._dispatching and time == self.now:
            # Epoch fast path: a same-timestamp schedule joins the batch
            # being drained (its seq exceeds everything already there, so
            # append order IS execution order) — no heap traffic at all.
            self._ready.append(entry)
        else:
            heapq.heappush(self._heap, (time, seq, entry))
        return entry

    def event(self) -> Event:
        """Create a fresh one-shot event bound to this simulation."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """A cancellable event that succeeds ``delay`` seconds from now.

        ``Event.cancel()`` drops the pending trigger in O(1), so retry
        deadlines and watchdogs that turn out unneeded do not linger as
        live entries in the queue.
        """
        ev = self.event()
        ev._handle = self.schedule(delay, ev.succeed, value)
        return ev

    def process(self, generator: Generator) -> "Process":  # noqa: F821
        """Start a generator-based process; returns its Process handle."""
        from repro.simkernel.process import Process

        return Process(self, generator)

    # -- lazy-cancellation bookkeeping ------------------------------------

    def _note_cancel(self, entry: ScheduledCallback) -> None:
        """Called once per ScheduledCallback.cancel(); may compact."""
        self._live -= 1
        self._cancels += 1
        lazy = self._cancels - self._discards
        if lazy >= _COMPACT_MIN_CANCELLED and 2 * lazy >= self._queue_len():
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries.

        The in-flight epoch batch is left alone (bounded by one epoch's
        size; its cancelled entries fall out on dispatch).
        """
        self._compactions += 1
        heap = self._heap
        live = [item for item in heap if not item[2].cancelled]
        self._discards += len(heap) - len(live)
        heapq.heapify(live)
        self._heap = live

    # -- unhandled-failure detection --------------------------------------

    def _note_unhandled_failure(self, ev: Event) -> None:
        """An Event.fail() ran with no callbacks registered."""
        self._unhandled.append(ev)

    def check_unhandled_failures(self) -> None:
        """Warn for failed events whose exception nobody took.

        Runs automatically when :meth:`run` drains the queue; callers
        that stop early (``until=``) can invoke it explicitly.
        """
        if not self._unhandled:
            return
        pending = [ev for ev in self._unhandled if not ev._retrieved]
        self._unhandled.clear()
        if not pending:
            return
        first = pending[0]._exception
        msg = (
            f"{len(pending)} event failure(s) were never retrieved "
            f"(first: {first!r}); yield the event, register a callback, "
            f"or read .exception"
        )
        warnings.warn(msg, UnhandledFailureWarning, stacklevel=2)

    # -- introspection ----------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of live (non-cancelled) scheduled callbacks.  O(1)."""
        return self._live

    @property
    def events_executed(self) -> int:
        """Total callbacks executed so far (cancelled entries excluded)."""
        return self._executed

    @property
    def epochs_executed(self) -> int:
        """Timestamp batches dispatched so far."""
        return self._epochs

    def kernel_stats(self) -> dict:
        """Counters for observability and the kernel property tests."""
        return {
            "executed": self._executed,
            "live": self._live,
            "epochs": self._epochs,
            "batched_events": self._batched,
            "max_batch": self._max_batch,
            "group_calls": self._group_calls,
            "grouped_events": self._grouped_events,
            "cancels": self._cancels,
            "lazy_cancelled": self._cancels - self._discards,
            "compactions": self._compactions,
            "heap_len": len(self._heap),
        }

    def _queue_len(self) -> int:
        """Entries physically stored (live + lazily cancelled) — tests."""
        return len(self._heap) + len(self._ready) - self._ready_idx

    # -- running -----------------------------------------------------------

    def _pop_epoch(self, until: float | None) -> bool:
        """Move every live entry at the earliest timestamp into ``_ready``.

        ``_ready`` must be empty.  Returns False, leaving the live entries
        queued, when the heap is empty or its earliest live entry lies
        past ``until``.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._discards += 1
        if not heap:
            return False
        t = heap[0][0]
        if until is not None and t > until:
            return False
        ready = self._ready
        ready.append(heapq.heappop(heap)[2])
        while heap and heap[0][0] == t:
            e = heapq.heappop(heap)[2]
            if e.cancelled:
                self._discards += 1
            else:
                ready.append(e)
        self.now = t
        self._epochs += 1
        n = len(ready)
        self._batched += n
        if n > self._max_batch:
            self._max_batch = n
        return True

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or the clock would pass ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return (even if the last event fired earlier), mirroring the
        usual DES convention.

        On a full drain, unretrieved event failures are reported (see
        :meth:`check_unhandled_failures`).
        """
        if until is not None and until < self.now:
            raise SimError(f"until={until} is in the past (now={self.now})")
        self._run(until)
        if until is not None and until > self.now:
            self.now = until
        if self._live == 0:
            self.check_unhandled_failures()
        if OBS.enabled:
            self._publish_obs()
        return self.now

    def _run(self, until: float | None) -> None:
        """Epoch-batched drain: one heap extraction per timestamp.

        All live entries at the minimum time are pulled into ``_ready``
        and dispatched in seq order; callbacks scheduling at the current
        instant append to the batch directly (see :meth:`schedule_at`),
        so same-timestamp cascades cost list appends, not heap churn.
        """
        ready = self._ready
        self._dispatching = True
        try:
            while True:
                idx = self._ready_idx
                if idx >= len(ready):
                    if ready:
                        del ready[:]
                        self._ready_idx = idx = 0
                    if not self._pop_epoch(until):
                        return
                while idx < len(ready):
                    entry = ready[idx]
                    idx += 1
                    self._ready_idx = idx
                    if entry.cancelled:
                        self._discards += 1
                        continue
                    cb = entry.callback
                    f = getattr(cb, "__func__", None)
                    if f is not None:
                        batch_fn = getattr(f, "_batch_dispatch", None)
                        if batch_fn is not None:
                            idx = self._dispatch_group(
                                batch_fn, f, cb.__self__, entry, ready, idx
                            )
                            continue
                    entry.executed = True
                    self._live -= 1
                    self._executed += 1
                    cb(*entry.args)
        finally:
            self._dispatching = False

    def _dispatch_group(
        self,
        batch_fn: Callable,
        func: Callable,
        owner: Any,
        first: ScheduledCallback,
        ready: list[ScheduledCallback],
        idx: int,
    ) -> int:
        """Collect the consecutive run of entries bound to ``func`` on
        ``owner`` and deliver it through ``batch_fn`` in one call.

        Only *consecutive* entries group: the first entry with a
        different handler ends the run, so any interleaved callback
        observes exactly the intermediate state per-entry dispatch would
        have produced.  Cancelled entries inside the run are consumed as
        discards (they are no-ops in per-entry order too).  Every grouped
        entry counts toward ``events_executed``.  Returns the new ready
        index.
        """
        run = [first]
        n = len(ready)
        discards = 0
        while idx < n:
            e = ready[idx]
            if e.cancelled:
                idx += 1
                discards += 1
                continue
            cb = e.callback
            if getattr(cb, "__func__", None) is func and cb.__self__ is owner:
                run.append(e)
                idx += 1
                continue
            break
        self._ready_idx = idx
        if discards:
            self._discards += discards
        k = len(run)
        for e in run:
            e.executed = True
        self._live -= k
        self._executed += k
        self._group_calls += 1
        self._grouped_events += k
        batch_fn(owner, run)
        return idx

    def _publish_obs(self) -> None:
        """Snapshot kernel counters into the metrics registry (run exit)."""
        reg = OBS.registry
        reg.gauge("kernel.events_executed").set(self._executed)
        reg.gauge("kernel.epochs").set(self._epochs)
        reg.gauge("kernel.max_batch").set(self._max_batch)
        reg.gauge("kernel.compactions").set(self._compactions)
