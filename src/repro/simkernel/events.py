"""One-shot events, cancellable scheduled callbacks, and the batchable
handler protocol used by epoch-grouped dispatch."""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Event", "EventAlreadyTriggered", "ScheduledCallback", "batch_dispatch"]


def batch_dispatch(scalar_handler: Callable, batch_handler: Callable) -> Callable:
    """Register ``batch_handler`` as the epoch-batch form of a method.

    The event loop groups *consecutive* ready entries whose callbacks
    are bound methods of the same underlying function on the same
    receiver, and calls ``batch_handler(receiver, entries)`` once
    instead of N scalar callbacks (``entries`` are the grouped
    :class:`ScheduledCallback` objects; each entry's ``args`` carries
    the scalar call's arguments).

    The contract: the batch form must be observationally identical to
    running the scalar handler once per entry — same state transitions,
    same scheduled follow-ups, same float arithmetic where results feed
    recorded fingerprints.  Grouping never spans a differently-bound
    entry, so interleaved callbacks observe exactly the intermediate
    state scalar dispatch would have produced.

    Both arguments are plain functions (apply to the class attribute,
    not a bound method).  Returns ``scalar_handler`` so the call can be
    used as a post-class-body registration statement.
    """
    scalar_handler._batch_dispatch = batch_handler
    return scalar_handler


class EventAlreadyTriggered(RuntimeError):
    """Raised when succeeding or failing an event twice."""


class ScheduledCallback:
    """A heap entry: callback at a simulated time, cancellable in O(1).

    The heap orders entries by the ``(time, seq)`` key it stores beside
    them, so entries themselves are never compared; ``seq`` breaks ties
    FIFO within a timestamp, which keeps runs deterministic.

    Cancellation marks the entry; the event loop skips cancelled entries
    when they surface, avoiding O(n) heap surgery.  The owning simulation
    keeps an O(1) live-entry counter, so cancellation notifies it exactly
    once — double cancels and cancels after execution are no-ops.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "executed", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., None],
        args: tuple,
        sim: "Simulation | None" = None,  # noqa: F821 - circular hint
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.executed = False
        self._sim = sim

    def cancel(self) -> None:
        if self.cancelled or self.executed:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<ScheduledCallback t={self.time:.6f}{state} {self.callback!r}>"


class Event:
    """A one-shot event that processes can wait on.

    An event is *triggered* exactly once via :meth:`succeed` (or
    :meth:`fail` with an exception); callbacks registered before the
    trigger run at trigger time, callbacks registered after run
    immediately.

    Failures must be *retrieved* — by a callback registered before or
    after the trigger, or by reading :attr:`exception` — otherwise the
    simulation reports them when its queue drains (mirroring asyncio's
    "exception was never retrieved").

    Events created by :meth:`Simulation.timeout` carry the pending
    trigger's scheduled-callback handle and can be :meth:`cancel`-led.
    """

    __slots__ = ("sim", "_callbacks", "_triggered", "value", "_exception", "_handle", "_retrieved")

    def __init__(self, sim: "Simulation") -> None:  # noqa: F821 - circular hint
        self.sim = sim
        self._callbacks: list[Callable[[Event], None]] = []
        self._triggered = False
        self.value: Any = None
        self._exception: BaseException | None = None
        #: Pending trigger handle (set by Simulation.timeout) — lets the
        #: event be cancelled in O(1) before it fires.
        self._handle: ScheduledCallback | None = None
        self._retrieved = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exception is None

    @property
    def exception(self) -> BaseException | None:
        """The failure exception (None if pending or succeeded).

        Reading it counts as retrieving the failure: the caller has seen
        the exception, so drain-time unhandled-failure detection skips
        this event.
        """
        self._retrieved = True
        return self._exception

    @property
    def cancelled(self) -> bool:
        """True when :meth:`cancel` dropped the pending trigger."""
        return self._handle is not None and self._handle.cancelled

    def cancel(self) -> None:
        """Drop the pending scheduled trigger (timeout events only).

        O(1) and idempotent; a no-op once the event has triggered.  The
        event then never triggers, so waiting callbacks never run.
        Events with no pending trigger handle cannot be cancelled.
        """
        if self._triggered:
            return
        if self._handle is None:
            raise RuntimeError(f"{self!r} has no pending trigger to cancel")
        self._handle.cancel()

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self._triggered:
            self._retrieved = True
            fn(self)
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} was already triggered")
        self._triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._triggered:
            raise EventAlreadyTriggered(f"{self!r} was already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._triggered = True
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        if callbacks:
            self._retrieved = True
            for fn in callbacks:
                fn(self)
        else:
            # Nobody is listening: remember the failure so the loop can
            # report it at drain time unless someone retrieves it first.
            self.sim._note_unhandled_failure(self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {state} at {id(self):#x}>"
