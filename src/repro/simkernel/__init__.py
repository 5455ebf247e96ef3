"""A small discrete-event simulation kernel.

Provides the event loop, one-shot events, timeouts, and generator-based
processes that the storage/container/workload substrates are built on.
One epoch-batched heap loop executes callbacks in exact ``(time, seq)``
order — cancellable scheduled callbacks, deterministic FIFO tie-breaking
at equal timestamps — so every experiment is bit-reproducible for a
given seed.
"""

from repro.simkernel.sim import (
    SimError,
    Simulation,
    UnhandledFailureWarning,
    tick_time,
)
from repro.simkernel.events import (
    Event,
    EventAlreadyTriggered,
    ScheduledCallback,
    batch_dispatch,
)
from repro.simkernel.process import Process, Timeout, Interrupt

__all__ = [
    "Simulation",
    "SimError",
    "UnhandledFailureWarning",
    "tick_time",
    "Event",
    "EventAlreadyTriggered",
    "ScheduledCallback",
    "batch_dispatch",
    "Process",
    "Timeout",
    "Interrupt",
]
