"""Module-level jobs for the ``SweepExecutor`` process-pool tests.

Kept free of ``repro`` imports so a spawned worker that unpickles them
starts in a fraction of the time a scenario worker needs.
"""

from __future__ import annotations

import os
import time

#: Per-job sleep of the work-dominated grid: seven of them repay a pool's
#: start-up many times over, whatever the CPU speed.
SLEEP_S = 0.6


def sleep_job(i: int) -> int:
    time.sleep(SLEEP_S)
    return i


def pid_job(_: object) -> int:
    return os.getpid()


def first_slow_job(i: int) -> int:
    """Job 0 pays a one-off cost, like a lazy import; the rest are free."""
    if i == 0:
        time.sleep(SLEEP_S)
    return i
