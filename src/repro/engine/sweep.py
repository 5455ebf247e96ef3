"""``SweepExecutor``: order-preserving fan-out over scenario config grids.

Every sweep in the repository except Fig. 16 used to run serially; this
generalizes Fig. 16's ad-hoc ``mp.Pool`` into one executor the figure
grids, replication statistics, and any future sweep share:

* ``map(fn, items)`` — order-preserving map that runs in this process
  or in a process pool, whichever the measured work pays for; both run
  the same job function, so the output is element-for-element identical
  either way;
* ``run_scenarios(configs)`` — one :func:`run_scenario` per config,
  reduced to a picklable :class:`ScenarioSummary` (a full
  ``ScenarioResult`` holds the simulation object graph and cannot cross
  a process boundary).

Workers are separate OS processes (``spawn`` context, mirroring the
paper's per-node isolation), so runs share no state and determinism is
free: the same config and seed produce the same summary wherever they
execute.

Running serially is a measured decision, not just the ``workers=1``
default.  A fresh ``spawn`` worker needs about a second before its
first result (interpreter start-up plus the ``repro`` imports), which
dwarfs a small grid's cell work.  So a parallel ``map`` without a warm
pool first runs job 0 in this process and times it, and starts a pool
for the rest only if that time projects a saving above the start-up
cost (:data:`_POOL_START_S`).

The pool is **warm**: once started, later calls reuse it without
re-deciding, so a loop of maps (a figure running several grids back to
back) pays worker start-up once.  Use the executor as a context manager
— or call :meth:`close` — to reclaim the workers; an unclosed executor
tears its pool down on garbage collection.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs import OBS

__all__ = [
    "ScenarioSummary",
    "SweepExecutor",
    "summarize_result",
    "resolve_workers",
    "WORKERS_ENV",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


#: Environment override capping every resolved worker count.  CI and the
#: cluster runner set this to bound parallelism globally instead of
#: threading a ``--workers`` flag through every CLI entry point.
WORKERS_ENV = "REPRO_WORKERS"


def _workers_cap() -> int | None:
    """The ``REPRO_WORKERS`` cap, or None when unset/empty."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or raw.strip() == "":
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if cap < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {raw!r}")
    return cap


#: Wall seconds a fresh ``spawn`` pool costs before its first result,
#: beyond the job itself.  Measured as ``Pool(processes=2)`` through the
#: first ``apply`` of a one-step ``run_scenario`` job, minus the same job
#: run in an already-warm process with the memo cleared: 0.87–0.94 s over
#: 5 runs on a 2-vCPU x86-64 Linux host (Python 3.11), most of it
#: interpreter start-up and ``import repro.experiments.runner``.
_POOL_START_S = 0.9


def _usable_cpus() -> int:
    """CPUs this process may run on: what ``workers="auto"`` resolves to."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a worker count: ``None``/1 → serial, ``"auto"`` → CPUs.

    The ``REPRO_WORKERS`` environment variable, when set, caps the
    result (explicit counts included), so an operator can bound
    parallelism for a whole run without touching call sites.
    """
    if workers is None:
        n = 1
    elif workers == "auto":
        n = _usable_cpus()
    else:
        n = int(workers)
        if n < 1:
            raise ValueError(f"workers must be >= 1 or 'auto', got {workers!r}")
    cap = _workers_cap()
    return n if cap is None else min(n, cap)


@dataclass(frozen=True)
class ScenarioSummary:
    """The picklable part of a :class:`ScenarioResult` that sweeps report.

    Field values match the result's properties exactly (same reductions
    over the same records), so aggregating summaries reproduces what the
    serial figure code computed from full results bit for bit.
    ``mean_outcome_error`` is ``None`` unless the sweep asked for it —
    outcome errors reconstruct the field per rung, which most sweeps
    don't need.
    """

    config: object
    num_records: int
    mean_io_time: float
    std_io_time: float
    mean_target_rung: float
    final_time: float
    mean_outcome_error: float | None = None


def summarize_result(result, *, outcome_error: bool = False) -> ScenarioSummary:
    """Reduce a ``ScenarioResult`` to its sweep-reportable summary."""
    return ScenarioSummary(
        config=result.config,
        num_records=len(result.records),
        mean_io_time=result.mean_io_time,
        std_io_time=result.std_io_time,
        mean_target_rung=result.mean_target_rung,
        final_time=result.final_time,
        mean_outcome_error=result.mean_outcome_error if outcome_error else None,
    )


def _run_scenario_job(job) -> ScenarioSummary:
    """Worker entry point; module-level so it pickles for the pool."""
    config, placement, outcome_error = job
    from repro.experiments.runner import run_scenario

    result = run_scenario(config, placement=placement)
    return summarize_result(result, outcome_error=outcome_error)


class SweepExecutor:
    """Order-preserving map over sweep jobs, in-process or in a process pool.

    ``workers`` is the most processes a map may use: 1 (the default)
    runs serially in-process, ``"auto"`` allows every available CPU.
    Results always come back in input order regardless of completion
    order, and every path runs the exact same job function — a parallel
    sweep is element-for-element identical to a serial one.

    With ``workers > 1`` the pool is created lazily, by the first ``map``
    whose timed first job shows that the remaining jobs pay for it (see
    :meth:`map`); a map that does not runs entirely in this process.
    Once created the pool stays warm for subsequent calls
    (``pool_creations`` counts spawns, so tests can pin the reuse).
    :meth:`close` — or exiting the executor's ``with`` block — reclaims
    the workers.
    """

    def __init__(
        self,
        workers: int | str | None = 1,
        *,
        mp_context: str = "spawn",
        chunksize: int | None = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.mp_context = mp_context
        self.chunksize = chunksize
        self._pool = None
        #: Number of times a process pool has been spawned; a loop of
        #: ``map`` calls over one executor keeps this at 1.
        self.pool_creations = 0

    @property
    def is_parallel(self) -> bool:
        return self.workers > 1

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = mp.get_context(self.mp_context).Pool(processes=self.workers)
            self.pool_creations += 1
        return self._pool

    def close(self) -> None:
        """Tear down the warm pool (idempotent; a later map respawns it)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Apply ``fn`` to every item, preserving input order.

        With ``workers > 1``, at least two jobs and no warm pool, job 0
        runs here and is timed (``t0``).  The ``r`` jobs left go to a new
        pool only if ``(r − ⌈r/W⌉)·t0 > _POOL_START_S``, the time ``W =
        min(workers, r, usable CPUs)`` processes would save over running
        them here; otherwise they run here too.  A warm pool takes every
        job, since its start-up is already paid.

        With telemetry on, the ``sweep.maps`` counter records the path
        taken (``path=serial|pool``) and the ``sweep.first_job_s`` gauge
        the timed first job.  Jobs that run in this process record their
        own simulation metrics exactly like a ``workers=1`` run; pooled
        jobs record theirs in the workers, where they are not collected.
        """
        jobs = list(items)
        first_s = None
        if self.workers <= 1 or len(jobs) <= 1:
            out, path = [fn(job) for job in jobs], "serial"
        elif self._pool is not None:
            out, path = self._pool_map(fn, jobs), "pool"
        else:
            t0 = time.perf_counter()
            out = [fn(jobs[0])]
            first_s = time.perf_counter() - t0
            rest = jobs[1:]
            if self._pool_pays(first_s, len(rest)):
                out += self._pool_map(fn, rest)
                path = "pool"
            else:
                out += [fn(job) for job in rest]
                path = "serial"
        if OBS.enabled:
            OBS.registry.counter("sweep.maps").inc(path=path)
            if first_s is not None:
                OBS.registry.gauge("sweep.first_job_s").set(first_s)
        return out

    def _pool_pays(self, job_s: float, remaining: int) -> bool:
        """Whether ``remaining`` jobs of ``job_s`` each repay a pool's start-up."""
        procs = min(self.workers, remaining, _usable_cpus())
        saved = (remaining - math.ceil(remaining / procs)) * job_s
        return saved > _POOL_START_S

    def _pool_map(self, fn: Callable[[_T], _R], jobs: list[_T]) -> list[_R]:
        procs = min(self.workers, len(jobs))
        chunksize = self.chunksize or max(1, len(jobs) // (procs * 2))
        return self._ensure_pool().map(fn, jobs, chunksize=chunksize)

    def run_scenarios(
        self,
        configs: Sequence,
        *,
        placement: str = "level",
        outcome_error: bool = False,
    ) -> list[ScenarioSummary]:
        """Run one scenario per config; summaries come back in config order."""
        return self.map(
            _run_scenario_job, [(cfg, placement, outcome_error) for cfg in configs]
        )
