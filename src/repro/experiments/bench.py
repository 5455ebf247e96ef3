"""Headless microbenchmark harness — the perf-regression trajectory.

``pytest-benchmark`` runs (``benchmarks/test_microbench.py``) are great
interactively but leave no machine-readable trail.  This module times the
same core operations with plain ``time.perf_counter`` loops and emits a
single JSON report (``BENCH_micro.json`` at the repo root) carrying
median wall-times plus machine/commit metadata, so successive commits can
be compared without a pytest session.  Drive it via
``benchmarks/run_bench.py`` or ``repro bench``; CI regenerates the report
as a non-blocking artifact.

Two ladder timings matter for the incremental-construction work:

* ``build_ladder_reference_nocache`` — ``method="reference"`` with the
  decomposition's scratch cache deleted before every iteration.  Every
  probe re-runs a full reconstruction + metric pass, which is exactly the
  pre-fastladder cost model; this is the regression baseline.
* ``build_ladder_hybrid`` — the default method in its steady state
  (scratch retained across calls, the pattern sweeps and the memo
  produce).  ``derived.ladder_speedup_default_vs_reference`` is the ratio
  of the two medians and is expected to stay ≥ 5.

Scenario-level benchmarks (schema ≥ 2) time the discrete-event substrate
itself rather than the ladder math:

* ``scenario_fig07_contention`` — a fig07-style contention run (Table IV
  noise against the analytics on the shared HDD, no adaptivity), timed
  end to end; rows carry ``events_per_sec`` and ``sim_time_s`` alongside
  the wall medians.
* ``blkio_stress16_fast`` — a 16-stream mixed read/write stress case
  with periodic 8-weight control bursts on the device (SoA demands +
  signature memo + coalesced flushes).  (Its ``blkio_stress16_reference``
  twin and the ``blkio_stress16_speedup_fast_vs_reference`` ratio timed
  the pre-optimisation device path; they were retired when that path
  became a test-only oracle.)

Schema 3 made every scenario row carry ``events_per_sec``; the
regression gate lives in ``benchmarks/compare_bench.py``: any scenario
row whose events/sec drops more than 20 % against the committed
baseline fails CI.  (Schema 3 also timed a binary-heap copy of the
fig07 and stress16 rows against the calendar-queue kernel; those rows
and their ``event_kernel_ratio_*`` keys were retired when the heap loop
became the only kernel.)

Schema 4 scales the device axis to where the vectorised epoch path
(persistent SoA stream arrays + grouped dispatch, architecture §1.2)
actually pays:

* ``blkio_stress64`` — the stress workload at 64 streams, where the
  array sync/solve overtakes per-object attribute loops.
* ``blkio_soak256`` — a 256-stream homogeneous soak (uniform weights,
  no control churn): every epoch groups hundreds of same-instant
  starts into single batch calls and the solve memo hits on the
  steady-state signature.  Both rows are hard-gated on events/sec by
  ``compare_bench.py`` like every scenario row.

(Schema 4's ``blkio_stress16_scalar`` row and its
``dispatch_speedup_stress16`` key timed per-entry dispatch; they were
retired with the ``dispatch=`` option.)

Schema 5 adds the cluster-scale axis (``repro.cluster``, architecture
§12): ``cluster_soak_shards{1,4,8}`` run the same 16-node noisy-neighbor
soak partitioned over 1, 4, and 8 shard simulations, each shard on its
own worker process (one process at 1 shard — the serial fallback).  Rows
carry **aggregate** events/sec summed over shards; the wall clock starts
after the worker pool is up (one warm pool per shard count, reused
across repeats via ``run_cluster(pool=...)``), so the figure measures
simulation + round-boundary IPC, not process spawn.
``derived.cluster_scaling_8x`` is the 8-shard/1-shard aggregate
events/sec ratio — ≈ core-count scaling on an unloaded multi-core
runner.  It is ``null`` on a machine with fewer than 8 CPUs, with the
cause in ``derived.cluster_scaling_8x_reason``: there the shards share
cores and the ratio measures the machine, not the code.  The rows join
the generic events/sec hard gate; the scaling ratio itself is recorded,
not gated, because it is a property of the runner's core count.

Schema 6 adds the controller-family stability probes (architecture
§13): ``stability_step_{tango,pid,mpc}`` each time a short cross-layer
scenario under the ``stability-step`` fault campaign with that
controller selected through the ``CONTROLLERS`` registry.  Rows carry
events/sec (joining the generic hard gate) plus the suite's
control-quality scores — ``settling_time_s`` and ``overshoot`` of the
prediction trace — recorded for the review trend, not gated: they are
deterministic per seed and only move when someone retunes a controller.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Callable

__all__ = ["BENCH_FILENAME", "SCHEMA_VERSION", "run_microbench", "write_report", "repo_root"]

BENCH_FILENAME = "BENCH_micro.json"
SCHEMA_VERSION = 6

#: Median speedup of the default ladder method over the pre-fastladder
#: cost model that the perf work is pinned to (see module docstring).
SPEEDUP_TARGET = 5.0

#: CPUs needed before the 8-shard cluster scaling ratio means anything.
CLUSTER_SCALING_MIN_CPUS = 8


def repo_root() -> Path:
    """The repository root (three levels above this module)."""
    return Path(__file__).resolve().parents[3]


def _git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    commit = proc.stdout.strip()
    return commit if proc.returncode == 0 and commit else None


def _time(
    fn: Callable[[], object],
    *,
    repeats: int,
    warmup: int = 1,
    setup: Callable[[], None] | None = None,
) -> list[float]:
    """Wall-time ``fn`` ``repeats`` times (after ``warmup`` discarded runs).

    ``setup`` runs before every iteration, warmup included, outside the
    timed region.
    """
    times: list[float] = []
    for i in range(warmup + repeats):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        if i >= warmup:
            times.append(dt)
    return times


def _run_stress_blkio(
    *,
    n_streams: int = 16,
    horizon: float = 120.0,
) -> tuple[float, int, float]:
    """One n-stream device stress run; returns (wall_s, events, sim_time).

    Perpetual mixed read/write workers resubmit multi-MiB requests
    against one shared HDD while a churn process rewrites eight blkio
    weights every 250 ms — the reschedule-heavy regime the device's SoA
    demands, signature memo and coalesced flushes target.
    """
    from repro.simkernel import Simulation, Timeout
    from repro.storage.cgroup import CgroupController
    from repro.storage.device import DEVICE_PRESETS, BlockDevice
    from repro.util.units import MiB

    sim = Simulation()
    device = BlockDevice(sim, DEVICE_PRESETS["seagate-hdd-2t"])
    groups = CgroupController()
    cgroups = [
        groups.create(f"stress-{i}", weight=100 + (i % 9) * 100) for i in range(n_streams)
    ]

    def worker(idx: int, cgroup):
        direction = "read" if idx % 3 else "write"
        nbytes = (4 + (idx % 4) * 2) * MiB
        while True:
            yield device.submit(cgroup, nbytes, direction)

    for idx, cgroup in enumerate(cgroups):
        sim.process(worker(idx, cgroup))

    def churn():
        burst = 0
        while True:
            yield Timeout(0.25)
            for j in range(8):
                cgroups[(burst + j) % n_streams].set_blkio_weight(
                    100 + ((burst + j) * 37) % 900, now=sim.now
                )
            burst += 8

    sim.process(churn())
    t0 = time.perf_counter()
    sim.run(until=horizon)
    return time.perf_counter() - t0, sim.events_executed, sim.now


def _run_soak_blkio(
    n_streams: int = 256,
    horizon: float = 10.0,
) -> tuple[float, int, float]:
    """A homogeneous many-stream soak; returns (wall_s, events, sim_time).

    256 identical workers (uniform weight, 1 MiB requests, 2:1 read/write
    mix, no control churn) hammer one shared SSD (zero concurrency
    thrash, so the wave period stays sub-second even at 256 streams).
    All streams submit at t=0 and resubmit on completion, so every epoch
    carries large groups of same-instant starts and completions — the
    regime where batched dispatch collapses hundreds of Python callbacks
    into single ``_start_streams_batch`` calls, completions bulk-succeed
    in one array pass, and the solver memo hits on the recurring demand
    signature (each wave drains the device completely, so rows refill in
    identical order).
    """
    from repro.simkernel import Simulation
    from repro.storage.cgroup import CgroupController
    from repro.storage.device import DEVICE_PRESETS, BlockDevice
    from repro.util.units import MiB

    sim = Simulation()
    device = BlockDevice(sim, DEVICE_PRESETS["intel-ssd-400"])
    groups = CgroupController()

    def worker(cgroup, direction):
        while True:
            yield device.submit(cgroup, MiB, direction)

    for i in range(n_streams):
        cgroup = groups.create(f"soak-{i}", weight=500)
        sim.process(worker(cgroup, "read" if i % 3 else "write"))

    t0 = time.perf_counter()
    sim.run(until=horizon)
    return time.perf_counter() - t0, sim.events_executed, sim.now


def _cluster_soak_config(shards: int):
    """The shared cluster-soak shape at a given shard count.

    16 nodes × 8 tenants with 256 KiB mean requests keep each round's
    event work large relative to the per-round pipe exchange, so the
    shard axis measures parallel simulation, not IPC.  Round stats are
    off (soak mode) and ``workers=shards`` pins one worker per shard.
    """
    from repro.cluster import ClusterConfig
    from repro.util.units import KiB

    return ClusterConfig(
        n_nodes=16,
        shards=shards,
        tenants_per_node=8,
        rounds=15,
        request_bytes=256 * KiB,
        collect_round_stats=False,
        workers=shards,
    )


def _run_cluster_soak(shards: int, repeats: int) -> list[tuple[float, int, float]]:
    """Warmup + ``repeats`` timed runs on one warm shard pool.

    Returns ``(wall_s, events, sim_time)`` per timed run; ``wall_s`` is
    the kernel's own round-loop clock (pool spawn excluded), and events
    are the aggregate over all shards.
    """
    from repro.cluster import make_shard_pool, run_cluster
    from repro.engine.sweep import resolve_workers

    config = _cluster_soak_config(shards)
    workers = min(resolve_workers(config.workers), config.shards)
    pool = make_shard_pool(config, workers)
    try:
        rows = []
        for i in range(1 + repeats):  # first run is a discarded warmup
            result = run_cluster(config, pool=pool)
            if i >= 1:
                rows.append((result.wall_s, result.events_executed, result.sim_time))
        return rows
    finally:
        pool.close()


def _run_scenario_contention() -> tuple[float, int, float]:
    """One fig07-style contention run; returns (wall_s, events, sim_time).

    Table IV noise against a non-adaptive analytics tenant on the shared
    capacity tier — the paper's interference baseline.  Only the run loop
    is timed; ladder construction and staging happen outside the clock
    (and are memoized across repeats anyway).
    """
    from repro.engine.session import ScenarioSession
    from repro.experiments.config import ScenarioConfig

    config = ScenarioConfig(policy="no-adaptivity", max_steps=12, seed=0)
    session = ScenarioSession(config)
    _, _, ladder = session.build_ladder()
    dataset = session.stage(f"{config.app}-data", ladder)
    session.launch_noise()
    controller = session.build_controller(ladder)
    session.add_analytics("analytics", dataset, controller)
    t0 = time.perf_counter()
    session.run()
    return time.perf_counter() - t0, session.sim.events_executed, session.sim.now


def _run_scenario_stability(controller: str) -> tuple[float, int, float, float, float]:
    """One stability-step probe run with the named controller.

    Returns ``(wall_s, events, sim_time, settling_time_s, overshoot)``.
    Same composition discipline as the contention row — ladder build and
    staging stay outside the clock; only the run loop is timed.  The
    control-quality scores come from the stability suite's trace scorer
    on the completed run.
    """
    import numpy as np

    from repro.engine.session import ScenarioSession
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.stability import _ONSET_FRACTIONS, _score_trace

    config = ScenarioConfig(
        policy="cross-layer",
        max_steps=12,
        seed=0,
        faults="stability-step",
        controller=controller,
    )
    session = ScenarioSession(config)
    _, _, ladder = session.build_ladder()
    dataset = session.stage(f"{config.app}-data", ladder)
    session.launch_noise()
    session.apply_faults(config.faults)
    ctl = session.build_controller(ladder)
    driver = session.add_analytics("analytics", dataset, ctl)
    t0 = time.perf_counter()
    session.run()
    wall = time.perf_counter() - t0
    predicted = np.asarray([r.predicted_bw for r in driver.records])
    measured = np.asarray([r.measured_bw for r in driver.records])
    settling, overshoot, _ = _score_trace(
        predicted,
        measured,
        onset_fraction=_ONSET_FRACTIONS["step"],
        period=config.period,
    )
    return wall, session.sim.events_executed, session.sim.now, settling, overshoot


def _cluster_scaling(results: dict) -> dict:
    """``derived.cluster_scaling_8x``: 8-shard over 1-shard events/sec.

    Recorded, not gated — on an unloaded 8-core runner it tracks core
    count (≥ 3x expected).  With fewer than 8 CPUs the shards share
    cores, so the ratio is ``null`` and the reason is recorded instead.
    """
    cpus = os.cpu_count() or 1
    if cpus < CLUSTER_SCALING_MIN_CPUS:
        return {
            "cluster_scaling_8x": None,
            "cluster_scaling_8x_reason": (
                f"cpu_count={cpus} < {CLUSTER_SCALING_MIN_CPUS}: 8 shard "
                "workers would share cores"
            ),
        }
    soak1 = results["cluster_soak_shards1"]["events_per_sec"]
    soak8 = results["cluster_soak_shards8"]["events_per_sec"]
    return {"cluster_scaling_8x": soak8 / soak1 if soak1 and soak8 else None}


def run_microbench(
    *,
    repeats: int = 5,
    grid: tuple[int, int] = (512, 512),
    levels: int = 5,
    progress: Callable[[str, dict], None] | None = None,
) -> dict:
    """Run the suite and return the report dict (see module docstring)."""
    import numpy as np

    from repro.apps import make_app
    from repro.core.error_control import ErrorMetric, build_ladder, release_ladder_scratch
    from repro.core.refactor import decompose, recompose_full
    from repro.core.serialize import pack_ladder, unpack_ladder

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    bounds = [0.1, 0.01, 0.001]
    metric = ErrorMetric.NRMSE
    field = make_app("xgc").generate(grid, seed=0)
    dec = decompose(field, levels)
    ladder = build_ladder(dec, bounds, metric)
    payload = pack_ladder(ladder)

    specs: list[tuple[str, Callable[[], object], Callable[[], None] | None]] = [
        ("decompose", lambda: decompose(field, levels), None),
        ("recompose_full", lambda: recompose_full(dec), None),
        (
            "build_ladder_reference_nocache",
            lambda: build_ladder(dec, bounds, metric, method="reference"),
            lambda: release_ladder_scratch(dec),
        ),
        (
            "build_ladder_hybrid_coldcache",
            lambda: build_ladder(dec, bounds, metric),
            lambda: release_ladder_scratch(dec),
        ),
        ("build_ladder_hybrid", lambda: build_ladder(dec, bounds, metric), None),
        (
            "build_ladder_measured",
            lambda: build_ladder(dec, bounds, metric, method="measured"),
            None,
        ),
        (
            "build_ladder_analytic",
            lambda: build_ladder(dec, bounds, metric, method="analytic"),
            None,
        ),
        ("reconstruct_rung", lambda: ladder.reconstruct(ladder.num_buckets - 1), None),
        ("pack_unpack", lambda: unpack_ladder(payload), None),
    ]

    results: dict[str, dict] = {}
    for name, fn, setup in specs:
        times = _time(fn, repeats=repeats, setup=setup)
        row = {
            "median_s": statistics.median(times),
            "min_s": min(times),
            "max_s": max(times),
            "repeats": repeats,
        }
        results[name] = row
        if progress is not None:
            progress(name, row)

    # Scenario-level benchmarks: each repeat rebuilds the simulation from
    # scratch (the run mutates it), so the runner is timed internally and
    # reports events alongside the wall time.  Event counts are
    # deterministic per runner, so the last repeat's figures stand for all.
    scenario_specs: list[tuple[str, Callable[[], tuple[float, int, float]]]] = [
        ("scenario_fig07_contention", _run_scenario_contention),
        ("blkio_stress16_fast", _run_stress_blkio),
        ("blkio_stress64", lambda: _run_stress_blkio(n_streams=64, horizon=40.0)),
        ("blkio_soak256", _run_soak_blkio),
    ]
    for name, runner in scenario_specs:
        walls: list[float] = []
        events = 0
        sim_time = 0.0
        for i in range(1 + repeats):  # first run is a discarded warmup
            wall, events, sim_time = runner()
            if i >= 1:
                walls.append(wall)
        median = statistics.median(walls)
        row = {
            "median_s": median,
            "min_s": min(walls),
            "max_s": max(walls),
            "repeats": repeats,
            "events_executed": events,
            "sim_time_s": sim_time,
            "events_per_sec": events / median if median > 0 else None,
        }
        results[name] = row
        if progress is not None:
            progress(name, row)

    # Cluster-soak rows (schema 5): one warm shard pool per shard count,
    # reused across repeats, wall clock from the kernel's own round-loop
    # timer — spawn cost never pollutes the median.
    for shards in (1, 4, 8):
        name = f"cluster_soak_shards{shards}"
        rows = _run_cluster_soak(shards, repeats)
        walls = [w for w, _, _ in rows]
        events = rows[-1][1]
        sim_time = rows[-1][2]
        median = statistics.median(walls)
        row = {
            "median_s": median,
            "min_s": min(walls),
            "max_s": max(walls),
            "repeats": repeats,
            "events_executed": events,
            "sim_time_s": sim_time,
            "events_per_sec": events / median if median > 0 else None,
        }
        results[name] = row
        if progress is not None:
            progress(name, row)

    # Stability probes (schema 6): one row per built-in controller on the
    # step reference input.  Control-quality scores ride along (recorded,
    # not gated); ``None`` settling means the trace never entered the
    # settling band within the probe's 12 steps.
    for ctrl in ("tango", "pid", "mpc"):
        name = f"stability_step_{ctrl}"
        walls = []
        events, sim_time, settling, overshoot = 0, 0.0, float("nan"), 0.0
        for i in range(1 + repeats):  # first run is a discarded warmup
            wall, events, sim_time, settling, overshoot = _run_scenario_stability(ctrl)
            if i >= 1:
                walls.append(wall)
        median = statistics.median(walls)
        row = {
            "median_s": median,
            "min_s": min(walls),
            "max_s": max(walls),
            "repeats": repeats,
            "events_executed": events,
            "sim_time_s": sim_time,
            "events_per_sec": events / median if median > 0 else None,
            "settling_time_s": None if settling != settling else settling,
            "overshoot": overshoot,
        }
        results[name] = row
        if progress is not None:
            progress(name, row)

    reference = results["build_ladder_reference_nocache"]["median_s"]
    default = results["build_ladder_hybrid"]["median_s"]
    cold = results["build_ladder_hybrid_coldcache"]["median_s"]
    derived = {
        "ladder_speedup_default_vs_reference": reference / default if default > 0 else None,
        "ladder_speedup_coldcache_vs_reference": reference / cold if cold > 0 else None,
        "speedup_target": SPEEDUP_TARGET,
        "meets_speedup_target": default > 0 and reference / default >= SPEEDUP_TARGET,
    }
    derived.update(_cluster_scaling(results))

    root = repo_root()
    return {
        "schema": SCHEMA_VERSION,
        "generated_unix": time.time(),
        "commit": _git_commit(root),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "config": {
            "grid": list(grid),
            "levels": levels,
            "bounds": bounds,
            "metric": metric.value,
            "repeats": repeats,
        },
        "benchmarks": results,
        "derived": derived,
    }


def write_report(report: dict, path: str | Path) -> Path:
    """Write the report as pretty JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path
