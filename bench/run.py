"""End-to-end and per-layer benchmark of the simulator.

Run from the root of a checkout (``src/`` must hold the ``repro``
package)::

    python3 bench/run.py --workload node_dense --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --quick
    python3 bench/run.py --workload cluster_rounds --seed 3 --trace 1 --spans-out spans.jsonl

Each workload (see ``workloads.py``) runs closed-loop units for
``--seconds`` (``--quick``: a small fixed unit count instead) and checks
every unit's outputs.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics: it measures a shorter untraced
pass, re-runs the same units under the span tracer (``spans.py``), and
requires both passes to produce the same result digest.

Every timing is in *normalised seconds*, ``t * ref_nominal_s /
probe_s``: a fixed calibration probe runs between batches of about
``BATCH_S`` seconds of units (never inside a unit), and each unit is
scaled by the mean of the probes around its batch.  ``ref_nominal_s``
is the probe's median on the recording machine (``reference.json``).
A timed set-up (fresh-interpreter import plus the workload's set-up)
opens a batch every ``SETUP_EVERY_S``.  ``peak_rss_mb`` is read once the
workload's first ``rss_units`` units have run, so it measures a fixed
amount of work rather than however many units fit in ``--seconds``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it starts with ``diagnostics`` and holds the raw timings, probe times,
result digest and machine description.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Bytecode cache of every interpreter a run starts, inside the checkout.
PYCACHE = os.path.join(ROOT, ".bench_build", "pycache")

#: Seconds of units between two calibration probes.
BATCH_S = 0.5
#: Seconds between two timed set-ups; ``setup_s`` is their median.
SETUP_EVERY_S = 4.0
#: Units needed before the 90th percentile has ten samples beyond it.
P90_MIN_UNITS = 100
#: Share of ``--seconds`` the untraced pass of a ``--trace 1`` run gets;
#: the traced replay of the same units (slower) and its serial sweep
#: replays fill the rest.
TRACE_SHARE = 0.4
#: Import of the public API in a fresh interpreter: the set-up cost every
#: process using the simulator pays.
_IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import repro.api; print(time.perf_counter() - t)"
)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- calibration probe -------------------------------------------------------


def _probe_body() -> float:
    """~10 ms of pure-Python heap/dict work plus small numpy ops."""
    import numpy as np

    heap: list = []
    table: dict = {}
    x = 12345
    for i in range(9000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x & 0xFFFF, i))
        key = x & 511
        table[key] = table.get(key, 0) + 1
    while heap:
        heapq.heappop(heap)
    a = np.linspace(0.0, 1.0, 256)
    acc = 0.0
    for _ in range(450):
        a = np.sqrt(a * a + 1e-3)
        acc += float(a.sum())
    return acc + len(table)


def probe() -> float:
    """Seconds for one probe body (median of three)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_body()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- measurement ---------------------------------------------------------------


class Pass:
    """Raw unit and set-up times, their normalisation factors, failures, digest."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scale: list[float] = []
        self.setup_raw: list[float] = []
        self.setup_scale: list[float] = []
        self.probes: list[float] = []
        self.failed = 0
        self.hasher = hashlib.sha256()
        #: ``peak_rss_mb()`` after the workload's first ``rss_units`` units.
        self.peak_rss_mb: float | None = None

    @property
    def norm(self) -> list[float]:
        return [r * s for r, s in zip(self.raw, self.scale)]

    @property
    def setup_norm(self) -> list[float]:
        return [r * s for r, s in zip(self.setup_raw, self.setup_scale)]

    @property
    def digest(self) -> str:
        return self.hasher.hexdigest()


def _run_unit(wl, i: int, p: Pass, tracer) -> None:
    inputs = wl.inputs(i)
    ok = False
    elapsed = 0.0
    try:
        if tracer is not None:
            tracer.begin_unit(len(p.raw))
        t0 = time.perf_counter()
        try:
            out = wl.run(inputs)
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_unit()
        ok = bool(wl.check(inputs, out))
        p.hasher.update(wl.digest(out).encode())
        if tracer is not None:
            for name, value in wl.counts(out).items():
                tracer.count(name, value)
    except Exception:
        traceback.print_exc(file=sys.stderr)
    if not ok:
        print(f"# unit {i} failed its output check", file=sys.stderr)
    p.raw.append(elapsed)
    p.failed += not ok


def _import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_SNIPPET],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


def _setup_seconds(wl, seed: int) -> float:
    """One set-up: a fresh-interpreter import plus ``wl.setup`` in-process."""
    t_import = _import_seconds()
    t0 = time.perf_counter()
    wl.setup(seed)
    return t_import + time.perf_counter() - t0


def measure(wl, ref_s: float, *, units: int | None = None, seconds: float | None = None,
            tracer=None, setup_seed: int | None = None) -> Pass:
    """Run units ``0, 1, ...`` for ``seconds`` (or exactly ``units`` of them).

    A timed run goes on past ``seconds`` until ``wl.rss_units`` units
    have run, and ``p.peak_rss_mb`` is read at that unit: the lifetime
    peak would grow with the unit count (every unit the ladder memo
    evicts stays as cyclic garbage until a full collection), so a faster
    simulator would read as a larger one.

    With ``setup_seed``, a timed set-up opens the first batch and then a
    batch every ``SETUP_EVERY_S``, so set-up samples the host across the
    whole window like the units do.  A repeated set-up leaves the units'
    work unchanged: it only rebuilds what the units read (the warmed
    ladders), never what they fill.
    """
    p = Pass()
    before = probe()
    p.probes.append(before)
    start = time.perf_counter()
    next_setup = start

    def more() -> bool:
        if units is not None:
            return len(p.raw) < units
        return len(p.raw) < wl.rss_units or time.perf_counter() - start < seconds

    while more():
        first, first_setup = len(p.raw), len(p.setup_raw)
        batch_start = time.perf_counter()
        if setup_seed is not None and batch_start >= next_setup:
            p.setup_raw.append(_setup_seconds(wl, setup_seed))
            next_setup += SETUP_EVERY_S
        while more() and (len(p.raw) == first or time.perf_counter() - batch_start < BATCH_S):
            _run_unit(wl, len(p.raw), p, tracer)
            if len(p.raw) == wl.rss_units:
                p.peak_rss_mb = peak_rss_mb()
        after = probe()
        p.probes.append(after)
        scale = ref_s / ((before + after) / 2.0)
        p.scale.extend([scale] * (len(p.raw) - first))
        p.setup_scale.extend([scale] * (len(p.setup_raw) - first_setup))
        before = after
    if p.peak_rss_mb is None:  # --quick: fewer than rss_units units
        p.peak_rss_mb = peak_rss_mb()
    return p


def p90(values: list[float]) -> float | None:
    """The 90th percentile, or None unless ten samples lie beyond it."""
    if len(values) < P90_MIN_UNITS:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The workloads close their own pools; what outlives them is the
    resource tracker that ``multiprocessing`` starts with the first spawned
    worker.  Left alone it exits only after this interpreter has, so it
    would still be running when the benchmark returns.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for child in mp.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def _exit_on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def machine() -> dict:
    import numpy as np

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": has_numba,
    }


# -- one workload ---------------------------------------------------------------


def run_workload(args, spec: dict) -> tuple[dict, dict]:
    """Measure one workload; returns ``(result, diagnostics)``."""
    import repro.api  # noqa: F401  (imports and compiles before anything is timed)
    from repro.engine.sweep import resolve_workers
    from workloads import WORKLOADS, pool_workers

    want = pool_workers()
    if resolve_workers(want) < want:
        raise SystemExit(
            f"bench: pool workers resolve below min(2, nproc) = {want} "
            "(is REPRO_WORKERS set?); refusing to measure"
        )
    ref_s = _load(os.path.join(BENCH_DIR, "reference.json"))["ref_nominal_s"]
    wl = WORKLOADS[args.workload]()
    probe()  # warm the probe's own code paths
    quick_units = wl.quick_units if args.quick else None
    diag: dict = {"workload": args.workload, "seed": args.seed, "machine": machine()}

    if not args.trace:
        p = measure(wl, ref_s, units=quick_units, seconds=args.seconds, setup_seed=args.seed)
        norm = p.norm
        values = {
            "setup_s": statistics.median(p.setup_norm),
            "unit_mean_s": statistics.fmean(norm),
            "unit_p50_s": statistics.median(norm),
            "peak_rss_mb": p.peak_rss_mb,
        }
        wanted = spec["end_to_end"]
        attempted, failed, correct = len(p.raw), p.failed, p.failed == 0
        diag.update(setup_raw_s=p.setup_raw, setup_norm_s=p.setup_norm,
                    lifetime_peak_rss_mb=peak_rss_mb())
        tail = p90(norm)
        if tail is not None:
            diag["unit_p90_s"] = tail
    else:
        from spans import Tracer

        from repro.engine import memo

        # Both passes start from an empty ladder memo, so they do the same work.
        memo.clear_cache()
        wl.setup(args.seed)
        untraced = measure(wl, ref_s, units=quick_units, seconds=TRACE_SHARE * args.seconds)
        memo.clear_cache()
        wl.setup(args.seed)
        tracer = Tracer()
        tracer.install()
        try:
            p = measure(wl, ref_s, units=len(untraced.raw), tracer=tracer)
        finally:
            tracer.uninstall()
        values = tracer.layer_metrics(p.scale)
        values["trace.overhead"] = sum(p.norm) / sum(untraced.norm)
        if args.spans_out:
            tracer.write_jsonl(args.spans_out)
        wanted = spec["per_layer"]
        attempted = len(untraced.raw) + len(p.raw)
        failed = untraced.failed + p.failed
        correct = failed == 0 and p.digest == untraced.digest
        diag.update(
            untraced_digest=untraced.digest,
            untraced_raw_s=untraced.raw,
            traced_unit_mean_s=statistics.fmean(p.norm),
        )
    diag.update(
        units=len(p.raw),
        failed_units=p.failed,
        result_digest=p.digest,
        raw_unit_s=p.raw,
        probe_s=p.probes,
        ref_nominal_s=ref_s,
    )
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, diag


def run_all(args, spec: dict) -> tuple[dict, dict]:
    """Every workload, each in its own process (so ``peak_rss_mb`` is its own)."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    runs = {}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.quick:
            cmd.append("--quick")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"bench: workload {name} exited with {done.returncode}")
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-2]))
        sub = json.loads(lines[-1])
        runs[name] = json.loads(lines[-2].split(" ", 1)[1])
        result["correct"] = result["correct"] and sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        for metric, value in sub["metrics"].items():
            result["metrics"][f"{name}.{metric}"] = value
    return result, {"runs": runs}


def parse_args(argv, spec: dict):
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced replay")
    ap.add_argument("--quick", action="store_true",
                    help="a small fixed unit count per workload instead of --seconds")
    ap.add_argument("--out", help="also write the result and diagnostics to this JSON file")
    ap.add_argument("--spans-out", help="with --trace 1, write every span as JSONL here")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.spans_out and (not args.trace or args.workload == "all"):
        ap.error("--spans-out needs --trace 1 and a single workload")
    return args


def main(argv=None) -> int:
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    args = parse_args(argv, spec)
    if not os.path.isfile(os.path.join(SRC, "repro", "api.py")):
        print(f"bench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # Interpreters normally cache bytecode; without it every import (and
    # so every pool worker's start) recompiles the package from source.
    # Set in the environment, so import-timing interpreters and pool
    # workers share the cache; the first run in a checkout fills it.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = PYCACHE
    sys.dont_write_bytecode = False
    sys.pycache_prefix = PYCACHE
    # SIGTERM unwinds like an error, so the processes are stopped below.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        if args.workload == "all":
            result, diag = run_all(args, spec)
        else:
            result, diag = run_workload(args, spec)
    finally:
        stop_children()
    if args.workload != "all":
        for name, m in result["metrics"].items():
            print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
        if "unit_p90_s" in diag:
            print(f"# unit_p90_s={diag['unit_p90_s']:.6g} s (diagnostic)")
        print(f"# units={diag['units']} failed={diag['failed_units']} "
              f"digest={diag['result_digest']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"args": vars(args), "result": result, "diagnostics": diag}, fh, indent=1)
    print("diagnostics " + json.dumps(diag))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
