"""Outside-in span recorder for the traced benchmark pass.

The tracer wraps public entry points of each ``repro`` layer — module
functions in the namespace their caller looks them up in, and class
methods — with span recorders.  A span is ``(name, start, end, parent
span, unit id)``; spans live in flat ``array`` columns while the pass
runs and are reduced (or written as JSONL) once it ends.

A span's *self time* is its duration minus the durations of its direct
child spans, so the self times of every span under a unit's root span
sum to that unit's wall time.  Generator-based simulation processes are
traced by wrapping ``Simulation.process``: each generator is replaced by
a proxy whose every resume (``send``/``throw``) is a span labelled by
the generator's package.

Limits: handlers the kernel dispatches privately (``_start_stream*``,
``_flush``) run inside ``simkernel.run`` and count as its self time, and
shard and sweep workers are other processes, so ``cluster.round`` and
``engine.sweep_map`` include the IPC and the remote compute.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import statistics
import time
from array import array

import numpy as np

__all__ = ["Tracer"]

#: Generator-resume spans are named ``gen.<package>`` for these ``repro``
#: packages and ``gen.other`` for anything else.
GEN_PACKAGES = ("workloads", "storage", "cluster")

#: ``(module, attribute, span name)`` for plain functions, patched in the
#: namespace the simulator's own callers resolve them from.
_FUNCTIONS = (
    ("repro.engine.memo", "build_ladder", "core.build_ladder"),
    ("repro.engine.memo", "decompose", "core.decompose"),
    ("repro.core.controller", "calibrate_weight_function", "core.calibrate_weight_function"),
    ("repro.engine.session", "calibrate_weight_function", "core.calibrate_weight_function"),
    ("repro.engine.session", "stage_dataset", "storage.stage_dataset"),
    ("repro.storage.device", "solve_rates_arrays", "storage.solve_rates_arrays"),
    ("repro.cluster.kernel", "make_shard_pool", "cluster.make_shard_pool"),
    ("repro.api", "run_cluster", "cluster.run_cluster"),
)

#: ``(module, class, method, span name)`` for methods.
_METHODS = (
    ("repro.engine.session", "ScenarioSession", "__init__", "engine.session_init"),
    ("repro.engine.session", "ScenarioSession", "stage", "engine.stage"),
    ("repro.engine.session", "ScenarioSession", "launch_noise", "engine.launch_noise"),
    ("repro.engine.session", "ScenarioSession", "build_controller", "engine.build_controller"),
    ("repro.engine.session", "ScenarioSession", "add_analytics", "engine.add_analytics"),
    ("repro.storage.device", "BlockDevice", "submit", "storage.submit"),
    ("repro.storage.device", "BlockDevice", "reschedule", "storage.reschedule"),
    ("repro.dataplane.pipeline", "DataPlane", "submit", "dataplane.submit"),
    ("repro.control.base", "BaseController", "observe", "control.observe"),
    ("repro.cluster.pool", "ShardPool", "round", "cluster.round"),
    ("repro.cluster.pool", "ShardPool", "finalize", "cluster.finalize"),
    ("repro.cluster.pool", "ShardPool", "close", "cluster.close"),
)

#: ``kernel_stats()`` key -> counter, accumulated per ``Simulation.run`` call.
_KERNEL_COUNTERS = {
    "executed": "simkernel.events",
    "epochs": "simkernel.epochs",
    "group_calls": "simkernel.group_calls",
    "cancels": "simkernel.cancels",
}

#: Every layer counter the tracer reports (zero when a workload never
#: reaches the layer).  The last four come from unit outputs.
COUNTERS = (
    *_KERNEL_COUNTERS.values(),
    "engine.memo.hits",
    "engine.memo.misses",
    "gc.unreachable",
    "control.degraded_steps",
    "storage.read_errors",
    "workloads.skipped_objects",
    "cluster.messages",
    "cluster.events",
)

ROOT_SPAN = "bench.unit"


class _GenProxy:
    """A generator stand-in that records a span around every resume."""

    __slots__ = ("_gen", "_name", "_tracer")

    def __init__(self, gen, name: int, tracer: "Tracer") -> None:
        self._gen = gen
        self._name = name
        self._tracer = tracer

    def send(self, value):
        tracer = self._tracer
        if not tracer.active:
            return self._gen.send(value)
        idx = tracer._open(self._name)
        try:
            return self._gen.send(value)
        finally:
            tracer._close(idx)

    def throw(self, exc):
        tracer = self._tracer
        if not tracer.active:
            return self._gen.throw(exc)
        idx = tracer._open(self._name)
        try:
            return self._gen.throw(exc)
        finally:
            tracer._close(idx)


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores.

    Spans are recorded only while a unit is open (:meth:`begin_unit` /
    :meth:`end_unit`), so set-up, output checks and the serial replays
    behind ``engine.sweep.speedup`` run through the wrappers untraced.
    """

    def __init__(self) -> None:
        self.active = False
        self._names: dict[str, int] = {}
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._unit = array("i")
        self._stack: list[int] = []
        self._unit_id = -1
        self._root = -1
        self._patches: list[tuple[object, str, object]] = []
        #: Layer counters summed over the pass.
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._parallel_maps: list[tuple[object, list, float]] = []
        self._map_s = 0.0
        self._serial_s = 0.0
        self._memo_before: dict[str, int] = {}

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name: str) -> int:
        return self._names.setdefault(name, len(self._names))

    def _open(self, name: int) -> int:
        idx = len(self._start)
        stack = self._stack
        self._name.append(name)
        self._parent.append(stack[-1] if stack else -1)
        self._unit.append(self._unit_id)
        self._end.append(0.0)
        stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def begin_unit(self, unit: int) -> None:
        from repro.engine import memo

        self._memo_before = memo.cache_info()
        self._unit_id = unit
        self.active = True
        self._root = self._open(self._name_id(ROOT_SPAN))

    def end_unit(self) -> None:
        from repro.engine import memo

        self._close(self._root)
        self.active = False
        after = memo.cache_info()
        for key in ("hits", "misses"):
            self.count(f"engine.memo.{key}", after[key] - self._memo_before[key])
        self._replay_parallel_maps()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "stop":
            self.count("gc.unreachable", info["collected"] + info["uncollectable"])

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def install(self) -> None:
        """Patch every traced entry point; :meth:`uninstall` restores them."""
        for module, attr, name in _FUNCTIONS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._span_wrapper(getattr(mod, attr), name))
        for module, cls_name, attr, name in _METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self._span_wrapper(cls.__dict__[attr], name))
        from repro.apps.base import AnalyticsApp

        todo = list(AnalyticsApp.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "generate" in cls.__dict__:
                wrapper = self._span_wrapper(cls.__dict__["generate"], "apps.generate")
                self._patch(cls, "generate", wrapper)
        self._install_decide()
        self._install_kernel()
        self._install_sweep_map()
        # Cyclic garbage is counted as the interpreter's own collections
        # find it, so the traced pass collects exactly as an untraced one
        # does; garbage left from before the pass is not counted.
        gc.collect()
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.collect()  # what the pass left pending is still the pass's
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install_decide(self) -> None:
        from repro.control.base import BaseController

        orig = BaseController.__dict__["decide"]
        nid = self._name_id("control.decide")
        tracer = self

        @functools.wraps(orig)
        def decide(ctrl, step):
            if not tracer.active:
                return orig(ctrl, step)
            idx = tracer._open(nid)
            try:
                decision = orig(ctrl, step)
            finally:
                tracer._close(idx)
            if decision.mode != "normal":
                tracer.count("control.degraded_steps", 1)
            return decision

        self._patch(BaseController, "decide", decide)

    def _install_kernel(self) -> None:
        from repro.simkernel import Simulation

        orig_run = Simulation.__dict__["run"]
        orig_process = Simulation.__dict__["process"]
        run_id = self._name_id("simkernel.run")
        gen_ids = {pkg: self._name_id(f"gen.{pkg}") for pkg in GEN_PACKAGES}
        other_id = self._name_id("gen.other")
        tracer = self

        @functools.wraps(orig_run)
        def run(sim, *args, **kwargs):
            if not tracer.active:
                return orig_run(sim, *args, **kwargs)
            before = sim.kernel_stats()
            idx = tracer._open(run_id)
            try:
                return orig_run(sim, *args, **kwargs)
            finally:
                tracer._close(idx)
                after = sim.kernel_stats()
                for key, counter in _KERNEL_COUNTERS.items():
                    tracer.count(counter, after[key] - before[key])

        @functools.wraps(orig_process)
        def process(sim, generator):
            if tracer.active:
                module = getattr(generator, "gi_frame", None)
                module = module.f_globals.get("__name__", "") if module is not None else ""
                parts = module.split(".")
                pkg = parts[1] if len(parts) > 1 and parts[0] == "repro" else ""
                generator = _GenProxy(generator, gen_ids.get(pkg, other_id), tracer)
            return orig_process(sim, generator)

        self._patch(Simulation, "run", run)
        self._patch(Simulation, "process", process)

    def _install_sweep_map(self) -> None:
        from repro.engine.sweep import SweepExecutor

        orig = SweepExecutor.__dict__["map"]
        nid = self._name_id("engine.sweep_map")
        tracer = self

        @functools.wraps(orig)
        def map_(executor, fn, items):
            if not tracer.active:
                return orig(executor, fn, items)
            jobs = list(items)
            idx = tracer._open(nid)
            t0 = time.perf_counter()
            try:
                return orig(executor, fn, jobs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer._close(idx)
                if executor.workers > 1 and len(jobs) > 1:
                    tracer._parallel_maps.append((fn, jobs, elapsed))

        self._patch(SweepExecutor, "map", map_)

    def _replay_parallel_maps(self) -> None:
        """Re-run each pooled map of the unit serially, in-process, untraced."""
        if not self._parallel_maps:
            return
        from repro.engine import memo

        for fn, jobs, elapsed in self._parallel_maps:
            t0 = time.perf_counter()
            for job in jobs:
                fn(job)
            self._serial_s += time.perf_counter() - t0
            self._map_s += elapsed
        self._parallel_maps.clear()
        # The replayed cells' ladders are this process's, not the unit's.
        memo.clear_cache()

    # -- reduction --------------------------------------------------------

    def _columns(self):
        start = np.frombuffer(self._start, dtype=np.float64)
        dur = np.frombuffer(self._end, dtype=np.float64) - start
        parent = np.frombuffer(self._parent, dtype=np.int32)
        child = parent >= 0
        child_sum = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        name = np.frombuffer(self._name, dtype=np.int32)
        unit = np.frombuffer(self._unit, dtype=np.int32)
        return start, dur, dur - child_sum, name, unit

    def layer_metrics(self, unit_scale: list[float]) -> dict[str, float]:
        """Per-unit layer metrics; ``unit_scale[u]`` normalises unit ``u``'s seconds."""
        n_units = len(unit_scale)
        _, dur, self_t, name, unit = self._columns()
        scale = np.asarray(unit_scale, dtype=np.float64)[unit]
        n_names = len(self._names)
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_t * scale, minlength=n_names)
        total_s = np.bincount(name, weights=dur * scale, minlength=n_names)
        out: dict[str, float] = {}
        for span, nid in self._names.items():
            out[f"{span}.calls"] = calls[nid] / n_units
            out[f"{span}.self_s"] = self_s[nid] / n_units
        for key, value in self.counts.items():
            out[key] = value / n_units

        ids = self._names
        counts = self.counts
        lookups = counts["engine.memo.hits"] + counts["engine.memo.misses"]
        out["engine.memo.hit_ratio"] = counts["engine.memo.hits"] / lookups if lookups else 0.0
        # Pooled maps only; a serial map is its own serial baseline.
        out["engine.sweep.speedup"] = self._serial_s / self._map_s if self._map_s else 1.0
        events = counts["simkernel.events"]
        run_s = total_s[ids["simkernel.run"]]
        out["simkernel.host_us_per_event"] = 1e6 * run_s / events if events else 0.0
        reschedules = calls[ids["storage.reschedule"]]
        out["storage.array_solves_per_reschedule"] = (
            calls[ids["storage.solve_rates_arrays"]] / reschedules if reschedules else 0.0
        )
        is_round = name == ids["cluster.round"]
        rounds = (dur * scale)[is_round]
        out["cluster.round_p50_s"] = float(statistics.median(rounds)) if len(rounds) else 0.0
        return out

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        start, dur, self_t, name, unit = self._columns()
        names = {nid: span for span, nid in self._names.items()}
        parent = np.frombuffer(self._parent, dtype=np.int32)
        with open(path, "w") as fh:
            for i in range(len(start)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": names[int(name[i])],
                            "start": float(start[i]),
                            "end": float(start[i] + dur[i]),
                            "parent": int(parent[i]),
                            "unit": int(unit[i]),
                            "self_s": float(self_t[i]),
                        }
                    )
                    + "\n"
                )
