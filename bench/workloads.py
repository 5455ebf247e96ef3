"""The benchmark's four workloads, each a closed loop of independent units.

Every workload is driven by one client that starts unit ``i + 1`` only
after unit ``i`` returned, so a slower simulator simply completes fewer
units in the measured window.  A unit's inputs derive from
``(seed, i)`` alone; the simulator only ever sees the generated configs.

A workload provides:

* ``setup(seed)`` — the preparation a fresh process pays before its
  first unit (ladder warm-up), timed into ``setup_s``;
* ``inputs(i)`` — the configs of unit ``i`` (built outside the timing);
* ``run(inputs)`` — the timed unit, through the public API only;
* ``check(inputs, output)`` — the unit's output check;
* ``digest(output)`` — a canonical string of the simulated outputs;
* ``counts(output)`` — layer counters read off the outputs;

and two unit counts: ``quick_units`` (a ``--quick`` run) and
``rss_units``, the fixed work ``peak_rss_mb`` is read after.  A timed run
always completes ``rss_units`` units, overrunning its window if need be.
"""

from __future__ import annotations

import dataclasses
import os

import repro.api as api
from repro.engine import memo
from repro.util.units import KiB
from repro.workloads.churn import ChurnSpec

__all__ = ["WORKLOADS", "pool_workers"]

APPS = ("xgc", "cfd", "genasis")
POLICIES = ("app-only", "cross-layer", "no-adaptivity", "storage-only")
PRIORITIES = (1.0, 5.0, 10.0)


def pool_workers() -> int:
    """Worker count for the pooled workloads: ``min(2, nproc)``."""
    return min(2, len(os.sched_getaffinity(0)))


def _unit_seed(seed: int, i: int) -> int:
    return seed * 100_000 + i


def _summaries_digest(summaries) -> str:
    return repr(
        [
            (s.num_records, s.mean_io_time, s.std_io_time, s.mean_target_rung, s.final_time)
            for s in summaries
        ]
    )


class ScenarioSweep:
    """fig08/12/13/14/16's access pattern: 4 policies over one (app, seed).

    The only workload with ladder construction in the timed path: each
    unit's seed is new, so the memo misses once and hits three times.
    """

    name = "scenario_sweep"
    quick_units = 3
    rss_units = 64
    max_steps = 60

    def setup(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, i: int):
        seed = _unit_seed(self.seed, i)
        return [
            api.ScenarioConfig(app=APPS[i % 3], policy=p, max_steps=self.max_steps, seed=seed)
            for p in POLICIES
        ]

    def run(self, configs):
        return api.SweepExecutor(workers=1).run_scenarios(configs)

    def check(self, configs, out) -> bool:
        return len(out) == len(configs) and all(s.num_records == self.max_steps for s in out)

    def digest(self, out) -> str:
        return _summaries_digest(out)

    def counts(self, out) -> dict:
        return {}


class NodeDense:
    """One crowded node: 8 tenants, Table IV noise, churn and ``chaos``.

    The event loop is the whole unit (the three ladders are warmed in
    set-up), with 20-30 concurrent streams and injected media errors, so
    core-layer work is ~0 here.
    """

    name = "node_dense"
    quick_units = 4
    rss_units = 32
    periods = 200
    tenants = 8
    churn = ChurnSpec(arrival_rate=1.0 / 60.0, max_concurrent=16)

    def setup(self, seed: int) -> None:
        # Cold memo, so every timed set-up really builds the three ladders.
        memo.clear_cache()
        self.seed = seed
        warm = api.ScenarioSession(api.ScenarioConfig(seed=seed))
        for app in APPS:
            warm.build_ladder(app=app, seed=seed)

    def inputs(self, i: int):
        return api.ScenarioConfig(max_steps=self.periods, seed=_unit_seed(self.seed, i))

    def run(self, config):
        session = api.ScenarioSession(config)
        session.launch_noise()
        session.launch_churn(self.churn)
        session.apply_faults("chaos")
        for k in range(self.tenants):
            _, _, ladder = session.build_ladder(app=APPS[k % 3], seed=self.seed)
            dataset = session.stage(f"tenant{k}-data", ladder)
            controller = session.build_controller(ladder, priority=PRIORITIES[(k // 3) % 3])
            session.add_analytics(f"tenant{k}", dataset, controller)
        final_time = session.run(horizon=self.periods * config.period, chunk=None)
        records = {name: list(d.records) for name, d in session.drivers.items()}
        return final_time, records, session.sim.events_executed

    def check(self, config, out) -> bool:
        final_time, records, _ = out
        return final_time == self.periods * config.period and all(records.values())

    def digest(self, out) -> str:
        final_time, records, events = out
        rows = {name: [dataclasses.astuple(r) for r in recs] for name, recs in records.items()}
        return repr((final_time, events, sorted(rows.items())))

    def counts(self, out) -> dict:
        recs = [r for rs in out[1].values() for r in rs]
        return {
            "storage.read_errors": sum(r.read_errors for r in recs),
            "workloads.skipped_objects": sum(r.skipped_objects for r in recs),
        }


class SweepPool:
    """``--workers 2`` on a small grid: a fresh pool per 8-cell sweep.

    Spawn, import and pickle cost dominate; ``scenario_sweep`` is the
    serial path that bypasses them.
    """

    name = "sweep_pool"
    quick_units = 2
    # The children's peak is the largest pool worker's, which depends on
    # which cells it ran; after 8 units 2 runs in 20 had not reached it.
    rss_units = 24
    cells = 8
    max_steps = 4

    def setup(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, i: int):
        base = _unit_seed(self.seed, i) * self.cells
        return [
            api.ScenarioConfig(
                app=APPS[j % 3], policy=POLICIES[j % 4], max_steps=self.max_steps, seed=base + j
            )
            for j in range(self.cells)
        ]

    def run(self, configs):
        with api.SweepExecutor(workers=pool_workers()) as executor:
            return executor.run_scenarios(configs)

    def check(self, configs, out) -> bool:
        if len(out) != len(configs) or any(s.num_records != self.max_steps for s in out):
            return False
        # One cell per sweep, re-run serially in-process, must match.  The
        # re-run's ladder is dropped again so the check does not grow this
        # process's memory (peak_rss_mb) with the unit count.
        j = (configs[0].seed // self.cells) % self.cells
        ok = api.SweepExecutor(workers=1).run_scenarios([configs[j]])[0] == out[j]
        memo.clear_cache()
        return ok

    def digest(self, out) -> str:
        return _summaries_digest(out)

    def counts(self, out) -> dict:
        return {}


class ClusterRounds:
    """Node-sharded cluster runs, alternating centralized and AdapTBF.

    The only workload with shard IPC and the cross-shard bus; its event
    mix (token-bucket nodes, no ``BlockDevice``) differs from the rest.
    """

    name = "cluster_rounds"
    quick_units = 2
    rss_units = 8
    arbitration = ("centralized", "adaptbf")

    def setup(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, i: int):
        return api.ClusterConfig(
            n_nodes=16,
            tenants_per_node=8,
            shards=4,
            workers=pool_workers(),
            rounds=20,
            request_bytes=256 * KiB,
            collect_round_stats=True,
            arbitration=self.arbitration[i % 2],
            seed=_unit_seed(self.seed, i),
        )

    def run(self, config):
        return api.run_cluster(config)

    def check(self, config, out) -> bool:
        return out.conservation_error < 1e-9 and out.sim_time == config.horizon

    def digest(self, out) -> str:
        return out.fingerprint()

    def counts(self, out) -> dict:
        return {"cluster.messages": out.messages_total, "cluster.events": out.events_executed}


WORKLOADS = {wl.name: wl for wl in (ScenarioSweep, NodeDense, SweepPool, ClusterRounds)}
