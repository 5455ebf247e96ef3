"""Extension benches: features beyond the paper's evaluation section.

* three-tier hierarchy under fast-tier capacity pressure (Fig. 3's
  illustrated hierarchy, exercised end to end);
* job churn — the "applications come and go" environment that motivates
  periodic re-estimation;
* rung granularity — how the number of error bounds b trades adaptation
  resolution against metadata.
"""

import numpy as np

from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.experiments.runner import run_scenario
from repro.experiments.threetier import run_threetier


def test_extension_threetier(benchmark, emit):
    res = benchmark.pedantic(
        lambda: run_threetier(replications=2, max_steps=50), rounds=1, iterations=1
    )
    emit("extension_threetier", res.format_rows())
    assert (
        res.cell("three-tier").capacity_tier_buckets
        < res.cell("two-tier").capacity_tier_buckets
    )
    assert res.speedup() >= 1.0


def test_extension_churn(benchmark, emit):
    """Cross-layer still beats no-adaptivity when the noise population
    churns instead of being the fixed Table IV mix."""
    from repro.containers import ContainerRuntime
    from repro.core.abplot import AugmentationBandwidthPlot
    from repro.control import ControllerConfig, TangoController
    from repro.core.controller import make_policy
    from repro.experiments.config import DEFAULTS
    from repro.engine.session import make_weight_function
    from repro.engine.memo import ladder_for_app
    from repro.apps import make_app
    from repro.simkernel import Simulation
    from repro.storage.staging import stage_dataset
    from repro.storage.tier import TieredStorage
    from repro.workloads.analytics import AnalyticsDriver
    from repro.workloads.churn import ChurnSpec, launch_churn

    def run_one(policy: str, seed: int) -> float:
        sim = Simulation()
        storage = TieredStorage.two_tier_testbed(sim)
        runtime = ContainerRuntime(sim)
        launch_churn(
            runtime,
            storage.slowest,
            ChurnSpec(arrival_rate=1 / 120.0, mean_lifetime=900.0),
            seed=seed + 100,
        )
        app = make_app("xgc")
        _, ladder = ladder_for_app(
            app,
            grid_shape=DEFAULTS.grid_shape,
            decimation_ratio=DEFAULTS.decimation_ratio,
            metric=ScenarioConfig().metric,
            error_bounds=ScenarioConfig().error_bounds,
            seed=seed,
        )
        dataset = stage_dataset("data", ladder, storage, size_scale=DEFAULTS.size_scale)
        wf = make_weight_function(ladder) if policy == "cross-layer" else None
        controller = TangoController(
            ladder,
            make_policy(policy, wf),
            AugmentationBandwidthPlot(bw_low=DEFAULTS.bw_low, bw_high=DEFAULTS.bw_high),
            # no error control (prescribed bound = base error), like Fig 8
            config=ControllerConfig(
                prescribed_bound=ladder.base_error, priority=10.0
            ),
        )
        container = runtime.create("analytics")
        driver = AnalyticsDriver(container, dataset, controller, max_steps=50)
        container.attach(sim.process(driver.workload()))
        sim.run(until=50 * 60.0 + 600.0)
        runtime.stop_all()
        return driver.mean_io_time

    def run():
        rows = []
        for policy in ("no-adaptivity", "cross-layer"):
            rows.append((policy, float(np.mean([run_one(policy, s) for s in (0, 1)]))))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "extension_churn",
        format_table(
            ["Policy", "Mean I/O (s)"],
            [(n, f"{v:.2f}") for n, v in rows],
            title="Extension: adaptivity under job churn",
        ),
    )
    by_name = dict(rows)
    assert by_name["cross-layer"] <= by_name["no-adaptivity"]


def test_extension_aging_disk(benchmark, emit):
    """Runtime device degradation: when the capacity tier loses 70 % of
    its speed mid-run, the cross-layer controller re-learns the bandwidth
    and retrieves fewer rungs, containing the I/O-time blow-up that the
    static baseline suffers."""
    from repro.storage.tier import TieredStorage

    def run_one(policy: str, degrade: bool, seed: int):
        def factory(sim):
            storage = TieredStorage.two_tier_testbed(sim)
            if degrade:
                sim.schedule(600.0, storage.slowest.device.set_speed_factor, 0.3)
            return storage

        cfg = ScenarioConfig(policy=policy, max_steps=40, error_control=False, seed=seed)
        return run_scenario(cfg, storage_factory=factory)

    def run():
        rows = []
        for policy in ("no-adaptivity", "cross-layer"):
            res = [run_one(policy, True, s) for s in (0, 1)]
            late = [
                r.io_time
                for rr in res
                for r in rr.records
                if r.started_at > 900.0
            ]
            rows.append((policy, float(np.mean(late)) if late else float("inf"),
                         len(late) / len(res)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "extension_aging_disk",
        format_table(
            ["Policy", "Mean I/O after degradation (s)", "Steps completed"],
            [(n, f"{v:.2f}", f"{c:.1f}") for n, v, c in rows],
            title="Extension: capacity tier degraded to 30% speed at t=600s",
        ),
    )
    by_name = {n: (v, c) for n, v, c in rows}
    # The adaptive run keeps making progress and is faster per step.
    assert by_name["cross-layer"][0] < by_name["no-adaptivity"][0]
    assert by_name["cross-layer"][1] >= by_name["no-adaptivity"][1]


def test_extension_staging_cost(benchmark, emit):
    """Staging-phase cost (Fig. 3 step ①): writing the decomposed ladder
    to its tiers before the job starts.  The base lands fast; the finest
    augmentation dominates because it is both the largest object and on
    the slowest tier."""
    from repro.containers import ContainerRuntime
    from repro.core.error_control import ErrorMetric, build_ladder
    from repro.core.refactor import decompose, levels_for_decimation
    from repro.apps import make_app
    from repro.simkernel import Simulation
    from repro.storage.staging import stage_dataset
    from repro.storage.tier import TieredStorage

    def run():
        sim = Simulation()
        storage = TieredStorage.two_tier_testbed(sim)
        runtime = ContainerRuntime(sim)
        field = make_app("xgc").generate((256, 256), seed=0)
        dec = decompose(field, levels_for_decimation(field.shape, 16))
        ladder = build_ladder(dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE)
        ds = stage_dataset("stage-bench", ladder, storage, size_scale=1000.0)
        container = runtime.create("stager")
        proc = sim.process(ds.staging_workload(container.cgroup))
        sim.run()
        return ladder, proc.result

    ladder, durations = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "extension_staging_cost",
        format_table(
            ["Object", "Staging time (s)"],
            [(k, f"{v:.2f}") for k, v in durations.items()],
            title="Extension: staging-phase cost per ladder object",
        ),
    )
    heavy = max(ladder.buckets, key=lambda b: b.cardinality)
    assert durations[f"aug-eps{heavy.index}"] == max(durations.values())
    assert durations["base"] < max(durations.values())


def test_extension_multitenant_fairness(benchmark, emit):
    """Three cross-layer tenants at priorities 1/5/10 sharing the node:
    the weight function's priority term orders their service (Fig. 14a at
    the multi-tenant level), sub-proportionally as the paper cautions."""
    from repro.experiments.multi import TenantSpec, run_multi_scenario

    def run():
        tenants = [
            TenantSpec("low", priority=1.0, prescribed_bound=0.001, seed=3),
            TenantSpec("medium", priority=5.0, prescribed_bound=0.001, seed=3),
            TenantSpec("high", priority=10.0, prescribed_bound=0.001, seed=3),
        ]
        cfg = ScenarioConfig(max_steps=40, decimation_ratio=256,
                             error_bounds=(0.1, 0.01, 0.001))
        return run_multi_scenario(tenants, cfg)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "extension_multitenant",
        format_table(
            ["Tenant", "Priority", "Mean I/O (s)", "Mean weight"],
            [
                (n, f"{res[n].spec.priority:.0f}", f"{res[n].mean_io_time:.2f}",
                 f"{res[n].mean_weight:.0f}")
                for n in ("low", "medium", "high")
            ],
            title="Extension: three tenants, priorities 1/5/10 (eps=0.001)",
        ),
    )
    assert res["high"].mean_weight > res["medium"].mean_weight > res["low"].mean_weight
    assert res["high"].mean_io_time <= res["low"].mean_io_time
    # Sub-proportional: 10x priority buys nowhere near 10x latency.
    assert res["low"].mean_io_time / max(res["high"].mean_io_time, 1e-9) < 10.0


def test_extension_campaign(benchmark, emit):
    """The capstone composition: evolving time-series data + job churn +
    a mid-campaign disk degradation.  The cross-layer campaign's
    post-degradation I/O time stays well below the static baseline's."""
    from repro.experiments.campaign import CampaignConfig, run_campaign
    from repro.workloads.churn import ChurnSpec

    def run():
        out = {}
        for policy in ("cross-layer", "no-adaptivity"):
            res = run_campaign(
                CampaignConfig(
                    policy=policy,
                    steps=40,
                    timeseries_window=6,
                    churn=ChurnSpec(arrival_rate=1 / 120.0, mean_lifetime=600.0),
                    degrade_to=0.4,
                    estimation_interval=10,
                    seed=4,
                )
            )
            out[policy] = res
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "extension_campaign",
        out["cross-layer"].format_rows() + "\n\n" + out["no-adaptivity"].format_rows(),
    )
    cross_second = out["cross-layer"].half_means()[1]
    static_second = out["no-adaptivity"].half_means()[1]
    assert cross_second < static_second


def test_extension_rung_granularity(benchmark, emit):
    """More error bounds give the abplot finer rungs to land on; coarse
    ladders force all-or-nothing augmentation decisions."""

    LADDERS = {
        "b=2": (0.1, 0.001),
        "b=4": (0.1, 0.01, 0.005, 0.001),
        "b=6": (0.1, 0.05, 0.02, 0.01, 0.005, 0.001),
    }

    def run():
        rows = []
        for label, bounds in LADDERS.items():
            ios, rungs = [], []
            for seed in (0, 1):
                cfg = ScenarioConfig(
                    policy="cross-layer",
                    decimation_ratio=256,
                    error_bounds=bounds,
                    prescribed_bound=0.001,
                    max_steps=50,
                    seed=seed,
                )
                res = run_scenario(cfg)
                ios.append(res.mean_io_time)
                rungs.append(res.mean_target_rung / res.ladder.num_buckets)
            rows.append((label, float(np.mean(ios)), float(np.mean(rungs))))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "extension_granularity",
        format_table(
            ["Ladder", "Mean I/O (s)", "Mean rung fraction"],
            [(n, f"{io:.2f}", f"{r:.2f}") for n, io, r in rows],
            title="Extension: error-bound granularity (prescribed 0.001)",
        ),
    )
    assert all(io > 0 for _, io, _ in rows)
