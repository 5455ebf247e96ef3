"""Tests for repro.engine — registries, memo cache, sessions, sweeps.

The fingerprint tests pin the exact numerical behaviour of the ported
entry points (``run_scenario``, ``run_multi_scenario``, ``run_campaign``)
to hashes recorded from the pre-engine implementations: the refactor onto
``ScenarioSession`` must be bit-identical per seed, not just "close".
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
import tracemalloc
import weakref

import pytest

from repro.engine import memo, sweep
from repro.engine.registry import (
    APPS,
    ESTIMATORS,
    PLACEMENTS,
    POLICIES,
    Registry,
    register_estimator,
)
from repro.engine.sweep import ScenarioSummary, SweepExecutor, resolve_workers
from repro.experiments.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.experiments.config import ScenarioConfig
from repro.experiments.multi import TenantSpec, run_multi_scenario
from repro.experiments.runner import ScenarioResult, run_scenario
from repro.obs import OBS, enabled_scope
from repro.storage.device import DEVICE_PRESETS
from repro.storage.tier import TieredStorage
from tests import sweep_jobs
from tests.scalar_oracle import ScalarSimulation


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("widget")
        reg.register("a", object)
        assert reg.get("a") is object
        assert "a" in reg
        assert reg.names() == ("a",)

    def test_decorator_form(self):
        reg = Registry("widget")

        @reg.register("fancy")
        def make_fancy():
            return "fancy!"

        assert reg.create("fancy") == "fancy!"
        assert make_fancy() == "fancy!"  # decorator returns the target

    def test_duplicate_name_raises(self):
        reg = Registry("widget")
        reg.register("a", object)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", int)

    def test_reregistering_same_object_is_idempotent(self):
        reg = Registry("widget")
        reg.register("a", object)
        reg.register("a", object)  # same target: no error
        assert reg.get("a") is object

    def test_overwrite(self):
        reg = Registry("widget")
        reg.register("a", object)
        reg.register("a", int, overwrite=True)
        assert reg.get("a") is int

    def test_unregister(self):
        reg = Registry("widget")
        reg.register("a", object)
        reg.unregister("a")
        assert "a" not in reg
        reg.unregister("a")  # idempotent

    def test_unknown_name_lists_options(self):
        reg = Registry("widget")
        reg.register("alpha", object)
        reg.register("beta", object)
        with pytest.raises(ValueError, match="alpha.*beta"):
            reg.get("nope")

    def test_bad_name_rejected(self):
        reg = Registry("widget")
        with pytest.raises(ValueError):
            reg.register("", object)
        with pytest.raises(ValueError):
            reg.register(3, object)  # type: ignore[arg-type]

    def test_builtin_registries_are_populated(self):
        assert set(ESTIMATORS.names()) >= {"dft", "mean", "last"}
        assert set(POLICIES.names()) >= {
            "no-adaptivity",
            "app-only",
            "storage-only",
            "cross-layer",
        }
        assert set(PLACEMENTS.names()) >= {"level", "capacity"}
        assert set(APPS.names()) >= {"xgc", "genasis", "cfd"}

    def test_plugged_estimator_is_valid_in_config(self):
        register_estimator("test-constant", lambda config: None)
        try:
            cfg = ScenarioConfig(estimator="test-constant")
            assert cfg.estimator == "test-constant"
        finally:
            ESTIMATORS.unregister("test-constant")
        with pytest.raises(ValueError, match="unknown estimator"):
            ScenarioConfig(estimator="test-constant")


class TestConfigValidation:
    def test_period_must_be_positive(self):
        with pytest.raises(ValueError, match="period"):
            ScenarioConfig(period=0.0)
        with pytest.raises(ValueError, match="period"):
            ScenarioConfig(period=-60.0)

    def test_bw_bounds_must_be_ordered(self):
        with pytest.raises(ValueError, match="bw_low"):
            ScenarioConfig(bw_low=100.0, bw_high=100.0)
        with pytest.raises(ValueError, match="bw_low"):
            ScenarioConfig(bw_low=200.0, bw_high=100.0)

    def test_unknown_component_names(self):
        with pytest.raises(ValueError, match="unknown policy"):
            ScenarioConfig(policy="nope")

    @pytest.mark.parametrize("option", ["kernel", "dispatch"])
    def test_removed_kernel_options_rejected(self, option):
        with pytest.raises(TypeError):
            ScenarioConfig(**{option: "scalar"})


class TestEmptyRecordGuards:
    def _empty_scenario_result(self) -> ScenarioResult:
        return ScenarioResult(
            config=ScenarioConfig(max_steps=1),
            records=[],
            ladder=None,
            dataset=None,
            app=None,
            original=None,
            weight_history=[],
            final_time=0.0,
        )

    def test_scenario_result_raises_not_nan(self):
        res = self._empty_scenario_result()
        with pytest.raises(ValueError, match="no step records"):
            res.mean_io_time
        with pytest.raises(ValueError, match="no step records"):
            res.std_io_time

    def test_campaign_result_raises_not_nan(self):
        res = CampaignResult(
            config=CampaignConfig(steps=2),
            records=[],
            estimation_diagnostics={},
            final_time=0.0,
        )
        with pytest.raises(ValueError, match="no step records"):
            res.mean_io_time
        with pytest.raises(ValueError, match="no step records"):
            res.half_means()


class TestMemoCache:
    def test_hit_and_miss_accounting(self):
        from repro.apps import make_app

        memo.clear_cache()
        app = make_app("xgc")
        kwargs = dict(
            grid_shape=(64, 64),
            decimation_ratio=4,
            metric=ScenarioConfig(max_steps=1).metric,
            error_bounds=(0.1, 0.01),
            seed=7,
        )
        data1, ladder1 = memo.ladder_for_app(app, **kwargs)
        data2, ladder2 = memo.ladder_for_app(app, **kwargs)
        assert data1 is data2 and ladder1 is ladder2
        info = memo.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

        memo.ladder_for_app(app, **{**kwargs, "seed": 8})
        assert memo.cache_info()["misses"] == 2
        memo.clear_cache()
        assert memo.cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_full_cache_evicts_least_recently_used_before_building(self, monkeypatch):
        from repro.apps import make_app

        memo.clear_cache()
        monkeypatch.setattr(memo, "_MAX_ENTRIES", 2)
        sizes_at_build = []
        real_build = memo.build_ladder

        def recording_build(*args, **kwargs):
            sizes_at_build.append(memo.cache_info()["size"])
            return real_build(*args, **kwargs)

        monkeypatch.setattr(memo, "build_ladder", recording_build)
        app = make_app("xgc")
        kwargs = dict(
            grid_shape=(32, 32),
            decimation_ratio=4,
            metric=ScenarioConfig(max_steps=1).metric,
            error_bounds=(0.1,),
        )
        memo.ladder_for_app(app, seed=1, **kwargs)
        memo.ladder_for_app(app, seed=2, **kwargs)
        memo.ladder_for_app(app, seed=1, **kwargs)  # hit: seed 1 is now most recent
        memo.ladder_for_app(app, seed=3, **kwargs)
        # The third key was built with one entry held, not two.
        assert sizes_at_build == [0, 1, 1]
        assert memo.cache_info() == {"hits": 1, "misses": 3, "size": 2}
        # Seed 2 was the least recently used, so it went; seed 1 stayed.
        memo.ladder_for_app(app, seed=1, **kwargs)
        assert memo.cache_info()["hits"] == 2
        memo.ladder_for_app(app, seed=2, **kwargs)
        assert memo.cache_info()["misses"] == 4
        memo.clear_cache()

    def test_cached_field_is_read_only(self):
        from repro.apps import make_app

        memo.clear_cache()
        data, _ = memo.ladder_for_app(
            make_app("xgc"),
            grid_shape=(64, 64),
            decimation_ratio=4,
            metric=ScenarioConfig(max_steps=1).metric,
            error_bounds=(0.1,),
            seed=0,
        )
        with pytest.raises(ValueError):
            data[0, 0] = 0.0
        memo.clear_cache()

    def test_entry_keeps_only_what_the_ladder_reads(self):
        from repro.apps import make_app

        cfg = ScenarioConfig()
        kwargs = dict(
            grid_shape=cfg.grid_shape,
            decimation_ratio=cfg.decimation_ratio,
            metric=cfg.metric,
            error_bounds=tuple(cfg.error_bounds),
        )
        app = make_app(cfg.app)
        memo.ladder_for_app(app, seed=cfg.seed + 1, **kwargs)  # warm lazy imports
        memo.clear_cache()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, ladder = memo.ladder_for_app(app, seed=cfg.seed, **kwargs)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert not hasattr(ladder.decomposition, "_ladder_scratch")
        # The field and the stream: 1.44 MiB.  The entry held 7.07 MiB
        # with the construction scratch, and 2.30 MiB with the dense
        # augmentations and a per-coefficient level array.
        assert held <= 1.6 * 2**20, f"memo entry holds {held / 2**20:.2f} MiB"
        memo.clear_cache()

    def test_default_scenario_never_builds_dense_augmentations(self):
        memo.clear_cache()
        res = run_scenario(ScenarioConfig())
        assert res.mean_outcome_error >= 0.0  # reconstructs at every rung used
        dec = res.ladder.decomposition
        assert dec.num_levels > 1
        assert "augmentations" not in vars(dec)
        memo.clear_cache()

    def test_clear_cache_frees_an_entry_without_gc(self):
        from repro.apps import make_app

        memo.clear_cache()
        _, ladder = memo.ladder_for_app(
            make_app("xgc"),
            grid_shape=(64, 64),
            decimation_ratio=4,
            metric=ScenarioConfig(max_steps=1).metric,
            error_bounds=(0.1, 0.01),
            seed=0,
        )
        ref = weakref.ref(ladder.decomposition)
        gc.disable()
        try:
            del ladder
            memo.clear_cache()
            assert ref() is None, "a reference cycle keeps the entry alive"
        finally:
            gc.enable()


def _rec_tuple(r):
    return (
        r.step,
        r.started_at,
        r.io_time,
        r.io_bytes,
        r.target_rung,
        r.prescribed_rung,
        r.predicted_bw,
        r.measured_bw,
        tuple(r.weights),
        r.probe_used,
        r.read_errors,
        r.base_time,
        tuple(r.bucket_times),
    )


def _three_tier(sim):
    """The Fig. 3 hierarchy: HDD capacity, SATA SSD middle, NVMe performance."""
    names = ("seagate-hdd-2t", "intel-ssd-400", "nvme-p4510")
    return TieredStorage(sim, [DEVICE_PRESETS[n] for n in names])


def _fingerprint(records, extras):
    payload = json.dumps([list(_rec_tuple(r)) for r in records] + extras)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestBehaviourFingerprints:
    """Recorded from the pre-engine implementations; must never drift."""

    def test_run_scenario(self):
        res = run_scenario(ScenarioConfig(max_steps=6, seed=3))
        assert (
            _fingerprint(res.records, [res.final_time, res.weight_history])
            == "3303f5b2ae6bf5dd97a7b64fcd6a5aa10737915fdfbc5a9dfb52c2ae55dee80e"
        )

    def test_run_scenario_three_tier(self):
        res = run_scenario(
            ScenarioConfig(max_steps=5, seed=1, policy="storage-only", estimator="mean"),
            storage_factory=_three_tier,
        )
        assert (
            _fingerprint(res.records, [res.final_time])
            == "d333e2fabe613fd0be3ab5eb75f2b7802a81847d98c94f1e201a513582760593"
        )

    def test_run_multi_scenario(self):
        mres = run_multi_scenario(
            [
                TenantSpec("hi", priority=10.0, seed=0),
                TenantSpec("lo", priority=1.0, seed=1),
            ],
            ScenarioConfig(max_steps=4, seed=5),
        )
        assert (
            _fingerprint(
                mres["hi"].records + mres["lo"].records, [mres.final_time]
            )
            == "1a54d4b48e4f444756a021047ced6da8c6f1618d79920e3f899f324a628fe620"
        )

    def test_run_campaign(self):
        cres = run_campaign(CampaignConfig(steps=5, timeseries_window=2, seed=2))
        assert (
            _fingerprint(cres.records, [cres.final_time])
            == "f859e89e25e6a9772b6d64dd5c41cbaceecb53590b646ef469dd779436c174d5"
        )

    # -- dispatch parity: the scalar oracle must hit the SAME hashes --
    #
    # The runs above use grouped dispatch (consecutive same-handler
    # entries delivered in one batch call); the scalar oracle replays
    # one Python callback per entry.  Identical hashes prove grouped
    # dispatch is execution-order and bit identical.

    @pytest.fixture
    def scalar_sessions(self, monkeypatch):
        monkeypatch.setattr("repro.engine.session.Simulation", ScalarSimulation)

    def test_run_scenario_scalar_dispatch_matches(self, scalar_sessions):
        res = run_scenario(ScenarioConfig(max_steps=6, seed=3))
        assert (
            _fingerprint(res.records, [res.final_time, res.weight_history])
            == "3303f5b2ae6bf5dd97a7b64fcd6a5aa10737915fdfbc5a9dfb52c2ae55dee80e"
        )

    def test_run_scenario_three_tier_scalar_dispatch_matches(self, scalar_sessions):
        res = run_scenario(
            ScenarioConfig(max_steps=5, seed=1, policy="storage-only", estimator="mean"),
            storage_factory=_three_tier,
        )
        assert (
            _fingerprint(res.records, [res.final_time])
            == "d333e2fabe613fd0be3ab5eb75f2b7802a81847d98c94f1e201a513582760593"
        )

    def test_run_multi_scenario_scalar_dispatch_matches(self, scalar_sessions):
        mres = run_multi_scenario(
            [
                TenantSpec("hi", priority=10.0, seed=0),
                TenantSpec("lo", priority=1.0, seed=1),
            ],
            ScenarioConfig(max_steps=4, seed=5),
        )
        assert (
            _fingerprint(
                mres["hi"].records + mres["lo"].records, [mres.final_time]
            )
            == "1a54d4b48e4f444756a021047ced6da8c6f1618d79920e3f899f324a628fe620"
        )

    def test_run_campaign_scalar_dispatch_matches(self, scalar_sessions):
        cres = run_campaign(CampaignConfig(steps=5, timeseries_window=2, seed=2))
        assert (
            _fingerprint(cres.records, [cres.final_time])
            == "f859e89e25e6a9772b6d64dd5c41cbaceecb53590b646ef469dd779436c174d5"
        )


def _sweep_configs() -> list[ScenarioConfig]:
    # 8 configs: 2 policies x 4 seeds, kept tiny so the spawn pool's
    # interpreter start-up dominates, not the simulations.
    return [
        ScenarioConfig(policy=p, max_steps=2, seed=s)
        for p in ("no-adaptivity", "cross-layer")
        for s in range(4)
    ]


class TestSweepExecutor:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers("auto") >= 1
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_serial_map_preserves_order(self):
        ex = SweepExecutor(workers=1)
        assert ex.map(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]
        assert not ex.is_parallel

    def test_parallel_matches_serial_exactly(self, pool_always_pays):
        configs = _sweep_configs()
        assert len(configs) >= 8
        serial = SweepExecutor(workers=1).run_scenarios(configs)
        parallel = SweepExecutor(workers=2).run_scenarios(configs)
        assert len(serial) == len(parallel) == len(configs)
        for i, (a, b) in enumerate(zip(serial, parallel)):
            assert isinstance(a, ScenarioSummary)
            assert a == b, f"summary {i} differs between serial and parallel"
            assert a.config == configs[i]

    def test_parallel_speedup_small_grid_stays_in_process(self):
        # Eight max_steps=4 cells cannot repay a spawned pool's start-up,
        # so "auto" runs them here, with the serial run's summaries.
        configs = [ScenarioConfig(max_steps=4, seed=s) for s in range(8)]
        memo.clear_cache()
        serial = SweepExecutor(workers=1).run_scenarios(configs)
        memo.clear_cache()
        with SweepExecutor(workers="auto") as ex:
            auto = ex.run_scenarios(configs)
            assert ex.pool_creations == 0
        assert auto == serial

    @pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2,
        reason="speedup needs at least two CPUs",
    )
    def test_parallel_speedup_once_work_dominates(self):
        # Sleeping jobs keep this independent of CPU speed: jobs 0 and 1
        # each project a saving well above the start-up, so the other six
        # go to one pool and the map beats the serial sum.
        jobs = list(range(8))
        t0 = time.perf_counter()
        with SweepExecutor(workers=2) as ex:
            out = ex.map(sweep_jobs.sleep_job, jobs)
            assert ex.pool_creations == 1
        elapsed = time.perf_counter() - t0
        assert out == jobs
        assert elapsed < len(jobs) * sweep_jobs.SLEEP_S, (
            f"pooled map ({elapsed:.2f}s) not faster than the serial sum "
            f"({len(jobs) * sweep_jobs.SLEEP_S:.2f}s)"
        )

    def test_summary_matches_full_result(self):
        cfg = ScenarioConfig(max_steps=3, seed=11)
        full = run_scenario(cfg)
        (summary,) = SweepExecutor().run_scenarios([cfg], outcome_error=True)
        assert summary.num_records == len(full.records)
        assert summary.mean_io_time == full.mean_io_time
        assert summary.std_io_time == full.std_io_time
        assert summary.mean_target_rung == full.mean_target_rung
        assert summary.final_time == full.final_time
        assert summary.mean_outcome_error == full.mean_outcome_error

    def test_outcome_error_omitted_by_default(self):
        cfg = ScenarioConfig(max_steps=2, seed=0)
        (summary,) = SweepExecutor().run_scenarios([cfg])
        assert summary.mean_outcome_error is None


def _square(x: int) -> int:
    """Module-level so the spawn pool can pickle it."""
    return x * x


@pytest.fixture
def pool_always_pays(monkeypatch):
    """Make every gated map start a pool, so a test drives a real one.

    With no start-up cost and two usable CPUs, any first job with a
    nonzero time projects a saving, on any host.
    """
    monkeypatch.setattr(sweep, "_POOL_START_S", 0.0)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)


@pytest.mark.usefixtures("pool_always_pays")
class TestSweepExecutorWarmPool:
    def test_pool_spawned_once_across_maps(self):
        # The warm-pool satellite: two parallel maps over one executor
        # must reuse the same process pool, not respawn per call.
        with SweepExecutor(workers=2) as ex:
            first = ex.map(_square, range(6))
            second = ex.map(_square, range(6, 12))
            assert first == [x * x for x in range(6)]
            assert second == [x * x for x in range(6, 12)]
            assert ex.pool_creations == 1

    def test_serial_map_never_spawns(self):
        ex = SweepExecutor(workers=1)
        assert ex.map(_square, range(4)) == [0, 1, 4, 9]
        assert ex.pool_creations == 0

    def test_single_job_skips_pool_even_when_parallel(self):
        with SweepExecutor(workers=2) as ex:
            assert ex.map(_square, [3]) == [9]
            assert ex.pool_creations == 0

    def test_close_then_map_respawns(self):
        with SweepExecutor(workers=2) as ex:
            ex.map(_square, range(4))
            ex.close()
            ex.close()  # idempotent
            ex.map(_square, range(4))
            assert ex.pool_creations == 2

    def test_first_job_runs_in_the_parent(self):
        # Job 0 projects a saving, so job 1 is timed here too before the
        # rest go to the pool.
        with SweepExecutor(workers=2) as ex:
            pids = ex.map(sweep_jobs.pid_job, range(4))
            assert ex.pool_creations == 1
        assert pids[:2] == [os.getpid()] * 2
        assert all(pid != os.getpid() for pid in pids[2:])


class TestSweepGate:
    def test_one_usable_cpu_never_pools(self, monkeypatch):
        # W = min(workers, r, CPUs) = 1 projects no saving at all.
        monkeypatch.setattr(sweep, "_POOL_START_S", 0.0)
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 1)
        with SweepExecutor(workers=2) as ex:
            assert ex.map(_square, range(6)) == [x * x for x in range(6)]
            assert ex.pool_creations == 0

    def test_one_off_cost_in_job_0_starts_no_pool(self, monkeypatch):
        # Job 0 alone projects (7 - 4) x 0.6 s saved, above the start-up;
        # job 1 shows the rest cost nothing, so they stay here.
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
        with SweepExecutor(workers=2) as ex:
            assert ex.map(sweep_jobs.first_slow_job, range(8)) == list(range(8))
            assert ex.pool_creations == 0

    def test_telemetry_records_serial_path_and_first_job(self):
        OBS.reset()
        try:
            SweepExecutor(workers=2).map(_square, range(3))
            assert len(OBS.registry) == 0  # telemetry off: nothing recorded
            with enabled_scope():
                SweepExecutor(workers=1).map(_square, range(3))
                assert "sweep.first_job_s" not in OBS.registry  # no gate ran
                with SweepExecutor(workers=2) as ex:
                    ex.map(_square, range(3))
            maps = OBS.registry.get("sweep.maps")
            assert maps.value(path="serial") == 2
            assert maps.value(path="pool") == 0
            first_s = OBS.registry.get("sweep.first_job_s").value()
            assert 0.0 < first_s < sweep._POOL_START_S
        finally:
            OBS.reset()

    def test_telemetry_records_pool_path(self, pool_always_pays):
        OBS.reset()
        try:
            with enabled_scope(), SweepExecutor(workers=2) as ex:
                ex.map(_square, range(4))  # gate: job 0 here, then a pool
                ex.map(_square, range(4))  # warm pool: no gate
            assert OBS.registry.get("sweep.maps").value(path="pool") == 2
            assert OBS.registry.get("sweep.first_job_s").value() > 0.0
        finally:
            OBS.reset()


class TestWorkersEnvOverride:
    def test_env_caps_explicit_and_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert resolve_workers(8) == 2
        assert resolve_workers("auto") <= 2
        assert resolve_workers(1) == 1  # cap never raises the count

    def test_env_unset_is_no_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(8) == 8

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(4)
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(4)
