"""Tests for repro.experiments.runner — the full-scenario runner."""

import numpy as np
import pytest

from repro.experiments.config import ScenarioConfig
from repro.engine.session import make_weight_function
from repro.engine.memo import ladder_for_app
from repro.experiments.runner import run_scenario
from repro.apps import make_app
from repro.core.error_control import ErrorMetric
from repro.workloads.noise import TABLE_IV_NOISE

FAST = dict(max_steps=8, seed=0)


@pytest.fixture(scope="module")
def cross_result():
    return run_scenario(ScenarioConfig(policy="cross-layer", **FAST))


class TestConfig:
    def test_with_copies(self):
        cfg = ScenarioConfig()
        other = cfg.with_(app="cfd", priority=5.0)
        assert other.app == "cfd" and other.priority == 5.0
        assert cfg.app == "xgc"  # original untouched

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(policy="ml-magic")

    def test_error_control_requires_bound(self):
        with pytest.raises(ValueError):
            ScenarioConfig(prescribed_bound=None, error_control=True)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(error_bounds=())

    def test_max_steps_validated(self):
        with pytest.raises(ValueError):
            ScenarioConfig(max_steps=0)


class TestBuildLadder:
    def test_builds_for_each_app(self):
        for name in ("xgc", "genasis", "cfd"):
            app = make_app(name)
            data, ladder = ladder_for_app(
                app,
                grid_shape=(64, 64),
                decimation_ratio=16,
                metric=ErrorMetric.NRMSE,
                error_bounds=(0.1, 0.01),
                seed=0,
            )
            assert data.shape == (64, 64)
            assert ladder.num_buckets == 2


class TestMakeWeightFunction:
    def test_from_ladder(self, cross_result):
        wf = make_weight_function(cross_result.ladder)
        heavy = max(b.cardinality for b in cross_result.ladder.buckets)
        bounds = cross_result.ladder.budget.bounds
        assert wf(heavy, bounds[0], 10.0) == 1000

    def test_ablated_flags(self, cross_result):
        wf = make_weight_function(cross_result.ladder, use_priority=False)
        assert wf(1000, 0.01, 1.0) == wf(1000, 0.01, 10.0)


class TestRunScenario:
    def test_records_all_steps(self, cross_result):
        assert len(cross_result.records) == 8

    def test_deterministic_for_seed(self):
        a = run_scenario(ScenarioConfig(policy="cross-layer", **FAST))
        b = run_scenario(ScenarioConfig(policy="cross-layer", **FAST))
        np.testing.assert_array_equal(a.io_times, b.io_times)
        np.testing.assert_array_equal(a.measured_bandwidths, b.measured_bandwidths)

    def test_seed_changes_run(self):
        a = run_scenario(ScenarioConfig(policy="cross-layer", max_steps=8, seed=0))
        b = run_scenario(ScenarioConfig(policy="cross-layer", max_steps=8, seed=1))
        assert not np.array_equal(a.io_times, b.io_times)

    def test_result_statistics(self, cross_result):
        assert cross_result.mean_io_time == pytest.approx(cross_result.io_times.mean())
        assert cross_result.std_io_time == pytest.approx(cross_result.io_times.std())
        assert len(cross_result.step_times) == 8

    def test_outcome_error_cached_per_rung(self, cross_result):
        e1 = cross_result.outcome_error_at_rung(1)
        e2 = cross_result.outcome_error_at_rung(1)
        assert e1 == e2
        assert 1 in cross_result._outcome_cache

    def test_outcome_error_decreases_with_rung(self, cross_result):
        errs = [
            cross_result.outcome_error_at_rung(m)
            for m in range(cross_result.ladder.num_buckets + 1)
        ]
        assert errs[-1] <= errs[0] + 1e-9

    def test_weight_history_for_cross_layer(self, cross_result):
        assert cross_result.weight_history, "cross-layer must adjust weights"

    def test_no_weights_for_no_adaptivity(self):
        res = run_scenario(ScenarioConfig(policy="no-adaptivity", **FAST))
        assert res.weight_history == []
        assert all(r.target_rung == res.ladder.num_buckets for r in res.records)

    def test_app_only_leaves_weight_default(self):
        res = run_scenario(ScenarioConfig(policy="app-only", **FAST))
        assert res.weight_history == []

    def test_error_control_enforces_prescription(self):
        """With error control, every step reaches at least the prescribed rung."""
        cfg = ScenarioConfig(
            policy="cross-layer",
            decimation_ratio=256,
            prescribed_bound=0.01,
            max_steps=8,
            seed=0,
        )
        res = run_scenario(cfg)
        prescribed = res.ladder.find_bucket_for_bound(0.01)
        assert prescribed >= 1
        assert all(r.target_rung >= prescribed for r in res.records)

    def test_noise_count_respected(self):
        res = run_scenario(
            ScenarioConfig(policy="no-adaptivity", noise=TABLE_IV_NOISE[:2], **FAST)
        )
        assert len(res.records) == 8

    def test_mean_latency_to_rung(self, cross_result):
        lat = cross_result.mean_latency_to_rung(0)
        assert lat == pytest.approx(cross_result.mean_io_time)
        with pytest.raises(RuntimeError):
            cross_result.mean_latency_to_rung(99)

    def test_psnr_metric_scenario(self):
        cfg = ScenarioConfig(
            metric=ErrorMetric.PSNR,
            error_bounds=(20.0, 30.0, 45.0),
            prescribed_bound=30.0,
            policy="cross-layer",
            **FAST,
        )
        res = run_scenario(cfg)
        assert len(res.records) == 8
