"""Tests for the campaign composition (time series + churn + degradation)."""

import pytest

from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.workloads.churn import ChurnSpec

FAST_CHURN = ChurnSpec(arrival_rate=1 / 120.0, mean_lifetime=600.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(steps=1)
        with pytest.raises(ValueError):
            CampaignConfig(timeseries_window=0)
        with pytest.raises(ValueError):
            CampaignConfig(degrade_to=0.0)


class TestCampaign:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(
            CampaignConfig(steps=20, timeseries_window=4, churn=FAST_CHURN, seed=0)
        )

    def test_all_steps_complete(self, result):
        assert len(result.records) == 20

    def test_deterministic(self, result):
        again = run_campaign(
            CampaignConfig(steps=20, timeseries_window=4, churn=FAST_CHURN, seed=0)
        )
        assert [r.io_time for r in again.records] == [
            r.io_time for r in result.records
        ]

    def test_diagnostics_available(self, result):
        assert result.estimation_diagnostics["fitted"] == 1.0

    def test_format(self, result):
        text = result.format_rows()
        assert "Campaign" in text and "sparkline" in text

    def test_half_means(self, result):
        first, second = result.half_means()
        assert first > 0 and second > 0


class TestDegradedCampaign:
    def _run(self, policy: str, seed: int):
        return run_campaign(
            CampaignConfig(
                policy=policy,
                steps=24,
                timeseries_window=4,
                churn=FAST_CHURN,
                degrade_to=0.4,
                estimation_interval=8,
                seed=seed,
            )
        )

    def test_adaptive_faster_after_degradation(self):
        """After the midpoint slowdown, the adaptive campaign's absolute
        second-half I/O time beats the static baseline's (mean of 3 seeds;
        the first-half ratio is confounded by the pre-degradation gap)."""
        import numpy as np

        cross = np.mean([self._run("cross-layer", s).half_means()[1] for s in (0, 1, 2)])
        static = np.mean(
            [self._run("no-adaptivity", s).half_means()[1] for s in (0, 1, 2)]
        )
        assert cross < static

    def test_adaptive_lowers_rungs_after_degradation(self):
        res = self._run("cross-layer", 1)
        r1, r2 = res.rung_half_means()
        assert r2 < r1


def test_storage_only_campaign_weighs_by_cardinality_only(monkeypatch):
    """A storage-only campaign programs the weights its policy defines
    everywhere else: cardinality only, whatever the bucket's bound or the
    tenant's priority."""
    from repro.core.controller import StorageOnlyPolicy
    from repro.engine.session import ScenarioSession

    ladders = []
    build_controller = ScenarioSession.build_controller

    def spy(self, ladder, **kwargs):
        ladders.append(ladder)
        return build_controller(self, ladder, **kwargs)

    monkeypatch.setattr(ScenarioSession, "build_controller", spy)
    res = run_campaign(
        CampaignConfig(policy="storage-only", steps=3, timeseries_window=2, seed=2)
    )
    (reference,) = ladders
    weight_fn = StorageOnlyPolicy.build_weight_function(reference)
    expected = tuple(
        weight_fn(b.cardinality, b.bound, 10.0) for b in reference.buckets
    )
    assert res.records
    assert all(r.weights == expected for r in res.records)
