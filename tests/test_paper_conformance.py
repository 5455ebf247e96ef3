"""Conformance tests: the constants and formulas the paper states must be
reflected verbatim in the code's defaults."""

import pytest

from repro.core.weights import BLKIO_WEIGHT_MAX, BLKIO_WEIGHT_MIN
from repro.experiments.config import (
    DEFAULTS,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_MEDIUM,
    ScenarioConfig,
)
from repro.storage.cgroup import DEFAULT_BLKIO_WEIGHT
from repro.util.units import MiB, mb_per_s
from repro.workloads.noise import TABLE_IV_NOISE


class TestSectionIVAConstants:
    """Section IV-A: 'Unless otherwise noted …'"""

    def test_decimation_ratio_16(self):
        assert DEFAULTS.decimation_ratio == 16
        assert ScenarioConfig().decimation_ratio == 16

    def test_default_blkio_weight_100(self):
        assert DEFAULT_BLKIO_WEIGHT == 100

    def test_estimation_every_30_steps(self):
        assert DEFAULTS.estimation_interval == 30
        assert ScenarioConfig().estimation_interval == 30

    def test_analytics_period_60s(self):
        assert DEFAULTS.analytics_period == 60.0
        assert ScenarioConfig().period == 60.0

    def test_dft_thresh_50_percent(self):
        assert DEFAULTS.dft_thresh == 0.5

    def test_abplot_thresholds_30_120(self):
        assert DEFAULTS.bw_low == mb_per_s(30)
        assert DEFAULTS.bw_high == mb_per_s(120)

    def test_priorities_1_5_10(self):
        assert (PRIORITY_LOW, PRIORITY_MEDIUM, PRIORITY_HIGH) == (1.0, 5.0, 10.0)
        assert DEFAULTS.priorities == (1.0, 5.0, 10.0)

    def test_docker_weight_range(self):
        """'the maximum weight (e.g., 1000 in Docker container)' /
        'the minimum weight (e.g., 100 in Docker container)'."""
        assert BLKIO_WEIGHT_MIN == 100
        assert BLKIO_WEIGHT_MAX == 1000


class TestTableIV:
    def test_exact_values(self):
        expected = [
            ("noise-1", 200.0, 768),
            ("noise-2", 225.0, 512),
            ("noise-3", 360.0, 512),
            ("noise-4", 180.0, 1024),
            ("noise-5", 150.0, 1024),
            ("noise-6", 120.0, 1024),
        ]
        got = [(s.name, s.period, s.checkpoint_bytes // MiB) for s in TABLE_IV_NOISE]
        assert got == expected

    def test_six_containers_default(self):
        assert len(ScenarioConfig().noise) == 6


class TestFormulas:
    def test_nrmse_definition(self):
        """NRMSE = sqrt(mean((x - x̂)²)) / (x_max − x_min)."""
        import numpy as np

        from repro.core.metrics import nrmse

        x = np.array([1.0, 3.0, 5.0])
        xh = np.array([1.5, 2.5, 5.5])
        expected = np.sqrt(np.mean((x - xh) ** 2)) / (5.0 - 1.0)
        assert nrmse(x, xh) == pytest.approx(expected)

    def test_psnr_definition(self):
        """PSNR = 10 log10(x_max² / mean((x − x̂)²))."""
        import numpy as np

        from repro.core.metrics import psnr

        x = np.array([2.0, -4.0, 3.0])
        xh = np.array([2.5, -4.5, 2.0])
        mse = np.mean((x - xh) ** 2)
        assert psnr(x, xh) == pytest.approx(10 * np.log10(4.0**2 / mse))

    def test_abplot_linear_coefficients(self):
        """abplot(B̃W) = k₁·B̃W + b₁ on the ramp, 0/1 at the clamps."""
        from repro.core.abplot import AugmentationBandwidthPlot

        ab = AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120))
        bw = mb_per_s(75)
        assert ab.degree(bw) == pytest.approx(ab.k1 * bw + ab.b1)

    def test_weight_function_nrmse_form(self):
        """w = k₂ · |Aug|·p / |lg ε| + b₂ (before clipping)."""
        import math

        from repro.core.error_control import ErrorMetric
        from repro.core.weights import WeightFunction

        wf = WeightFunction.calibrated(
            ErrorMetric.NRMSE,
            cardinality_range=(1_000, 100_000),
            accuracy_range=(0.1, 0.0001),
        )
        card, eps, p = 40_000, 0.01, 5.0
        expected = wf.k2 * (card * p / abs(math.log10(eps))) + wf.b2
        assert wf.raw(card, eps, p) == pytest.approx(expected)

    def test_weight_function_psnr_form(self):
        """w = k₂ · |Aug|·p / |ε| + b₂ for PSNR."""
        from repro.core.error_control import ErrorMetric
        from repro.core.weights import WeightFunction

        wf = WeightFunction.calibrated(
            ErrorMetric.PSNR,
            cardinality_range=(1_000, 100_000),
            accuracy_range=(30.0, 80.0),
        )
        card, eps, p = 40_000, 50.0, 5.0
        expected = wf.k2 * (card * p / eps) + wf.b2
        assert wf.raw(card, eps, p) == pytest.approx(expected)

    def test_proportional_sharing_example(self):
        """The paper's worked example: two containers at weight 100 on a
        200 MB/s device get 100 each; doubling one to 200 gives 133/67."""
        from repro.storage.blkio import StreamDemand, compute_rates

        base = dict(peak_rate=mb_per_s(200))
        equal = compute_rates(
            [StreamDemand(key=0, weight=100, **base), StreamDemand(key=1, weight=100, **base)]
        )
        assert equal[0] == pytest.approx(mb_per_s(100))
        boosted = compute_rates(
            [StreamDemand(key=0, weight=200, **base), StreamDemand(key=1, weight=100, **base)]
        )
        assert boosted[0] == pytest.approx(mb_per_s(200) * 2 / 3)
        assert boosted[1] == pytest.approx(mb_per_s(200) / 3)

    def test_algorithm1_k_is_max(self, smooth_field):
        """Algorithm 1 line 7: k ← max(i, j)."""
        from repro.core.abplot import AugmentationBandwidthPlot
        from repro.core.error_control import ErrorMetric, build_ladder
        from repro.core.recompose import PlanTable
        from repro.core.refactor import decompose

        ladder = build_ladder(decompose(smooth_field, 3), [0.1, 0.01], ErrorMetric.NRMSE)
        ab = AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120))
        table = PlanTable(ladder, 0.01)
        for bw in (mb_per_s(5), mb_per_s(75), mb_per_s(500)):
            plan = table.plan(bw, ab)
            assert plan.target_rung == max(plan.prescribed_rung, plan.estimated_rung)
