"""Smoke + shape tests for the per-figure experiment modules.

Each experiment runs at reduced scale here; the full-scale runs live in
benchmarks/.  Shape assertions encode the paper's qualitative claims.
"""

import numpy as np
import pytest

from repro.experiments.fig01 import run_fig01
from repro.experiments.fig02 import run_fig02
from repro.experiments.fig05 import run_fig05
from repro.experiments.fig07 import run_fig07
from repro.experiments.fig08 import run_policy_grid
from repro.experiments.fig11 import over_resolved_field, run_fig11
from repro.experiments.fig12 import run_fig12
from repro.experiments.fig13 import run_fig13
from repro.experiments.fig14 import run_fig14
from repro.experiments.fig15 import run_fig15
from repro.experiments.fig16 import run_fig16
from repro.experiments.headline import headline_from_grid
from repro.core.error_control import ErrorMetric


class TestFig01:
    def test_interference_collapses_bandwidth(self):
        res = run_fig01(max_steps=15)
        for app in ("xgc", "cfd", "genasis"):
            assert res.interference_drop(app) > 0.4
            assert res.peak_bandwidth(app) > 150.0
        assert "drop" in res.format_rows()


class TestFig02:
    def test_psnr_monotone_in_decimation(self):
        res = run_fig02(ratios=(4, 16, 64), grid_shape=(128, 128))
        for app in ("xgc", "genasis", "cfd"):
            rows = res.for_app(app)
            psnrs = [r.psnr_db for r in rows]
            assert psnrs == sorted(psnrs, reverse=True)

    def test_outcome_error_stays_moderate(self):
        """The paper: even extreme decimation keeps outcome error bounded."""
        res = run_fig02(ratios=(4, 16, 64), grid_shape=(128, 128))
        assert all(r.outcome_error <= 0.5 for r in res.rows)

    def test_format(self):
        res = run_fig02(ratios=(4,), apps=("cfd",), grid_shape=(64, 64))
        assert "Fig 2" in res.format_rows()


class TestFig05:
    def test_monotone_axes(self):
        res = run_fig05()
        assert list(res.weight_vs_cardinality) == sorted(res.weight_vs_cardinality)
        assert list(res.weight_vs_priority) == sorted(res.weight_vs_priority)
        # Accuracy axis: looser -> heavier (listed loosest first).
        assert list(res.weight_vs_accuracy) == sorted(res.weight_vs_accuracy, reverse=True)

    def test_psnr_variant(self):
        res = run_fig05(metric=ErrorMetric.PSNR, accuracy_range=(30.0, 80.0))
        assert list(res.weight_vs_accuracy) == sorted(res.weight_vs_accuracy, reverse=True)


class TestFig07:
    def test_error_grows_with_thresh(self):
        """A 30-step training window (the paper's 1800 s) is needed for the
        periodic structure to resolve; shorter windows alias."""
        res = run_fig07(max_steps=60, seed=0)
        maes = [r.mae_mb for r in res.rows]
        assert maes[0] <= maes[-1]

    def test_kept_components_shrink(self):
        res = run_fig07(max_steps=60, seed=0)
        kept = [r.kept_components for r in res.rows]
        assert kept == sorted(kept, reverse=True)


GRID_KW = dict(apps=("xgc",), replications=1, max_steps=25)


class TestFig08Grid:
    @pytest.fixture(scope="class")
    def grid(self):
        return run_policy_grid(error_control=False, **GRID_KW)

    def test_cross_layer_beats_no_adaptivity(self, grid):
        assert grid.improvement("xgc", "cross-layer") > 0.15

    def test_single_layers_in_between(self, grid):
        none = grid.cell("xgc", "no-adaptivity").mean_io_time
        cross = grid.cell("xgc", "cross-layer").mean_io_time
        for single in ("storage-only", "app-only"):
            t = grid.cell("xgc", single).mean_io_time
            assert cross <= t * 1.1
            assert t <= none * 1.1

    def test_headline_derivation(self, grid):
        h = headline_from_grid(grid)
        assert h.improvement_vs_none > 0.15
        assert "xgc" in h.per_app_vs_none
        assert "52%" in h.format_rows()

    def test_missing_cell_raises(self, grid):
        with pytest.raises(KeyError):
            grid.cell("xgc", "warp-drive")


class TestFig11:
    def test_dof_monotone_in_tightness(self):
        res = run_fig11(apps=("cfd",), include_over_resolved=False)
        for metric in ("nrmse", "psnr"):
            rows = res.for_metric(metric)
            fracs = [r.dof_fraction for r in rows]
            assert fracs == sorted(fracs)

    def test_over_resolved_meets_paper_claim(self):
        """< 30 % of DoF reaches the tightest bounds on over-resolved data."""
        res = run_fig11(apps=(), include_over_resolved=True)
        assert res.max_dof_at_tightest("psnr") < 0.30
        assert res.max_dof_at_tightest("nrmse") < 0.30

    def test_over_resolved_field_is_smooth(self):
        f = over_resolved_field((128, 128), modes=2)
        assert np.abs(np.diff(f, axis=0)).max() < 0.2


class TestFig12:
    @pytest.fixture(scope="class")
    def res(self):
        return run_fig12(replications=1, max_steps=25, noise_counts=(1, 6))

    def test_storage_only_degrades_more(self, res):
        assert res.degradation("storage-only") >= res.degradation("cross-layer") * 0.9

    def test_series_shape(self, res):
        counts, means = res.series("cross-layer")
        assert counts == [1, 6]
        assert all(m > 0 for m in means)

    def test_bad_noise_count(self):
        with pytest.raises(ValueError):
            run_fig12(noise_counts=(0,), replications=1, max_steps=5)


class TestFig13:
    def test_weight_terms_help(self):
        res = run_fig13(replications=1, max_steps=25)
        base = res.latency("cardinality")
        assert res.latency("cardinality+priority") <= base * 1.1
        assert res.latency("cardinality+priority+accuracy") <= base * 1.1

    def test_all_variants_present(self):
        res = run_fig13(replications=1, max_steps=10)
        assert len(res.rows) == 4
        with pytest.raises(KeyError):
            res.latency("nonsense")


class TestFig14:
    @pytest.fixture(scope="class")
    def res(self):
        return run_fig14(replications=1, max_steps=25)

    def test_priority_reduces_io_time(self, res):
        ps, means = res.series("priority")
        assert ps == [1.0, 5.0, 10.0]
        assert means[-1] <= means[0] * 1.05

    def test_tighter_bound_costs_more(self, res):
        bounds, means = res.series("bound")
        # bounds listed loosest (1e-1) to tightest (1e-4).
        assert means[-1] >= means[0] * 0.95


class TestFig15:
    def test_weights_recorded_in_window(self):
        res = run_fig15(window=(300.0, 450.0), max_steps=10)
        assert res.window, "weight adjustments must fall in the window"
        groups = res.weights_within_step()
        assert all(len(g) >= 1 for g in groups)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            run_fig15(window=(100.0, 50.0))


class TestFig16:
    def test_weak_scaling_flat(self):
        res = run_fig16(node_counts=(1, 2), max_steps=8)
        assert res.scaling_flatness() == pytest.approx(1.0)
