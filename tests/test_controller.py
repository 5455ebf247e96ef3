"""Tests for repro.core.controller — policies and the adaptation loop."""

import numpy as np
import pytest

from repro.control import ControllerConfig, TangoController
from repro.core.abplot import AugmentationBandwidthPlot
from repro.core.controller import (
    POLICY_NAMES,
    AppOnlyPolicy,
    CrossLayerPolicy,
    NoAdaptivityPolicy,
    StorageOnlyPolicy,
    make_policy,
)
from repro.core.error_control import ErrorMetric, build_ladder
from repro.core.estimator import DFTEstimator, MeanEstimator
from repro.core.refactor import decompose
from repro.core.weights import WeightFunction
from repro.util.units import mb_per_s


@pytest.fixture
def ladder(smooth_field):
    dec = decompose(smooth_field, 4)
    return build_ladder(dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE)


@pytest.fixture
def abplot():
    return AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120))


@pytest.fixture
def weight_fn():
    return WeightFunction.calibrated(
        ErrorMetric.NRMSE,
        cardinality_range=(100, 100_000),
        accuracy_range=(0.1, 0.001),
    )


class TestPolicyFactory:
    def test_all_names(self, weight_fn):
        for name in POLICY_NAMES:
            policy = make_policy(name, weight_fn)
            assert policy.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("quantum")

    def test_adaptivity_matrix(self, weight_fn):
        """The paper's Table II comparison matrix."""
        matrix = {
            "no-adaptivity": (False, False),
            "storage-only": (False, True),
            "app-only": (True, False),
            "cross-layer": (True, True),
        }
        for name, (app, storage) in matrix.items():
            p = make_policy(name, weight_fn)
            assert (p.app_adaptive, p.storage_adaptive) == (app, storage)

    def test_storage_policies_require_weight_fn(self):
        with pytest.raises(ValueError):
            StorageOnlyPolicy(None)
        with pytest.raises(ValueError):
            CrossLayerPolicy(None)

    def test_non_storage_policies_drop_weight_fn(self, weight_fn):
        assert NoAdaptivityPolicy(weight_fn).weight_fn is None
        assert AppOnlyPolicy(weight_fn).weight_fn is None


def _plan(policy, ladder, bound, predicted_bw, abplot, priority):
    """One step's plan the way a controller makes it."""
    table = policy.plan_table(ladder, bound, priority)
    return table.plan(predicted_bw, abplot, adaptive=policy.app_adaptive)


class TestPolicyPlans:
    def test_no_adaptivity_always_full(self, ladder, abplot):
        plan = _plan(NoAdaptivityPolicy(), ladder, 0.1, mb_per_s(1), abplot, 1.0)
        assert plan.target_rung == ladder.num_buckets
        assert all(s.weight is None for s in plan.steps)

    def test_storage_only_full_with_weights(self, ladder, abplot, weight_fn):
        plan = _plan(StorageOnlyPolicy(weight_fn), ladder, 0.1, mb_per_s(1), abplot, 1.0)
        assert plan.target_rung == ladder.num_buckets
        assert all(s.weight is not None for s in plan.steps)

    def test_app_only_adapts_without_weights(self, ladder, abplot):
        plan = _plan(AppOnlyPolicy(), ladder, ladder.base_error * 2, mb_per_s(1), abplot, 1.0)
        assert plan.total_augmentation_bytes == 0
        assert all(s.weight is None for s in plan.steps)

    def test_cross_layer_adapts_with_weights(self, ladder, abplot, weight_fn):
        plan = _plan(CrossLayerPolicy(weight_fn), ladder, 0.001, mb_per_s(500), abplot, 5.0)
        assert plan.target_rung == ladder.num_buckets
        assert all(s.weight is not None for s in plan.steps)


class TestControllerLoop:
    def make(self, ladder, abplot, **kwargs):
        return TangoController(
            ladder,
            AppOnlyPolicy(),
            abplot,
            config=ControllerConfig(prescribed_bound=0.01, **kwargs),
        )

    def test_optimistic_before_history(self, ladder, abplot):
        ctrl = self.make(ladder, abplot)
        decision = ctrl.decide(0)
        assert decision.predicted_bw == pytest.approx(abplot.bw_high)
        assert not decision.estimator_fitted

    def test_mean_fallback_with_short_history(self, ladder, abplot):
        ctrl = self.make(ladder, abplot, min_history=4)
        ctrl.observe(0, mb_per_s(50))
        ctrl.observe(1, mb_per_s(100))
        pred, fitted = ctrl.predict_bandwidth(2)
        assert not fitted
        assert pred == pytest.approx(mb_per_s(75))

    def test_fits_after_min_history(self, ladder, abplot):
        ctrl = self.make(ladder, abplot, min_history=4)
        for s in range(4):
            ctrl.observe(s, mb_per_s(100))
        _, fitted = ctrl.predict_bandwidth(4)
        assert fitted

    def test_periodic_signal_predicted(self, ladder, abplot):
        """The controller tracks a periodic bandwidth pattern."""
        ctrl = self.make(ladder, abplot, min_history=8, estimation_interval=100)
        def bw(s):
            return mb_per_s(80 + 40 * np.sin(2 * np.pi * s / 8))
        for s in range(16):
            ctrl.observe(s, bw(s))
        pred, fitted = ctrl.predict_bandwidth(20)
        assert fitted
        assert pred == pytest.approx(bw(20), rel=0.05)

    def test_refit_cadence(self, ladder, abplot):
        """With a bounded history window, periodic refits move the fit
        origin forward — the paper's periodic re-estimation."""
        ctrl = self.make(
            ladder, abplot, min_history=4, estimation_interval=5, history_window=6
        )
        for s in range(4):
            ctrl.observe(s, mb_per_s(100))
        ctrl.decide(4)  # first fit, origin at step 0
        first_fit_start = ctrl._fit_start_step
        assert first_fit_start == 0
        for s in range(4, 16):
            ctrl.observe(s, mb_per_s(100))
            ctrl.decide(s + 1)
        assert ctrl._fit_start_step > first_fit_start

    def test_observe_validation(self, ladder, abplot):
        ctrl = self.make(ladder, abplot)
        ctrl.observe(0, mb_per_s(10))
        with pytest.raises(ValueError, match="increasing"):
            ctrl.observe(0, mb_per_s(10))
        with pytest.raises(ValueError):
            ctrl.observe(1, float("nan"))
        with pytest.raises(ValueError):
            ctrl.observe(1, -1.0)

    def test_decisions_recorded(self, ladder, abplot):
        ctrl = self.make(ladder, abplot)
        for s in range(3):
            ctrl.decide(s)
        assert [d.step for d in ctrl.decisions] == [0, 1, 2]

    def test_negative_prediction_clamped(self, ladder, abplot):
        ctrl = TangoController(
            ladder,
            AppOnlyPolicy(),
            abplot,
            config=ControllerConfig(prescribed_bound=0.01, min_history=2),
            estimator=MeanEstimator(),
        )
        ctrl.observe(0, 0.0)
        ctrl.observe(1, 0.0)
        pred, _ = ctrl.predict_bandwidth(2)
        assert pred >= 0.0

    def test_constructor_validation(self, ladder, abplot):
        with pytest.raises(ValueError):
            self.make(ladder, abplot, estimation_interval=0)
        with pytest.raises(ValueError):
            self.make(ladder, abplot, min_history=1)

    def test_diagnostics_before_fit(self, ladder, abplot):
        ctrl = self.make(ladder, abplot)
        diag = ctrl.estimation_diagnostics()
        assert diag["fitted"] == 0.0

    def test_diagnostics_on_clean_periodic_signal(self, ladder, abplot):
        import numpy as np

        ctrl = self.make(ladder, abplot, min_history=8, estimation_interval=100)
        for s in range(16):
            ctrl.observe(s, mb_per_s(80 + 40 * np.sin(2 * np.pi * s / 8)))
        ctrl.decide(16)
        diag = ctrl.estimation_diagnostics()
        assert diag["fitted"] == 1.0
        # A periodic signal that fits the window is modelled near-exactly.
        assert diag["relative_mae"] < 0.05

    def test_diagnostics_flag_noisy_signal(self, ladder, abplot):
        import numpy as np

        rng = np.random.default_rng(0)
        ctrl = self.make(ladder, abplot, min_history=8, estimation_interval=100)
        for s in range(16):
            ctrl.observe(s, mb_per_s(max(1.0, 80 + 60 * rng.standard_normal())))
        ctrl.decide(16)
        noisy = ctrl.estimation_diagnostics()
        assert noisy["fitted"] == 1.0
        assert noisy["mae"] >= 0.0

    def test_history_window_limits_fit(self, ladder, abplot):
        ctrl = self.make(ladder, abplot, min_history=4, history_window=8,
                         estimation_interval=1)
        for s in range(20):
            ctrl.observe(s, mb_per_s(100 + s))
        ctrl.decide(20)
        assert isinstance(ctrl.estimator, DFTEstimator)
        assert ctrl.estimator.window_length == 8
        assert ctrl._fit_start_step == 12
