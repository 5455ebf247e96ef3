"""Tests for repro.core.estimator — DFT bandwidth prediction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import DFTEstimator, LastValueEstimator, MeanEstimator


def periodic_signal(n: int, period: int, amp: float = 40.0, base: float = 100.0) -> np.ndarray:
    s = np.arange(n)
    return base + amp * np.sin(2 * np.pi * s / period)


class TestDFTExactRecovery:
    def test_pure_periodic_forecast(self):
        """A periodic signal whose period divides the window is forecast exactly."""
        hist = periodic_signal(60, 10)
        est = DFTEstimator(0.5).fit(hist)
        future = np.arange(60, 90)
        pred = est.predict(future)
        truth = periodic_signal(90, 10)[60:]
        np.testing.assert_allclose(pred, truth, atol=1e-9)

    def test_filtered_history_matches_training(self):
        hist = periodic_signal(40, 8)
        est = DFTEstimator(0.5).fit(hist)
        np.testing.assert_allclose(est.filtered_history(), hist, atol=1e-9)

    def test_in_window_prediction_is_filtered_history(self):
        hist = periodic_signal(40, 8)
        est = DFTEstimator(0.5).fit(hist)
        np.testing.assert_allclose(
            est.predict(np.arange(40)), est.filtered_history(), atol=1e-9
        )

    def test_constant_signal(self):
        est = DFTEstimator(0.5).fit(np.full(16, 42.0))
        assert est.predict(100) == pytest.approx(42.0)

    def test_scalar_prediction(self):
        est = DFTEstimator(0.5).fit(periodic_signal(30, 6))
        assert np.isscalar(est.predict(35))


class TestThresholding:
    def test_noise_filtered_out(self):
        """Weak random noise is discarded; the dominant period survives."""
        rng = np.random.default_rng(0)
        hist = periodic_signal(60, 12) + 2.0 * rng.standard_normal(60)
        est = DFTEstimator(0.5).fit(hist)
        pred = est.predict(np.arange(60, 120))
        truth = periodic_signal(120, 12)[60:]
        assert np.abs(pred - truth).mean() < 3.0

    def test_higher_thresh_keeps_fewer_components(self):
        rng = np.random.default_rng(1)
        hist = periodic_signal(64, 8) + 5 * rng.standard_normal(64)
        kept = [DFTEstimator(t).fit(hist).num_kept_components for t in (0.1, 0.5, 0.9)]
        assert kept[0] >= kept[1] >= kept[2]

    def test_thresh_one_keeps_peak_and_dc(self):
        hist = periodic_signal(32, 8)
        est = DFTEstimator(1.0).fit(hist)
        # DC + the two conjugate peak components.
        assert est.num_kept_components == 3

    def test_keep_dc_rescues_small_mean(self):
        """A small mean riding on a strong oscillation is dropped by the
        threshold unless keep_dc holds it."""
        hist = periodic_signal(32, 8, amp=100.0, base=0.5)
        with_dc = DFTEstimator(0.5, keep_dc=True).fit(hist)
        without = DFTEstimator(0.5, keep_dc=False).fit(hist)
        # Prediction at the oscillation's zero crossing reveals the offset.
        assert float(with_dc.predict(0)) - float(without.predict(0)) == pytest.approx(0.5)
        assert without.num_kept_components == with_dc.num_kept_components - 1

    def test_invalid_thresh(self):
        with pytest.raises(ValueError):
            DFTEstimator(1.5)
        with pytest.raises(ValueError):
            DFTEstimator(-0.1)


class TestFitValidation:
    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            DFTEstimator().predict(0)

    def test_unfitted_components_raises(self):
        with pytest.raises(RuntimeError):
            _ = DFTEstimator().num_kept_components

    def test_too_short_history(self):
        with pytest.raises(ValueError):
            DFTEstimator().fit(np.array([1.0]))

    def test_non_finite_history(self):
        with pytest.raises(ValueError):
            DFTEstimator().fit(np.array([1.0, np.nan, 2.0]))

    def test_2d_history_rejected(self):
        with pytest.raises(ValueError):
            DFTEstimator().fit(np.zeros((4, 4)))

    def test_refit_replaces_model(self):
        est = DFTEstimator(0.5)
        est.fit(np.full(16, 10.0))
        est.fit(np.full(16, 99.0))
        assert est.predict(3) == pytest.approx(99.0)
        assert est.window_length == 16


class TestBaselines:
    def test_mean_estimator(self):
        est = MeanEstimator().fit(np.array([1.0, 2.0, 3.0]))
        assert est.predict(100) == pytest.approx(2.0)
        np.testing.assert_allclose(est.predict(np.arange(5)), np.full(5, 2.0))

    def test_last_value_estimator(self):
        est = LastValueEstimator().fit(np.array([1.0, 2.0, 7.0]))
        assert est.predict(100) == pytest.approx(7.0)

    def test_baseline_unfitted(self):
        with pytest.raises(RuntimeError):
            MeanEstimator().predict(0)
        with pytest.raises(RuntimeError):
            LastValueEstimator().predict(0)

    def test_baseline_empty_history(self):
        with pytest.raises(ValueError):
            MeanEstimator().fit(np.array([]))
        with pytest.raises(ValueError):
            LastValueEstimator().fit(np.array([]))

    def test_dft_beats_baselines_on_periodic(self):
        """On the workload the paper targets, DFT must beat naive baselines."""
        hist = periodic_signal(60, 10)
        future = np.arange(60, 90)
        truth = periodic_signal(90, 10)[60:]

        def mae(est):
            return float(np.abs(np.asarray(est.fit(hist).predict(future)) - truth).mean())

        assert mae(DFTEstimator(0.5)) < mae(MeanEstimator())
        assert mae(DFTEstimator(0.5)) < mae(LastValueEstimator())


class TestDFTProperties:
    @given(
        period=st.sampled_from([4, 6, 8, 12]),
        amp=st.floats(1.0, 100.0),
        base=st.floats(50.0, 500.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_exact_on_aligned_period(self, period, amp, base):
        n = period * 6
        hist = base + amp * np.cos(2 * np.pi * np.arange(n) / period)
        est = DFTEstimator(0.5).fit(hist)
        pred = np.asarray(est.predict(np.arange(n, n + period)))
        truth = base + amp * np.cos(2 * np.pi * np.arange(n, n + period) / period)
        np.testing.assert_allclose(pred, truth, rtol=1e-9, atol=1e-6 * (abs(base) + amp))


class TestZeroThreshold:
    """Regression: ``keep = amp >= cutoff`` with cutoff == 0 kept every
    zero-amplitude component, inflating num_kept_components to n and
    densifying predict() to O(n*s) for a clean periodic signal."""

    def test_thresh_zero_keeps_only_positive_amplitudes(self):
        t = np.arange(32)
        history = 5.0 + np.sin(2 * np.pi * t / 8)
        est = DFTEstimator(thresh=0.0).fit(history)
        # DC + the two conjugate bins of the sine: far fewer than n.
        assert est.num_kept_components <= 4
        # The periodic extension still forecasts exactly.
        future = np.arange(32, 64)
        np.testing.assert_allclose(
            est.predict(future), 5.0 + np.sin(2 * np.pi * future / 8), atol=1e-9
        )

    def test_constant_history_keeps_only_dc(self):
        est = DFTEstimator(thresh=0.0).fit(np.full(16, 7.5))
        assert est.num_kept_components == 1
        assert est.predict(100) == pytest.approx(7.5)

    def test_constant_history_default_thresh(self):
        est = DFTEstimator().fit(np.full(16, 3.0))
        assert est.num_kept_components == 1
        assert est.predict(40) == pytest.approx(3.0)

    def test_keep_dc_false_on_constant_history_predicts_zero(self):
        """Dropping DC on a constant signal leaves no components: the
        prediction is all-zeros (pinned, documented behaviour)."""
        est = DFTEstimator(thresh=0.0, keep_dc=False).fit(np.full(16, 7.5))
        assert est.num_kept_components == 0
        np.testing.assert_allclose(est.predict(np.arange(8)), 0.0)


class TestPredictContract:
    """predict's shape contract: scalar in -> Python float out, array in
    -> float64 ndarray of the same shape (pinned for all estimators)."""

    def _fitted(self):
        hist = periodic_signal(32, 8)
        return [
            DFTEstimator(0.5).fit(hist),
            MeanEstimator().fit(hist),
            LastValueEstimator().fit(hist),
        ]

    @pytest.mark.parametrize(
        "scalar", [40, 40.0, np.int64(40), np.float64(40.0), np.array(40.0)]
    )
    def test_scalar_in_float_out(self, scalar):
        for est in self._fitted():
            out = est.predict(scalar)
            assert type(out) is float, type(est).__name__

    def test_1d_in_1d_float64_out(self):
        steps = np.arange(32, 40)
        for est in self._fitted():
            out = est.predict(steps)
            assert isinstance(out, np.ndarray), type(est).__name__
            assert out.shape == steps.shape
            assert out.dtype == np.float64

    def test_2d_shape_preserved(self):
        steps = np.arange(32, 44).reshape(3, 4)
        for est in self._fitted():
            out = est.predict(steps)
            assert out.shape == (3, 4), type(est).__name__
            assert out.dtype == np.float64

    def test_list_input_treated_as_array(self):
        for est in self._fitted():
            out = est.predict([32, 33, 34])
            assert isinstance(out, np.ndarray), type(est).__name__
            assert out.shape == (3,)

    def test_scalar_equals_array_element(self):
        """The scalar path and the length-1 array path agree exactly."""
        for est in self._fitted():
            assert est.predict(35) == est.predict(np.array([35]))[0]

    @given(
        history=st.lists(st.floats(0.0, 1e9), min_size=2, max_size=64),
        thresh=st.floats(0.0, 1.0),
        keep_dc=st.booleans(),
        step=st.integers(-1000, 100_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_python_int_path_is_the_array_path(self, history, thresh, keep_dc, step):
        """A controller's Python-int step gives the array path's value, bit
        for bit, on any fitted history."""
        est = DFTEstimator(thresh, keep_dc=keep_dc).fit(np.asarray(history))
        out = est.predict(step)
        assert type(out) is float
        assert out == est.predict(np.array([step]))[0]
