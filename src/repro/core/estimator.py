"""DFT-based interference estimation (Section III-C, step 1; Fig. 7).

HPC workloads follow the ``I(C^x W)* F`` pattern, so the bandwidth an
analytics container observes is approximately periodic.  The estimator:

1. collects the measured bandwidth ``BW_i`` for ``n`` consecutive steps;
2. converts it to the frequency domain, ``{FC_i} = DFT({BW_i})``;
3. zeroes components whose amplitude falls below ``thresh`` × the maximum
   non-DC amplitude (random, non-recurrent noise);
4. evaluates the filtered trigonometric series at future steps — the
   periodic extension is the bandwidth prediction ``B̃W_s``.

Complexity is O(n log n) per refit (FFT), so estimation overhead is low.

Two deliberately naive estimators (:class:`MeanEstimator`,
:class:`LastValueEstimator`) serve as ablation baselines.
"""

from __future__ import annotations

import numpy as np

from repro.engine.registry import register_estimator
from repro.obs import OBS
from repro.util.validation import check_probability

__all__ = ["DFTEstimator", "MeanEstimator", "LastValueEstimator", "BandwidthEstimator"]


class BandwidthEstimator:
    """Interface: fit on a history window, predict at absolute step indices."""

    def fit(self, history: np.ndarray) -> "BandwidthEstimator":
        raise NotImplementedError

    def predict(self, steps: np.ndarray | int) -> np.ndarray | float:
        """Predictions at step indices relative to the fit window start.

        The in/out contract is shape-preserving and type-normalized:
        scalar input (Python int/float, numpy scalar, or 0-d array)
        returns a Python :class:`float`; array-like input returns a
        ``float64`` :class:`~numpy.ndarray` of the same shape.  Every
        implementation honours this (pinned in
        ``tests/test_estimator.py``), so callers like the MPC horizon
        sweep can rely on the array branch without defensive wrapping.
        """
        raise NotImplementedError

    @property
    def is_fitted(self) -> bool:
        raise NotImplementedError


class DFTEstimator(BandwidthEstimator):
    """The paper's DFT-threshold-IDFT bandwidth predictor.

    Parameters
    ----------
    thresh:
        Amplitude threshold as a fraction of the maximum non-DC amplitude
        (the paper sweeps 25 %, 50 %, 75 %; default 50 %).
    keep_dc:
        Always retain the DC component (the mean bandwidth).  Dropping it
        would predict around zero; the paper's thresholding targets noise
        components, so this defaults to True.
    """

    def __init__(self, thresh: float = 0.5, *, keep_dc: bool = True) -> None:
        self.thresh = check_probability("thresh", thresh)
        self.keep_dc = keep_dc
        self._coeffs: np.ndarray | None = None
        self._n = 0
        self._kept_components = 0
        # Kept-component indices and their coefficients, hoisted out of
        # predict(): the sparse spectrum is fixed between refits.
        self._k: np.ndarray | None = None
        self._ck: np.ndarray | None = None
        #: ``_k`` as a float64 ``(1, K)`` row for the Python-int path.
        self._k_row: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._coeffs is not None

    @property
    def num_kept_components(self) -> int:
        """Number of non-zero frequency components after thresholding."""
        if not self.is_fitted:
            raise RuntimeError("estimator has not been fitted")
        return self._kept_components

    @property
    def window_length(self) -> int:
        return self._n

    def fit(self, history: np.ndarray) -> "DFTEstimator":
        history = np.asarray(history, dtype=np.float64)
        if history.ndim != 1 or history.size < 2:
            raise ValueError(
                f"history must be a 1-D array with >= 2 samples, got shape {history.shape}"
            )
        if not np.all(np.isfinite(history)):
            raise ValueError("history contains non-finite samples")
        span = OBS.tracer.start_span("estimator.refit", n=history.size) if OBS.enabled else None
        n = history.size
        fc = np.fft.fft(history)
        amp = np.abs(fc)
        non_dc = amp.copy()
        non_dc[0] = 0.0
        peak = non_dc.max()
        cutoff = self.thresh * peak
        if peak > 0:
            # With cutoff == 0 (thresh=0), ``amp >= cutoff`` would keep every
            # component including (numerically) zero-amplitude ones,
            # densifying predict() to O(n·s) for a clean periodic signal.
            # The noise floor is the FFT's own rounding scale, so only
            # genuinely present components survive.
            noise_floor = n * np.finfo(np.float64).eps * peak
            keep = amp >= max(cutoff, noise_floor)
        else:
            keep = np.zeros(n, dtype=bool)
        if self.keep_dc:
            keep[0] = True
        filtered = np.where(keep, fc, 0.0)
        self._coeffs = filtered
        self._n = n
        self._kept_components = int(keep.sum())
        self._k = np.flatnonzero(filtered)
        self._ck = filtered[self._k]
        self._k_row = self._k.astype(np.float64).reshape(1, -1)
        if span is not None:
            span.set(kept=self._kept_components, thresh=self.thresh).end()
            reg = OBS.registry
            reg.counter("estimator.refits").inc()
            reg.gauge("estimator.kept_components").set(self._kept_components)
            reg.gauge("estimator.window_length").set(n)
        return self

    def predict(self, steps: np.ndarray | int) -> np.ndarray | float:
        """Evaluate the filtered series at absolute step indices.

        Steps inside the training window reproduce the filtered (denoised)
        history; steps beyond it give the periodic-extension forecast.
        """
        if not self.is_fitted:
            raise RuntimeError("estimator has not been fitted")
        n = self._n
        if type(steps) is int:
            # A controller asks for one step at a time.  One multiply by the
            # float k row builds the (1, K) array np.outer(s, k) builds
            # below (the same products, as outer casts k to float64), and
            # the (1, K) @ (K,) product is the same matmul, so the result
            # is the array path's bit for bit.
            phases = np.exp(2j * np.pi * (float(steps) * self._k_row) / n)
            return float((phases @ self._ck).real[0] / n)
        # np.ndim == 0 (not np.isscalar) so numpy scalars and 0-d arrays
        # take the scalar branch too — the interface contract is scalar
        # in → float out, array in → same-shape float64 ndarray out.
        scalar = np.ndim(steps) == 0
        s = np.atleast_1d(np.asarray(steps, dtype=np.float64)).ravel()
        k = self._k
        # x(s) = (1/n) * Re( sum_k FC_k * exp(2πi k s / n) )
        phases = np.exp(2j * np.pi * np.outer(s, k) / n)
        vals = (phases @ self._ck).real / n
        return float(vals[0]) if scalar else vals.reshape(np.shape(steps))

    def filtered_history(self) -> np.ndarray:
        """The IDFT of the thresholded spectrum over the training window."""
        if not self.is_fitted:
            raise RuntimeError("estimator has not been fitted")
        return np.fft.ifft(self._coeffs).real


class MeanEstimator(BandwidthEstimator):
    """Ablation baseline: predict the training-window mean everywhere."""

    def __init__(self) -> None:
        self._mean: float | None = None

    @property
    def is_fitted(self) -> bool:
        return self._mean is not None

    def fit(self, history: np.ndarray) -> "MeanEstimator":
        history = np.asarray(history, dtype=np.float64)
        if history.size == 0:
            raise ValueError("history must be non-empty")
        if not np.all(np.isfinite(history)):
            raise ValueError("history contains non-finite samples")
        self._mean = float(history.mean())
        return self

    def predict(self, steps: np.ndarray | int) -> np.ndarray | float:
        if self._mean is None:
            raise RuntimeError("estimator has not been fitted")
        if np.ndim(steps) == 0:
            return self._mean
        return np.full(np.shape(steps), self._mean, dtype=np.float64)


class LastValueEstimator(BandwidthEstimator):
    """Ablation baseline: predict the last observed sample everywhere."""

    def __init__(self) -> None:
        self._last: float | None = None

    @property
    def is_fitted(self) -> bool:
        return self._last is not None

    def fit(self, history: np.ndarray) -> "LastValueEstimator":
        history = np.asarray(history, dtype=np.float64)
        if history.size == 0:
            raise ValueError("history must be non-empty")
        if not np.all(np.isfinite(history)):
            raise ValueError("history contains non-finite samples")
        self._last = float(history[-1])
        return self

    def predict(self, steps: np.ndarray | int) -> np.ndarray | float:
        if self._last is None:
            raise RuntimeError("estimator has not been fitted")
        if np.ndim(steps) == 0:
            return self._last
        return np.full(np.shape(steps), self._last, dtype=np.float64)


# -- registry entries ---------------------------------------------------
#
# Factories take the scenario config (the built-ins read nothing from it;
# the DFT threshold is the paper's 50 %) and return a fresh, unfitted
# instance — estimators are stateful, so instances are never shared.

@register_estimator("dft")
def _make_dft(config) -> DFTEstimator:
    return DFTEstimator()


@register_estimator("mean")
def _make_mean(config) -> MeanEstimator:
    return MeanEstimator()


@register_estimator("last")
def _make_last(config) -> LastValueEstimator:
    return LastValueEstimator()
