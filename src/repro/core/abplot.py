"""The augmentation-bandwidth plot (Section III-C, step 2).

Maps a predicted bandwidth ``B̃W_s`` to an augmentation degree in [0, 1]:

* ``B̃W_s >= BW_high`` → degree 1 (lightly loaded, full augmentation);
* ``B̃W_s <= BW_low``  → degree 0 (heavily loaded, only what error control
  mandates);
* otherwise the linear ramp ``abplot(B̃W) = k₁·B̃W + b₁``.

The paper's defaults are ``BW_low = 30 MB/s`` and ``BW_high = 120 MB/s``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_positive

__all__ = ["AugmentationBandwidthPlot"]


@dataclass(frozen=True, kw_only=True)
class AugmentationBandwidthPlot:
    """Linear bandwidth → augmentation-degree map with clamping thresholds.

    ``bw_low`` and ``bw_high`` are keyword-only and in bytes/second (use
    :func:`repro.util.units.mb_per_s` for the paper's MB/s values).
    """

    bw_low: float
    bw_high: float

    def __post_init__(self) -> None:
        check_positive("bw_low", self.bw_low)
        check_positive("bw_high", self.bw_high)
        if self.bw_high <= self.bw_low:
            raise ValueError(
                f"bw_high ({self.bw_high}) must exceed bw_low ({self.bw_low})"
            )

    @property
    def k1(self) -> float:
        """Slope of the linear segment."""
        return 1.0 / (self.bw_high - self.bw_low)

    @property
    def b1(self) -> float:
        """Intercept of the linear segment."""
        return -self.bw_low / (self.bw_high - self.bw_low)

    def degree(self, predicted_bw: float | np.ndarray) -> float | np.ndarray:
        """Augmentation degree in [0, 1] for a predicted bandwidth.

        Computed as ``(bw − bw_low) / (bw_high − bw_low)`` clamped to
        [0, 1] — algebraically ``k₁·bw + b₁``, but exact at the endpoints.
        A Python float is mapped without numpy (a controller maps one per
        step) by the same IEEE subtract and divide, clamped the way
        ``np.clip`` clamps: NaN and ``-0.0`` pass through unchanged.
        """
        if type(predicted_bw) is float:
            deg = (predicted_bw - self.bw_low) / (self.bw_high - self.bw_low)
            if deg < 0.0:
                return 0.0
            if deg > 1.0:
                return 1.0
            return deg
        bw = np.asarray(predicted_bw, dtype=np.float64)
        deg = np.clip((bw - self.bw_low) / (self.bw_high - self.bw_low), 0.0, 1.0)
        return float(deg) if deg.ndim == 0 else deg
