"""XGC blob detection (Section IV-A).

Blobs are physical regions whose electrostatic potential deviates strongly
from the background.  The detector thresholds the deviation at
``threshold_sigma`` background standard deviations, labels connected
components, filters specks, and reports the blob census the paper scores:
blob count, average equivalent diameter, total blob area, and mean peak
deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.base import AnalyticsApp
from repro.apps.synthetic import xgc_dpot_field

__all__ = ["BlobStats", "detect_blobs", "XGCBlobDetection"]


@dataclass(frozen=True)
class BlobStats:
    """Census of detected blobs."""

    count: int
    mean_diameter: float
    total_area: float
    mean_peak: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean_diameter": self.mean_diameter,
            "total_area": self.total_area,
            "mean_peak": self.mean_peak,
        }


def detect_blobs(
    field: np.ndarray,
    *,
    threshold_sigma: float = 2.5,
    min_area: int = 4,
) -> BlobStats:
    """Detect high-potential blobs in a 2-D or 3-D field.

    The background statistics are estimated robustly (median and median
    absolute deviation) so the blobs themselves do not inflate the
    threshold.  Components smaller than ``min_area`` cells are discarded
    as noise specks.  Diameters are equivalent-circle (2-D) or
    equivalent-sphere (3-D).
    """
    field = np.asarray(field, dtype=np.float64)
    if field.ndim not in (2, 3):
        raise ValueError(f"expected a 2-D or 3-D field, got shape {field.shape}")
    med = float(np.median(field))
    mad = float(np.median(np.abs(field - med)))
    sigma = 1.4826 * mad if mad > 0 else float(field.std())
    if sigma == 0:
        return BlobStats(count=0, mean_diameter=0.0, total_area=0.0, mean_peak=0.0)

    from scipy import ndimage

    mask = (field - med) > threshold_sigma * sigma
    labels, n = ndimage.label(mask)
    if n == 0:
        return BlobStats(count=0, mean_diameter=0.0, total_area=0.0, mean_peak=0.0)
    areas = ndimage.sum_labels(np.ones_like(field), labels, index=np.arange(1, n + 1))
    peaks = ndimage.maximum(field - med, labels, index=np.arange(1, n + 1))
    keep = areas >= min_area
    areas = areas[keep]
    peaks = peaks[keep]
    if areas.size == 0:
        return BlobStats(count=0, mean_diameter=0.0, total_area=0.0, mean_peak=0.0)
    if field.ndim == 2:
        diameters = 2.0 * np.sqrt(areas / np.pi)
    else:
        diameters = 2.0 * np.cbrt(3.0 * areas / (4.0 * np.pi))
    return BlobStats(
        count=int(areas.size),
        mean_diameter=float(diameters.mean()),
        total_area=float(areas.sum()),
        mean_peak=float(peaks.mean()),
    )


class XGCBlobDetection(AnalyticsApp):
    """The XGC ``dpot`` blob-detection analytics."""

    name = "xgc"

    def __init__(self, *, threshold_sigma: float = 2.5, min_area: int = 4) -> None:
        self.threshold_sigma = float(threshold_sigma)
        self.min_area = int(min_area)

    def generate(self, shape: tuple[int, int] = (256, 256), seed: int = 0) -> np.ndarray:
        return xgc_dpot_field(shape, seed)

    def analyze(self, field: np.ndarray) -> dict[str, float]:
        stats = detect_blobs(
            field, threshold_sigma=self.threshold_sigma, min_area=self.min_area
        )
        return stats.as_dict()
