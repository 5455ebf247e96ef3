"""The paper's three data analytics: XGC blob detection, GenASiS
core-collapse rendering, and CFD high-pressure analysis, plus synthetic
field generators that stand in for the (unavailable) simulation datasets."""

from repro.apps.base import AnalyticsApp
from repro.apps.synthetic import (
    xgc_dpot_field,
    genasis_velocity_field,
    cfd_pressure_field,
)
from repro.apps.xgc import XGCBlobDetection, BlobStats, detect_blobs
from repro.apps.genasis import GenASiSRendering, RenderQuality
from repro.apps.cfd import CFDPressureAnalysis, PressureStats
from repro.util.validation import lookup

__all__ = [
    "AnalyticsApp",
    "xgc_dpot_field",
    "genasis_velocity_field",
    "cfd_pressure_field",
    "XGCBlobDetection",
    "BlobStats",
    "detect_blobs",
    "GenASiSRendering",
    "RenderQuality",
    "CFDPressureAnalysis",
    "PressureStats",
    "APPS",
    "ALL_APPS",
    "make_app",
]

#: The three analytics in the paper's order (Table III); figure grids
#: iterate ``ALL_APPS`` in this order.
APPS = {"xgc": XGCBlobDetection, "genasis": GenASiSRendering, "cfd": CFDPressureAnalysis}
ALL_APPS = tuple(APPS)


def make_app(name: str, **kwargs) -> AnalyticsApp:
    """Instantiate an analytics app from :data:`APPS` by short name."""
    return lookup("app", APPS, name)(**kwargs)
