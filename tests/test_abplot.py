"""Tests for repro.core.abplot — the augmentation-bandwidth map."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.abplot import AugmentationBandwidthPlot
from repro.util.units import mb_per_s


@pytest.fixture
def ab():
    return AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120))


class TestClamping:
    def test_above_high_is_one(self, ab):
        assert ab.degree(mb_per_s(120)) == 1.0
        assert ab.degree(mb_per_s(500)) == 1.0

    def test_below_low_is_zero(self, ab):
        assert ab.degree(mb_per_s(30)) == 0.0
        assert ab.degree(mb_per_s(1)) == 0.0
        assert ab.degree(0.0) == 0.0


class TestLinearSegment:
    def test_midpoint(self, ab):
        assert ab.degree(mb_per_s(75)) == pytest.approx(0.5)

    def test_coefficients(self, ab):
        """degree = k1*bw + b1 on the ramp."""
        bw = mb_per_s(60)
        assert ab.degree(bw) == pytest.approx(ab.k1 * bw + ab.b1)

    def test_endpoints_from_coefficients(self, ab):
        assert ab.k1 * ab.bw_low + ab.b1 == pytest.approx(0.0)
        assert ab.k1 * ab.bw_high + ab.b1 == pytest.approx(1.0)

    def test_vectorised(self, ab):
        bws = np.array([mb_per_s(x) for x in (0, 30, 75, 120, 200)])
        np.testing.assert_allclose(ab.degree(bws), [0, 0, 0.5, 1, 1])


class TestValidation:
    def test_high_must_exceed_low(self):
        with pytest.raises(ValueError):
            AugmentationBandwidthPlot(bw_low=mb_per_s(120), bw_high=mb_per_s(30))
        with pytest.raises(ValueError):
            AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(30))

    def test_positive_thresholds(self):
        with pytest.raises(ValueError):
            AugmentationBandwidthPlot(bw_low=0.0, bw_high=mb_per_s(120))


class TestProperties:
    @given(
        low=st.floats(1e6, 5e7),
        span=st.floats(1e6, 2e8),
        bw=st.floats(0, 5e8),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_and_monotone(self, low, span, bw):
        ab = AugmentationBandwidthPlot(bw_low=low, bw_high=low + span)
        d = ab.degree(bw)
        assert 0.0 <= d <= 1.0
        assert ab.degree(bw + 1e6) >= d


def _array_path(ab, bw):
    """The degree through numpy, as every non-float input gets it."""
    with np.errstate(over="ignore"):
        return float(ab.degree(np.array([bw]))[0])


class TestPythonFloatPath:
    """A Python float skips numpy but must give the array path's value,
    bit for bit (``repr`` tells ``-0.0`` from ``0.0`` and matches NaN)."""

    def test_thresholds_and_their_neighbours(self, ab):
        points = [0.0, -0.0, math.nan, math.inf, -math.inf]
        for edge in (ab.bw_low, ab.bw_high):
            points += [edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]
        for bw in points:
            got = ab.degree(bw)
            assert type(got) is float
            assert repr(got) == repr(_array_path(ab, bw)), bw
            assert repr(got) == repr(ab.degree(np.float64(bw))), bw

    @given(
        low=st.floats(1e-300, 1e12),
        span=st.floats(1e-300, 1e12),
        bw=st.floats(allow_nan=True, allow_infinity=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, low, span, bw):
        high = low + span
        assume(high > low)
        ab = AugmentationBandwidthPlot(bw_low=low, bw_high=high)
        assert repr(ab.degree(bw)) == repr(_array_path(ab, bw))
