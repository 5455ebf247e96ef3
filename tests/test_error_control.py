"""Tests for repro.core.error_control — the ε-bucket accuracy ladder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.error_control import (
    BYTES_PER_COEFFICIENT,
    AccuracyLadder,
    ErrorBudget,
    ErrorMetric,
    build_ladder,
)
from repro.core.metrics import nrmse, psnr
from repro.core.refactor import decompose


@pytest.fixture
def ladder(smooth_field) -> AccuracyLadder:
    dec = decompose(smooth_field, 4)
    return build_ladder(dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE)


class TestErrorMetric:
    def test_nrmse_satisfied(self):
        assert ErrorMetric.NRMSE.satisfied(0.005, 0.01)
        assert not ErrorMetric.NRMSE.satisfied(0.02, 0.01)

    def test_psnr_satisfied(self):
        assert ErrorMetric.PSNR.satisfied(45.0, 30.0)
        assert not ErrorMetric.PSNR.satisfied(25.0, 30.0)

    def test_nrmse_tighter(self):
        assert ErrorMetric.NRMSE.is_tighter(0.001, 0.01)
        assert not ErrorMetric.NRMSE.is_tighter(0.1, 0.01)

    def test_psnr_tighter(self):
        assert ErrorMetric.PSNR.is_tighter(60.0, 30.0)

    def test_sort_loosest_first_nrmse(self):
        assert ErrorMetric.NRMSE.sort_loosest_first([0.01, 0.1, 0.001]) == [0.1, 0.01, 0.001]

    def test_sort_loosest_first_psnr(self):
        assert ErrorMetric.PSNR.sort_loosest_first([60, 30, 45]) == [30, 45, 60]

    def test_evaluate_dispatch(self, smooth_field):
        approx = smooth_field * 0.99
        assert ErrorMetric.NRMSE.evaluate(smooth_field, approx) == pytest.approx(
            nrmse(smooth_field, approx)
        )
        assert ErrorMetric.PSNR.evaluate(smooth_field, approx) == pytest.approx(
            psnr(smooth_field, approx)
        )


class TestErrorBudget:
    def test_ordering(self):
        b = ErrorBudget.create(ErrorMetric.NRMSE, [0.001, 0.1, 0.01])
        assert b.bounds == (0.1, 0.01, 0.001)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ErrorBudget.create(ErrorMetric.NRMSE, [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ErrorBudget.create(ErrorMetric.NRMSE, [float("nan")])

    def test_negative_nrmse_rejected(self):
        with pytest.raises(ValueError):
            ErrorBudget.create(ErrorMetric.NRMSE, [-0.1])


class TestLadderStructure:
    def test_bucket_count(self, ladder):
        assert ladder.num_buckets == 3

    def test_cuts_monotone(self, ladder):
        cuts = [b.stop for b in ladder.buckets]
        assert cuts == sorted(cuts)

    def test_buckets_contiguous(self, ladder):
        prev = 0
        for b in ladder.buckets:
            assert b.start == prev
            prev = b.stop

    def test_cardinality_and_bytes(self, ladder):
        for b in ladder.buckets:
            assert b.cardinality == b.stop - b.start
            assert b.nbytes == b.cardinality * BYTES_PER_COEFFICIENT

    def test_achieved_errors_satisfy_bounds(self, ladder):
        for b in ladder.buckets:
            assert ladder.metric.satisfied(b.achieved_error, b.bound), (
                f"rung {b.index}: achieved {b.achieved_error} vs bound {b.bound}"
            )

    def test_bucket_indexing(self, ladder):
        assert ladder.bucket(1).index == 1
        with pytest.raises(IndexError):
            ladder.bucket(0)
        with pytest.raises(IndexError):
            ladder.bucket(99)

    def test_dof_fraction_monotone(self, ladder):
        fracs = [ladder.dof_fraction(m) for m in range(ladder.num_buckets + 1)]
        assert fracs == sorted(fracs)
        assert all(0 < f <= 1.0 + 1e-9 for f in fracs)

    def test_bytes_through_monotone(self, ladder):
        vals = [ladder.bytes_through(m) for m in range(ladder.num_buckets + 1)]
        assert vals == sorted(vals)
        assert vals[0] == ladder.base_nbytes

    def test_stream_sorted_within_levels(self, ladder):
        """Within each level, |coefficients| must be non-increasing."""
        offsets = ladder._level_offsets
        vals = np.abs(ladder._stream_values)
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            seg = vals[lo:hi]
            assert np.all(np.diff(seg) <= 1e-12)

    def test_level_of_matches_bucket(self, ladder):
        for b in ladder.buckets:
            assert ladder.level_of(b.index) == b.finest_level


class TestLadderReconstruction:
    def test_full_stream_exact(self, ladder, smooth_field):
        rec = ladder.reconstruct_at_cut(ladder.stream_length)
        np.testing.assert_allclose(rec, smooth_field, atol=1e-10)

    def test_rung_reconstruction_meets_bound(self, ladder, smooth_field):
        for b in ladder.buckets:
            rec = ladder.reconstruct(b.index)
            err = nrmse(smooth_field, rec)
            assert err <= b.bound * (1 + 1e-9)

    def test_rung_zero_is_base_only(self, ladder):
        rec0 = ladder.reconstruct(0)
        np.testing.assert_allclose(rec0, ladder.reconstruct_at_cut(0))

    def test_error_decreases_along_rungs(self, ladder, smooth_field):
        errs = [nrmse(smooth_field, ladder.reconstruct(m)) for m in range(4)]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))

    def test_invalid_cut_rejected(self, ladder):
        with pytest.raises(ValueError):
            ladder.reconstruct_at_cut(-1)
        with pytest.raises(ValueError):
            ladder.reconstruct_at_cut(ladder.stream_length + 1)


class TestFindBucketForBound:
    def test_loose_bound_is_base(self, ladder):
        assert ladder.find_bucket_for_bound(ladder.base_error * 2) == 0

    def test_each_rung_found(self, ladder):
        for b in ladder.buckets:
            assert ladder.find_bucket_for_bound(b.bound) <= b.index

    def test_too_tight_raises(self, ladder):
        with pytest.raises(ValueError, match="tighter"):
            ladder.find_bucket_for_bound(1e-30)


class TestPsnrLadder:
    def test_psnr_buckets(self, smooth_field):
        dec = decompose(smooth_field, 4)
        ladder = build_ladder(dec, [30.0, 50.0, 70.0], ErrorMetric.PSNR)
        assert ladder.budget.bounds == (30.0, 50.0, 70.0)
        for b in ladder.buckets:
            rec = ladder.reconstruct(b.index)
            assert psnr(smooth_field, rec) >= b.bound - 1e-9


class TestTrivialDecomposition:
    def test_one_level_ladder(self, smooth_field):
        dec = decompose(smooth_field, 1)
        ladder = build_ladder(dec, [0.1], ErrorMetric.NRMSE)
        assert ladder.stream_length == 0
        assert ladder.base_error == 0.0
        np.testing.assert_allclose(ladder.reconstruct(1), smooth_field)


class TestAnalyticMethod:
    def test_bounds_still_guaranteed(self, smooth_field):
        dec = decompose(smooth_field, 4)
        ladder = build_ladder(
            dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE, method="analytic"
        )
        for b in ladder.buckets:
            assert ladder.metric.satisfied(b.achieved_error, b.bound)

    def test_cuts_close_to_measured(self, smooth_field):
        # The default build's cuts are the measured minimal cuts.
        dec = decompose(smooth_field, 4)
        bounds = [0.1, 0.01, 0.001]
        measured = build_ladder(dec, bounds, ErrorMetric.NRMSE)
        analytic = build_ladder(dec, bounds, ErrorMetric.NRMSE, method="analytic")
        n = max(measured.stream_length, 1)
        for bm, ba in zip(measured.buckets, analytic.buckets):
            assert abs(bm.stop - ba.stop) <= max(0.1 * n, 64)

    def test_psnr_analytic(self, smooth_field):
        dec = decompose(smooth_field, 4)
        ladder = build_ladder(dec, [30.0, 50.0], ErrorMetric.PSNR, method="analytic")
        for b in ladder.buckets:
            assert b.achieved_error >= b.bound - 1e-9

    def test_unknown_method_rejected(self, smooth_field):
        dec = decompose(smooth_field, 2)
        with pytest.raises(ValueError, match="method"):
            build_ladder(dec, [0.1], ErrorMetric.NRMSE, method="oracle")

    def test_cuts_monotone(self, smooth_field):
        dec = decompose(smooth_field, 4)
        ladder = build_ladder(
            dec, [0.1, 0.01, 0.001, 0.0001], ErrorMetric.NRMSE, method="analytic"
        )
        cuts = [b.stop for b in ladder.buckets]
        assert cuts == sorted(cuts)


class TestLadderProperty:
    @given(bound=st.sampled_from([0.3, 0.1, 0.03, 0.01, 0.003]))
    @settings(max_examples=10, deadline=None)
    def test_any_bound_is_satisfied(self, bound):
        rng = np.random.default_rng(0)
        x = np.linspace(0, 6, 96)
        field = np.sin(x)[:, None] * np.cos(x)[None, :] + 0.05 * rng.standard_normal((96, 96))
        dec = decompose(field, 3)
        ladder = build_ladder(dec, [bound], ErrorMetric.NRMSE)
        rec = ladder.reconstruct(1)
        assert nrmse(field, rec) <= bound * (1 + 1e-9)
