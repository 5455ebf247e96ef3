"""Tests for repro.core.recompose — Algorithm 1's decision phase."""

import pytest

from repro.core.abplot import AugmentationBandwidthPlot
from repro.core.error_control import ErrorMetric, build_ladder
from repro.core.recompose import PlanTable
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
def weight_fn(ladder):
    cards = [max(b.cardinality, 1) for b in ladder.buckets]
    return WeightFunction.calibrated(
        ErrorMetric.NRMSE,
        cardinality_range=(min(cards), max(max(cards), min(cards) + 1)),
        accuracy_range=(0.1, 0.001),
    )


class TestPlanBasics:
    def test_high_bandwidth_full_augmentation(self, ladder, abplot):
        plan = PlanTable(ladder, 0.1).plan(mb_per_s(200), abplot)
        assert plan.augmentation_degree == 1.0
        assert plan.estimated_rung == ladder.num_buckets
        assert plan.target_rung == ladder.num_buckets

    def test_low_bandwidth_no_extra_augmentation(self, ladder, abplot):
        """Under heavy congestion nothing beyond empty rungs is planned.

        Zero-cardinality rungs are reachable at zero cost, so the
        estimated rung may be positive — but no bytes move.
        """
        plan = PlanTable(ladder, ladder.base_error * 2).plan(mb_per_s(10), abplot)
        assert plan.augmentation_degree == 0.0
        assert plan.total_augmentation_bytes == 0
        assert not plan.retrieves_augmentation

    def test_prescribed_bound_mandates_rung(self, ladder, abplot):
        """k = max(i, j): even under congestion, the error bound wins."""
        plan = PlanTable(ladder, 0.001).plan(mb_per_s(5), abplot)
        i = ladder.find_bucket_for_bound(0.001)
        assert plan.prescribed_rung == i
        assert plan.target_rung == i
        # The congestion estimate alone would have shipped no bytes.
        est_stop = (
            ladder.bucket(plan.estimated_rung).stop if plan.estimated_rung > 0 else 0
        )
        assert est_stop == 0

    def test_estimate_can_exceed_prescription(self, ladder, abplot):
        plan = PlanTable(ladder, 0.1).plan(mb_per_s(500), abplot)
        assert plan.target_rung == max(plan.prescribed_rung, plan.estimated_rung)
        assert plan.target_rung == ladder.num_buckets

    def test_steps_cover_rungs(self, ladder, abplot):
        plan = PlanTable(ladder, 0.001).plan(mb_per_s(500), abplot)
        assert [s.bucket.index for s in plan.steps] == list(
            range(1, plan.target_rung + 1)
        )

    def test_non_adaptive_ignores_estimate(self, ladder, abplot):
        plan = PlanTable(ladder, ladder.base_error * 2).plan(
            mb_per_s(1), abplot, adaptive=False
        )
        assert plan.target_rung == ladder.num_buckets
        assert plan.augmentation_degree == 1.0

    def test_nan_bandwidth_rejected(self, ladder, abplot):
        with pytest.raises(ValueError):
            PlanTable(ladder, 0.1).plan(float("nan"), abplot)


class TestPlanWeights:
    def test_no_weight_fn_gives_none(self, ladder, abplot):
        plan = PlanTable(ladder, 0.001).plan(mb_per_s(500), abplot)
        assert all(s.weight is None for s in plan.steps)

    def test_weight_fn_applied_per_bucket(self, ladder, abplot, weight_fn):
        plan = PlanTable(ladder, 0.001, weight_fn=weight_fn, priority=10.0).plan(
            mb_per_s(500), abplot
        )
        for s in plan.steps:
            assert s.weight == weight_fn(s.bucket.cardinality, s.bucket.bound, 10.0)

    def test_priority_raises_weights(self, ladder, abplot, weight_fn):
        lo = PlanTable(ladder, 0.001, weight_fn=weight_fn, priority=1.0).plan(
            mb_per_s(500), abplot
        )
        hi = PlanTable(ladder, 0.001, weight_fn=weight_fn, priority=10.0).plan(
            mb_per_s(500), abplot
        )
        pairs = [
            (a.weight, b.weight)
            for a, b in zip(lo.steps, hi.steps)
            if a.bucket.cardinality > 0
        ]
        assert pairs and all(hi_w >= lo_w for lo_w, hi_w in pairs)


class TestPlanAccounting:
    def test_total_bytes(self, ladder, abplot):
        plan = PlanTable(ladder, 0.001).plan(mb_per_s(500), abplot)
        assert plan.total_augmentation_bytes == sum(s.bucket.nbytes for s in plan.steps)

    def test_retrieves_augmentation_flag(self, ladder, abplot):
        full = PlanTable(ladder, 0.001).plan(mb_per_s(500), abplot)
        none = PlanTable(ladder, ladder.base_error * 2).plan(mb_per_s(1), abplot)
        assert full.retrieves_augmentation
        assert not none.retrieves_augmentation


class TestWeightCardinalityModes:
    def test_total_mode_monotone_decreasing(self, ladder, abplot, weight_fn):
        """With total cardinality only the accuracy term varies, so the
        within-step weight trace falls (the paper's Fig. 15 shape)."""
        plan = PlanTable(
            ladder, 0.001, weight_fn=weight_fn, priority=10.0, weight_cardinality="total"
        ).plan(mb_per_s(500), abplot)
        weights = [s.weight for s in plan.steps]
        assert weights == sorted(weights, reverse=True)

    def test_total_mode_uses_step_total(self, ladder, abplot, weight_fn):
        plan = PlanTable(
            ladder, 0.001, weight_fn=weight_fn, priority=10.0, weight_cardinality="total"
        ).plan(mb_per_s(500), abplot)
        total = sum(s.bucket.cardinality for s in plan.steps)
        for s in plan.steps:
            assert s.weight == weight_fn(total, s.bucket.bound, 10.0)

    def test_modes_differ_when_cardinalities_differ(self, ladder, abplot, weight_fn):
        kwargs = dict(weight_fn=weight_fn, priority=10.0)
        bucket_plan = PlanTable(ladder, 0.001, **kwargs).plan(mb_per_s(500), abplot)
        total_plan = PlanTable(
            ladder, 0.001, weight_cardinality="total", **kwargs
        ).plan(mb_per_s(500), abplot)
        assert [s.weight for s in bucket_plan.steps] != [
            s.weight for s in total_plan.steps
        ]

    def test_unknown_mode_rejected(self, ladder, abplot):
        with pytest.raises(ValueError, match="weight_cardinality"):
            PlanTable(ladder, 0.01, weight_cardinality="median")

    def test_policy_threads_mode(self, ladder, abplot, weight_fn):
        from repro.core.controller import make_policy

        policy = make_policy("cross-layer", weight_fn, weight_cardinality="total")
        plan = policy.plan_table(ladder, 0.001, 10.0).plan(
            mb_per_s(500), abplot, adaptive=policy.app_adaptive
        )
        weights = [s.weight for s in plan.steps]
        assert weights == sorted(weights, reverse=True)


class TestPlanProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(bw_mb=st.floats(0.0, 500.0))
    @settings(max_examples=40, deadline=None)
    def test_property_target_is_max(self, bw_mb):
        import numpy as np
        from repro.core.error_control import build_ladder
        from repro.core.refactor import decompose

        rng = np.random.default_rng(0)
        x = np.linspace(0, 4, 96)
        field = np.sin(2 * x)[:, None] * np.cos(3 * x)[None, :]
        field = field + 0.02 * rng.standard_normal(field.shape)
        ladder = build_ladder(decompose(field, 3), [0.1, 0.01], ErrorMetric.NRMSE)
        abplot = AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120))
        plan = PlanTable(ladder, 0.01).plan(mb_per_s(bw_mb), abplot)
        assert plan.target_rung == max(plan.prescribed_rung, plan.estimated_rung)
        assert plan.prescribed_rung == ladder.find_bucket_for_bound(0.01)
        assert len(plan.steps) == plan.target_rung
        # More predicted bandwidth never shrinks the plan.
        richer = PlanTable(ladder, 0.01).plan(mb_per_s(bw_mb) + 1e7, abplot)
        assert richer.target_rung >= plan.target_rung


class TestRecomposeToBound:
    """Lines 14–23: prolongate-and-add up to the plan's target rung."""

    def test_bound_satisfied(self, ladder, abplot, smooth_field):
        from repro.core.metrics import nrmse

        plan = PlanTable(ladder, 0.01).plan(mb_per_s(1), abplot)
        rec = ladder.reconstruct(plan.target_rung)
        assert nrmse(smooth_field, rec) <= 0.01 * (1 + 1e-9)
