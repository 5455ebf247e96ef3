"""A controller's plan table gives exactly the stateless plans.

``BaseController.decide`` plans every step through one per-controller
:class:`~repro.core.recompose.PlanTable`, which caches each target
rung's retrieval steps.  These tests pin that every decision's plan
``==`` a fresh table's plan of the same inputs, for every policy,
weight-cardinality reading and degradation mode.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.control import (
    ControllerConfig,
    MpcController,
    PidController,
    TangoController,
)
from repro.core.abplot import AugmentationBandwidthPlot
from repro.core.controller import POLICY_NAMES, make_policy
from repro.core.error_control import ErrorMetric, build_ladder
from repro.core.recompose import PlanTable
from repro.core.refactor import decompose
from repro.engine.registry import POLICIES
from repro.faults.degradation import (
    CONTROLLER_MODES,
    MODE_WEIGHTS_ONLY,
    DegradationPolicy,
)
from repro.util.units import mb_per_s

LOW, HIGH = mb_per_s(30), mb_per_s(120)

#: Predictions from below ``bw_low`` to above ``bw_high``, both
#: thresholds and their neighbours included.
SWEEP = [
    -1.0,
    0.0,
    LOW / 2,
    np.nextafter(LOW, 0.0),
    LOW,
    np.nextafter(LOW, np.inf),
    *np.linspace(LOW, HIGH, 9)[1:-1].tolist(),
    np.nextafter(HIGH, 0.0),
    HIGH,
    np.nextafter(HIGH, np.inf),
    2 * HIGH,
]
SWEEP = [float(bw) for bw in SWEEP]


@lru_cache(maxsize=1)
def _ladder():
    x, y = np.meshgrid(np.linspace(0, 4, 128), np.linspace(0, 4, 96), indexing="ij")
    field = np.sin(2 * x) * np.cos(3 * y)
    return build_ladder(decompose(field, 4), [0.1, 0.01, 0.001], ErrorMetric.NRMSE)


def _abplot():
    return AugmentationBandwidthPlot(bw_low=LOW, bw_high=HIGH)


def _policy(name, weight_cardinality):
    weight_fn = POLICIES.get(name).build_weight_function(_ladder())
    return make_policy(name, weight_fn, weight_cardinality=weight_cardinality)


class _Scripted(TangoController):
    """Tango's loop with the prediction set by the test."""

    bw = 0.0

    def _plan_bandwidth(self, step):
        return self.bw, False


def _assert_steps(ctrl, plan):
    """The plan's steps, spelled out without ``PlanTable``."""
    policy = ctrl.policy
    buckets = ctrl.ladder.buckets[: plan.target_rung]
    total = sum(b.cardinality for b in buckets)
    assert len(plan.steps) == len(buckets)
    for step, bkt in zip(plan.steps, buckets):
        assert step.bucket is bkt and step.tier_level == bkt.finest_level
        if policy.weight_fn is None:
            assert step.weight is None
        else:
            card = bkt.cardinality if policy.weight_cardinality == "bucket" else total
            assert step.weight == policy.weight_fn(card, bkt.bound, ctrl.priority)


def _assert_stateless(ctrl):
    """Every decision's plan equals a fresh table's plan."""
    policy = ctrl.policy
    for dec in ctrl.decisions:
        _assert_steps(ctrl, dec.plan)
        expected = PlanTable(
            ctrl.ladder,
            ctrl.prescribed_bound,
            policy.weight_fn,
            ctrl.priority,
            weight_cardinality=policy.weight_cardinality,
        ).plan(
            dec.predicted_bw,
            ctrl.abplot,
            adaptive=False if dec.mode == MODE_WEIGHTS_ONLY else policy.app_adaptive,
        )
        assert dec.plan == expected, (dec.step, dec.mode, dec.predicted_bw)


@pytest.mark.parametrize("weight_cardinality", ["bucket", "total"])
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
@pytest.mark.parametrize("bound", ["loose", 0.01])
def test_every_mode_matches_stateless_plans(policy_name, weight_cardinality, bound):
    ladder = _ladder()
    bound = 2 * ladder.base_error if bound == "loose" else bound
    ctrl = _Scripted(
        ladder,
        _policy(policy_name, weight_cardinality),
        _abplot(),
        config=ControllerConfig(prescribed_bound=bound, priority=5.0),
        # One invalid sample per rung of the fallback ladder, one valid
        # sample back to normal.
        degradation=DegradationPolicy(
            last_good_after=1, static_after=2, weights_only_after=3, recovery_samples=1
        ),
    )
    step = 0
    for bw in SWEEP:
        ctrl.bw = bw
        # normal, normal, last-good (holds bw), static-midpoint, weights-only
        for valid in (True, False, False, False, True):
            ctrl.decide(step)
            ctrl.observe(step, mb_per_s(60) if valid else float("nan"))
            step += 1
    assert {d.mode for d in ctrl.decisions} == set(CONTROLLER_MODES)
    assert {d.predicted_bw for d in ctrl.decisions} >= set(SWEEP)
    _assert_stateless(ctrl)


@pytest.mark.parametrize("cls", [TangoController, PidController, MpcController])
@pytest.mark.parametrize("policy_name", POLICY_NAMES)
def test_controller_laws_match_stateless_plans(cls, policy_name):
    """The real control laws (fitted DFT estimator, PID, MPC horizon)."""
    ctrl = cls(
        _ladder(),
        _policy(policy_name, "bucket"),
        _abplot(),
        config=ControllerConfig(prescribed_bound=0.1, estimation_interval=5),
    )
    rng = np.random.default_rng(7)
    for step in range(60):
        ctrl.decide(step)
        wave = mb_per_s(75) + mb_per_s(60) * np.sin(2 * np.pi * step / 9)
        ctrl.observe(step, float(max(wave + rng.normal(0.0, mb_per_s(10)), 0.0)))
    if ctrl.policy.app_adaptive:
        assert len({d.target_rung for d in ctrl.decisions}) > 1
    _assert_stateless(ctrl)


def test_too_tight_bound_raises_at_first_decide():
    ladder = _ladder()
    ctrl = TangoController(
        ladder,
        _policy("cross-layer", "bucket"),
        _abplot(),
        config=ControllerConfig(prescribed_bound=1e-12),
    )
    with pytest.raises(ValueError, match="tighter than the ladder"):
        ctrl.decide(0)
    with pytest.raises(ValueError, match="tighter than the ladder"):
        ctrl.decide(1)


def test_table_is_per_controller():
    """Each controller builds its own table once, at its first decision."""

    def make():
        return TangoController(
            _ladder(),
            _policy("cross-layer", "total"),
            _abplot(),
            config=ControllerConfig(prescribed_bound=0.01),
        )

    a, b = make(), make()
    assert a._plans is None
    a.decide(0)
    table = a._plans
    assert isinstance(table, PlanTable)
    a.decide(1)
    assert a._plans is table
    b.decide(0)
    assert b._plans is not table


def test_table_validates_its_inputs():
    ladder = _ladder()
    with pytest.raises(ValueError, match="weight_cardinality"):
        PlanTable(ladder, 0.1, weight_cardinality="mean")
    table = PlanTable(ladder, 0.1)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            table.plan(bad, _abplot())
