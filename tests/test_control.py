"""Tests for repro.control — the controller family and its name table."""

import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    CONTROLLERS,
    ControllerConfig,
    MpcController,
    PidController,
    TangoController,
)
from repro.core.abplot import AugmentationBandwidthPlot
from repro.core.controller import AppOnlyPolicy
from repro.core.error_control import ErrorMetric, build_ladder
from repro.core.refactor import decompose
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.util.units import mb_per_s
from repro.util.validation import lookup


@lru_cache(maxsize=1)
def _ladder():
    x, y = np.meshgrid(np.linspace(0, 4, 128), np.linspace(0, 4, 96), indexing="ij")
    field = np.sin(2 * x) * np.cos(3 * y)
    return build_ladder(decompose(field, 4), [0.1, 0.01, 0.001], ErrorMetric.NRMSE)


def _abplot():
    return AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120))


def _make(cls, **cfg_kwargs):
    cfg_kwargs.setdefault("prescribed_bound", 0.01)
    return cls(
        _ladder(), AppOnlyPolicy(), _abplot(), config=ControllerConfig(**cfg_kwargs)
    )


# -- the name table -------------------------------------------------------


class TestRegistry:
    def test_builtins_registered(self):
        assert {"tango", "pid", "mpc"} <= set(CONTROLLERS)

    def test_get_returns_classes(self):
        assert CONTROLLERS["tango"] is TangoController
        assert CONTROLLERS["pid"] is PidController
        assert CONTROLLERS["mpc"] is MpcController

    def test_unknown_name_raises_with_options(self):
        with pytest.raises(ValueError, match="tango"):
            lookup("controller", CONTROLLERS, "lqr")

    def test_name_attribute_matches_registry_key(self):
        for name in ("tango", "pid", "mpc"):
            assert CONTROLLERS[name].name == name


# -- config validation ----------------------------------------------------


class TestControllerConfig:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            ControllerConfig(0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(estimation_interval=0),
            dict(min_history=1),
            dict(history_window=4, min_history=8),
            dict(pid_derivative_filter=0.0),
            dict(pid_derivative_filter=1.5),
            dict(pid_integral_limit=0.0),
            dict(mpc_horizon=0),
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(prescribed_bound=0.01, **kwargs)

    def test_with_returns_modified_copy(self):
        cfg = ControllerConfig(prescribed_bound=0.01)
        assert cfg.with_(mpc_horizon=8).mpc_horizon == 8
        assert cfg.mpc_horizon == 4

    def test_config_required(self):
        with pytest.raises(TypeError, match="config"):
            PidController(_ladder(), AppOnlyPolicy(), _abplot())

    def test_scenario_config_rejects_unknown_controller(self):
        with pytest.raises(ValueError, match="unknown controller"):
            ScenarioConfig(controller="lqr")


# -- scenario integration -------------------------------------------------


def _rec_tuple(r):
    return (
        r.step,
        r.started_at,
        r.io_time,
        r.io_bytes,
        r.target_rung,
        r.prescribed_rung,
        r.predicted_bw,
        r.measured_bw,
        tuple(r.weights),
        r.probe_used,
        r.read_errors,
        r.base_time,
        tuple(r.bucket_times),
    )


def _fingerprint(res):
    payload = json.dumps(
        [list(_rec_tuple(r)) for r in res.records]
        + [res.final_time, res.weight_history]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class TestScenarioIntegration:
    def test_tango_through_registry_is_bit_identical(self):
        """controller="tango" must reproduce the engine's recorded
        fingerprint exactly — the refactor moved code, not behaviour."""
        res = run_scenario(ScenarioConfig(max_steps=6, seed=3, controller="tango"))
        assert (
            _fingerprint(res)
            == "3303f5b2ae6bf5dd97a7b64fcd6a5aa10737915fdfbc5a9dfb52c2ae55dee80e"
        )

    @pytest.mark.parametrize("controller", ["tango", "pid", "mpc"])
    def test_each_controller_is_deterministic(self, controller):
        cfg = ScenarioConfig(max_steps=5, seed=2, controller=controller)
        assert _fingerprint(run_scenario(cfg)) == _fingerprint(run_scenario(cfg))

    def test_pid_trace_differs_from_tango(self):
        tango = run_scenario(ScenarioConfig(max_steps=6, seed=3))
        pid = run_scenario(ScenarioConfig(max_steps=6, seed=3, controller="pid"))
        assert not np.array_equal(
            tango.predicted_bandwidths, pid.predicted_bandwidths
        )

    def test_controller_params_reach_the_controller(self):
        """The config's controller, bound, priority and estimation interval
        reach the built controller; its tuning fields keep their defaults."""
        res = run_scenario(
            ScenarioConfig(
                max_steps=3,
                controller="mpc",
                prescribed_bound=0.001,
                priority=5.0,
                estimation_interval=7,
            )
        )
        assert isinstance(res.controller, MpcController)
        assert res.controller.config == ControllerConfig(
            prescribed_bound=0.001, priority=5.0, estimation_interval=7
        )


# -- PID properties -------------------------------------------------------


_BW = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


class TestPidProperties:
    @given(bws=st.lists(_BW, min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_antiwindup_bounds_integral(self, bws):
        ctrl = _make(PidController, pid_integral_limit=2.0)
        for step, bw in enumerate(bws):
            ctrl.observe(step, bw)
            assert abs(ctrl._integral) <= 2.0

    @given(bws=st.lists(_BW, min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_output_is_always_a_valid_rung(self, bws):
        ctrl = _make(PidController)
        for step, bw in enumerate(bws):
            decision = ctrl.decide(step)
            assert 0 <= decision.target_rung <= _ladder().num_buckets
            ctrl.observe(step, bw)

    def test_optimistic_before_first_sample(self):
        ctrl = _make(PidController)
        decision = ctrl.decide(0)
        assert decision.predicted_bw == pytest.approx(_abplot().bw_high)

    def test_tracks_setpoint_direction(self):
        """Sustained bandwidth above the setpoint pushes the plan up."""
        ctrl = _make(PidController)
        for step in range(12):
            ctrl.observe(step, mb_per_s(500))
        assert ctrl.decide(12).predicted_bw >= ctrl._setpoint()


# -- MPC properties -------------------------------------------------------


class TestMpcProperties:
    def _feed(self, ctrl, steps=16):
        for s in range(steps):
            ctrl.observe(s, mb_per_s(80 + 40 * np.sin(2 * np.pi * s / 8)))

    def test_horizon_one_reduces_to_greedy(self):
        """With a one-step horizon MPC's plan equals tango's point
        prediction, bit for bit."""
        kw = dict(min_history=8, estimation_interval=100, mpc_horizon=1)
        mpc = _make(MpcController, **kw)
        tango = _make(TangoController, **kw)
        self._feed(mpc)
        self._feed(tango)
        for step in range(16, 24):
            assert mpc.decide(step).predicted_bw == tango.decide(step).predicted_bw

    def test_longer_horizon_is_conservative(self):
        """The min over the horizon can only be <= the point prediction."""
        kw = dict(min_history=8, estimation_interval=100)
        mpc = _make(MpcController, **kw, mpc_horizon=8)
        tango = _make(TangoController, **kw)
        self._feed(mpc)
        self._feed(tango)
        for step in range(16, 24):
            # Tolerance: vector vs scalar DFT evaluation rounds in the
            # last ulp differently, so "<=" needs a relative epsilon.
            assert mpc.decide(step).predicted_bw <= tango.decide(
                step
            ).predicted_bw * (1 + 1e-9)

    def test_falls_back_before_fit(self):
        ctrl = _make(MpcController, min_history=8)
        ctrl.observe(0, mb_per_s(40))
        ctrl.observe(1, mb_per_s(80))
        decision = ctrl.decide(2)
        assert not decision.estimator_fitted
        assert decision.predicted_bw == pytest.approx(mb_per_s(60))
