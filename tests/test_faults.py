"""Tests for repro.faults — campaigns, retry policies, graceful degradation."""

import numpy as np
import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.faults import (
    CONTROLLER_MODES,
    DEFAULT_RETRY_POLICY,
    DegradationPolicy,
    DeviceStall,
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    FeedCorruption,
    MODE_LAST_GOOD,
    MODE_NORMAL,
    MODE_STATIC,
    MODE_WEIGHTS_ONLY,
    RetryPolicy,
    SpeedRamp,
)
from repro.faults.campaign import FAULT_CAMPAIGNS
from repro.simkernel import Simulation
from repro.storage.device import DEVICE_PRESETS, BlockDevice
from repro.util.rng import make_rng


def _device(sim):
    return BlockDevice(sim, DEVICE_PRESETS["seagate-hdd-2t"])


class TestFaultEvents:
    def test_burst_validation(self):
        with pytest.raises(ValueError):
            ErrorBurst(at=-1.0)
        with pytest.raises(ValueError):
            ErrorBurst(at=0.0, count=0)

    def test_ramp_produces_steps(self):
        ramp = SpeedRamp(start=10.0, duration=40.0, factor_from=1.0, factor_to=0.5,
                         steps=4)
        camp = FaultCampaign(name="r", events=(ramp,))
        sim = Simulation()
        plan = FaultInjector(sim, _device(sim), camp).build_plan()
        assert len(plan) == 4
        assert all(f.kind == "speed-step" for f in plan)
        factors = [f.args[0] for f in plan]
        assert factors[0] > factors[-1]
        assert factors[-1] == pytest.approx(0.5)

    def test_corruption_modes(self):
        w = FeedCorruption(start=0.0, duration=10.0, mode="drop")
        assert np.isnan(w.apply(42.0))
        z = FeedCorruption(start=0.0, duration=10.0, mode="zero")
        assert z.apply(42.0) == 0.0
        o = FeedCorruption(start=0.0, duration=10.0, mode="outlier", scale=50.0)
        assert o.apply(42.0) == pytest.approx(42.0 * 50.0)
        with pytest.raises(ValueError):
            FeedCorruption(start=0.0, duration=1.0, mode="garble")

    def test_campaign_splits_event_kinds(self):
        camp = FaultCampaign(
            name="mix",
            events=(ErrorBurst(at=1.0), FeedCorruption(start=0.0, duration=5.0)),
        )
        assert len(camp.device_events) == 1
        assert len(camp.corruption_windows) == 1


class TestFaultInjector:
    @staticmethod
    def _fingerprint(camp, seed):
        sim = Simulation()
        inj = FaultInjector(sim, _device(sim), camp, rng=make_rng(seed)).schedule()
        fp = inj.plan_fingerprint()
        assert fp  # chaos always has device events
        return fp

    def test_plan_deterministic_per_seed(self):
        camp = FAULT_CAMPAIGNS["chaos"](ScenarioConfig(max_steps=20))
        assert self._fingerprint(camp, 7) == self._fingerprint(camp, 7)

    def test_seed_changes_jittered_plan(self):
        camp = FAULT_CAMPAIGNS["chaos"](ScenarioConfig(max_steps=20))
        assert self._fingerprint(camp, 7) != self._fingerprint(camp, 8)

    def test_plan_is_time_sorted(self):
        camp = FAULT_CAMPAIGNS["chaos"](ScenarioConfig(max_steps=20))
        sim = Simulation()
        plan = FaultInjector(sim, _device(sim), camp).build_plan()
        times = [f.time for f in plan]
        assert times == sorted(times)

    def test_schedule_fires_events(self):
        camp = FaultCampaign(
            name="one-burst", events=(ErrorBurst(at=5.0, count=2),)
        )
        sim = Simulation()
        device = _device(sim)
        inj = FaultInjector(sim, device, camp).schedule()
        sim.run(until=10.0)
        assert inj.fired == [(5.0, "error-burst")]
        assert device.pending_failures == 2

    def test_double_schedule_rejected(self):
        camp = FaultCampaign(name="b", events=(ErrorBurst(at=1.0),))
        sim = Simulation()
        inj = FaultInjector(sim, _device(sim), camp).schedule()
        with pytest.raises(RuntimeError):
            inj.schedule()

    def test_corrupt_sample_inside_window_only(self):
        camp = FaultCampaign(
            name="w",
            events=(FeedCorruption(start=10.0, duration=10.0, mode="zero"),),
        )
        sim = Simulation()
        inj = FaultInjector(sim, _device(sim), camp)
        assert inj.corrupt_sample(5.0, 42.0) == 42.0
        assert inj.corrupt_sample(15.0, 42.0) == 0.0
        assert inj.corrupt_sample(25.0, 42.0) == 42.0
        assert inj.samples_corrupted == 1

    def test_builtin_campaigns_scale_to_config(self):
        short = FAULT_CAMPAIGNS["error-bursts"](ScenarioConfig(max_steps=10))
        long = FAULT_CAMPAIGNS["error-bursts"](ScenarioConfig(max_steps=100))
        assert max(e.at for e in short.device_events) < max(
            e.at for e in long.device_events
        )


class TestDeviceStall:
    def test_stall_blocks_then_recovers(self):
        camp = FaultCampaign(name="s", events=(DeviceStall(at=0.0, duration=10.0),))
        sim = Simulation()
        device = _device(sim)
        FaultInjector(sim, device, camp).schedule()
        sim.run(until=5.0)
        assert device.stalled
        assert device.speed_factor < 1e-6
        sim.run(until=20.0)
        assert not device.stalled
        assert device.speed_factor == 1.0

    def test_speed_factor_set_during_stall_applies_after(self):
        sim = Simulation()
        device = _device(sim)
        device.stall(10.0)
        device.set_speed_factor(0.5)
        assert device.speed_factor < 1e-6  # still stalled
        sim.run(until=15.0)
        assert device.speed_factor == 0.5

    def test_overlapping_stalls_extend(self):
        sim = Simulation()
        device = _device(sim)
        device.stall(10.0)
        sim.run(until=5.0)
        device.stall(10.0)  # extends to t=15
        sim.run(until=12.0)
        assert device.stalled
        sim.run(until=16.0)
        assert not device.stalled


class TestRetryPolicy:
    def test_default_matches_legacy_single_retry(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 2
        # Zero backoff: the retry is immediate, exactly like the old
        # hard-coded path (no Timeout event is even scheduled).
        assert DEFAULT_RETRY_POLICY.backoff_delay(1) == 0.0

    def test_backoff_grows_exponentially(self):
        pol = RetryPolicy(max_attempts=4, backoff_base=1.0, backoff_multiplier=2.0)
        delays = [pol.backoff_delay(a) for a in (1, 2, 3)]
        assert delays == [1.0, 2.0, 4.0]

    def test_jitter_is_seeded_and_bounded(self):
        pol = RetryPolicy(max_attempts=3, backoff_base=1.0, jitter=0.5)
        d1 = pol.backoff_delay(1, make_rng(3))
        d2 = pol.backoff_delay(1, make_rng(3))
        assert d1 == d2  # same seed, same draw
        assert 0.5 <= d1 <= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)

    def test_max_total_backoff(self):
        pol = RetryPolicy(max_attempts=3, backoff_base=1.0, backoff_multiplier=2.0)
        # Two sleeps (after attempts 1 and 2): 1 + 2.
        assert pol.max_total_backoff() == pytest.approx(3.0)


class TestDegradationPolicy:
    def test_mode_ladder_ordering(self):
        pol = DegradationPolicy()
        modes = [pol.mode_for_streak(s) for s in range(0, 12)]
        # Monotone: deeper streak never yields a shallower mode.
        ranks = [CONTROLLER_MODES.index(m) for m in modes]
        assert ranks == sorted(ranks)
        assert modes[0] == MODE_NORMAL
        assert pol.mode_for_streak(pol.last_good_after) == MODE_LAST_GOOD
        assert pol.mode_for_streak(pol.static_after) == MODE_STATIC
        assert pol.mode_for_streak(pol.weights_only_after) == MODE_WEIGHTS_ONLY

    def test_threshold_ordering_validated(self):
        with pytest.raises(ValueError):
            DegradationPolicy(last_good_after=5, static_after=2)


class TestControllerDegradation:
    def _controller(self, **kwargs):
        from repro.core.abplot import AugmentationBandwidthPlot
        from repro.control import ControllerConfig, TangoController
        from repro.core.controller import make_policy
        from repro.engine.memo import ladder_for_app
        from repro.apps import make_app
        from repro.core.error_control import ErrorMetric
        from repro.util.units import mb_per_s

        _, ladder = ladder_for_app(
            make_app("xgc"),
            grid_shape=(64, 64),
            decimation_ratio=4,
            metric=ErrorMetric.NRMSE,
            error_bounds=(0.1, 0.01),
            seed=0,
        )
        return TangoController(
            ladder,
            make_policy("app-only", None),
            AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120)),
            config=ControllerConfig(
                prescribed_bound=ladder.base_error, min_history=2
            ),
            degradation=DegradationPolicy(
                last_good_after=2, static_after=4, weights_only_after=6,
                recovery_samples=2, **kwargs,
            ),
        )

    def _feed(self, ctl, values, start_step=0):
        from repro.util.units import mb_per_s

        for i, v in enumerate(values):
            ctl.observe(start_step + i, mb_per_s(v) if np.isfinite(v) else v)

    def test_fallback_ladder_transitions(self):
        ctl = self._controller()
        self._feed(ctl, [60.0, 70.0, 65.0])
        d = ctl.decide(3)
        assert d.mode == MODE_NORMAL
        # Two bad samples -> last-good; four -> static midpoint.
        self._feed(ctl, [float("nan")] * 2, start_step=4)
        assert ctl.decide(6).mode == MODE_LAST_GOOD
        self._feed(ctl, [float("nan")] * 2, start_step=7)
        assert ctl.decide(9).mode == MODE_STATIC
        self._feed(ctl, [float("nan")] * 2, start_step=10)
        d = ctl.decide(12)
        assert d.mode == MODE_WEIGHTS_ONLY
        assert ctl.mode == MODE_WEIGHTS_ONLY

    def test_recovery_needs_a_valid_streak(self):
        ctl = self._controller()
        self._feed(ctl, [60.0, 70.0, 65.0])
        self._feed(ctl, [float("nan")] * 2, start_step=3)
        assert ctl.decide(5).mode == MODE_LAST_GOOD
        # One good sample is not enough to recover (hysteresis).
        self._feed(ctl, [62.0], start_step=6)
        assert ctl.decide(7).mode == MODE_LAST_GOOD
        self._feed(ctl, [64.0], start_step=8)
        assert ctl.decide(9).mode == MODE_NORMAL

    def test_mode_history_records_transitions(self):
        ctl = self._controller()
        self._feed(ctl, [60.0, 70.0, 65.0])
        ctl.decide(3)
        self._feed(ctl, [float("nan")] * 2, start_step=4)
        ctl.decide(6)
        assert ctl.mode_history
        step, from_mode, to_mode = ctl.mode_history[0]
        assert (from_mode, to_mode) == (MODE_NORMAL, MODE_LAST_GOOD)

    def test_outlier_samples_rejected(self):
        from repro.util.units import mb_per_s

        ctl = self._controller()
        self._feed(ctl, [60.0, 70.0, 65.0])
        # A sample 1000x past bw_high is physically impossible: rejected.
        ctl.observe(3, mb_per_s(120_000.0))
        assert ctl._history[-1].valid is False

    def test_legacy_controller_still_raises_without_degradation(self):
        from repro.core.abplot import AugmentationBandwidthPlot
        from repro.control import ControllerConfig, TangoController
        from repro.core.controller import make_policy
        from repro.engine.memo import ladder_for_app
        from repro.apps import make_app
        from repro.core.error_control import ErrorMetric
        from repro.util.units import mb_per_s

        _, ladder = ladder_for_app(
            make_app("xgc"), grid_shape=(64, 64), decimation_ratio=4,
            metric=ErrorMetric.NRMSE, error_bounds=(0.1, 0.01), seed=0,
        )
        ctl = TangoController(
            ladder, make_policy("app-only", None),
            AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120)),
            config=ControllerConfig(prescribed_bound=ladder.base_error),
        )
        with pytest.raises(ValueError):
            ctl.observe(0, float("nan"))


FAST_CHAOS = dict(policy="cross-layer", max_steps=12, seed=0, faults="chaos")


class TestScenarioUnderFaults:
    @pytest.fixture(scope="class")
    def chaos_result(self):
        return run_scenario(ScenarioConfig(**FAST_CHAOS))

    def test_completes_all_steps(self, chaos_result):
        assert len(chaos_result.records) == 12

    def test_bit_identical_across_runs(self, chaos_result):
        again = run_scenario(ScenarioConfig(**FAST_CHAOS))
        a = [
            (r.step, r.started_at, r.io_time, r.io_bytes, r.measured_bw,
             r.predicted_bw, r.target_rung, r.read_errors, r.skipped_objects,
             r.controller_mode)
            for r in chaos_result.records
        ]
        b = [
            (r.step, r.started_at, r.io_time, r.io_bytes, r.measured_bw,
             r.predicted_bw, r.target_rung, r.read_errors, r.skipped_objects,
             r.controller_mode)
            for r in again.records
        ]
        assert a == b

    def test_faults_actually_bite(self, chaos_result):
        assert chaos_result.total_read_errors > 0
        assert chaos_result.mode_transitions

    def test_degraded_steps_are_reported_not_hidden(self, chaos_result):
        # Every step either honoured its plan or says it skipped objects.
        for r in chaos_result.records:
            if r.skipped_objects:
                assert r.step in chaos_result.degraded_steps

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(faults="gremlins")

    def test_fault_free_config_has_no_injector(self):
        res = run_scenario(ScenarioConfig(policy="cross-layer", max_steps=4, seed=0))
        assert res.total_read_errors == 0
        assert res.total_skipped_objects == 0
        assert res.mode_transitions == []

    def test_hardened_retry_reduces_skips(self):
        from repro.experiments.resilience import HARDENED_RETRY

        base = run_scenario(ScenarioConfig(**FAST_CHAOS))
        hard = run_scenario(
            ScenarioConfig(**FAST_CHAOS, retry=HARDENED_RETRY)
        )
        assert hard.total_skipped_objects <= base.total_skipped_objects
