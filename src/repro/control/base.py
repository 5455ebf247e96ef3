"""The shared controller protocol: observe → (re)estimate → decide.

Every controller in the family (:data:`repro.engine.registry.CONTROLLERS`)
is a :class:`BaseController` subclass sharing one loop contract with the
analytics driver:

1. ``decide(step)`` → :class:`AdaptationDecision` — the recomposition
   plan plus the weights to program into the container's blkio cgroup;
2. ``observe(step, measured_bw)`` — the achieved bandwidth of the
   completed step, fed back into the controller's state.

The base class owns everything controller-independent: the observation
history with validity bookkeeping, periodic estimator refits, the
graceful-degradation ladder (see :mod:`repro.faults.degradation`), plan
construction through the policy, and observability.  Subclasses plug in
their control law through two hooks:

* :meth:`_plan_bandwidth` — the actuation bandwidth for the next step
  (Tango's estimator prediction, PID's corrected setpoint, MPC's
  horizon minimax);
* :meth:`_on_valid_sample` — per-valid-sample state updates (the PID
  error/integral/derivative chain; a no-op by default).

Both hooks only run in the ``normal`` degradation mode, so every
controller inherits the same fallback ladder behaviour under feed
corruption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.control.config import ControllerConfig
from repro.core.abplot import AugmentationBandwidthPlot
from repro.core.error_control import AccuracyLadder
from repro.core.estimator import BandwidthEstimator, DFTEstimator
from repro.core.recompose import PlanTable, RecompositionPlan
from repro.faults.degradation import (
    CONTROLLER_MODES,
    MODE_LAST_GOOD,
    MODE_NORMAL,
    MODE_WEIGHTS_ONLY,
    DegradationPolicy,
)
from repro.obs import OBS

__all__ = ["AdaptationDecision", "BaseController"]


@dataclass(frozen=True)
class AdaptationDecision:
    """What the controller decided for one analysis step."""

    step: int
    plan: RecompositionPlan
    predicted_bw: float
    estimator_fitted: bool
    #: Degradation-ladder mode this decision was made in (see
    #: :mod:`repro.faults.degradation`); ``"normal"`` on the happy path.
    mode: str = MODE_NORMAL

    @property
    def target_rung(self) -> int:
        return self.plan.target_rung


@dataclass
class _HistoryEntry:
    step: int
    bandwidth: float
    #: False for samples rejected as feed corruption (NaN, negative,
    #: implausible outlier); invalid samples never feed the estimator.
    valid: bool = True


class BaseController:
    """Per-application adaptation loop: observe → (re)estimate → decide.

    Parameters
    ----------
    ladder:
        The staged accuracy ladder for this application's dataset.
    policy:
        One of the four adaptivity policies.
    abplot:
        Bandwidth → augmentation-degree map.
    config:
        The controller's tuning knobs (see :class:`ControllerConfig`).
    estimator:
        Bandwidth estimator prototype; refit every
        ``config.estimation_interval`` steps on the trailing
        ``config.history_window`` observations.
    degradation:
        Graceful-degradation thresholds (see
        :class:`repro.faults.degradation.DegradationPolicy`).  When set,
        non-finite/negative/outlier samples are *recorded as invalid*
        instead of raising, and sustained feed corruption walks the
        controller down its fallback ladder (last-good → static midpoint
        → weights-only).  ``None`` (the default) keeps the strict legacy
        contract: a bad sample raises :class:`ValueError`.
    """

    #: Registry name of this controller family member.
    name: str = "abstract"

    def __init__(
        self,
        ladder: AccuracyLadder,
        policy,
        abplot: AugmentationBandwidthPlot,
        *,
        config: ControllerConfig,
        estimator: BandwidthEstimator | None = None,
        degradation: DegradationPolicy | None = None,
    ) -> None:
        if not isinstance(config, ControllerConfig):
            raise TypeError(
                f"config must be a ControllerConfig, got {config!r}"
            )
        self.ladder = ladder
        self.policy = policy
        self.abplot = abplot
        self.config = config
        self.prescribed_bound = float(config.prescribed_bound)
        self.priority = float(config.priority)
        self.estimator = estimator if estimator is not None else DFTEstimator()
        self.estimation_interval = int(config.estimation_interval)
        self.min_history = int(config.min_history)
        self.history_window = int(config.history_window)
        self.optimistic_bw = float(
            config.optimistic_bw if config.optimistic_bw is not None else abplot.bw_high
        )
        self.degradation = degradation
        self._history: list[_HistoryEntry] = []
        self._valid_count = 0
        self._invalid_streak = 0
        self._valid_streak = 0
        self._fit_start_step: int | None = None
        self._steps_since_fit = 0
        self._mode = MODE_NORMAL
        self._last_good_prediction: float | None = None
        #: ``(step, from_mode, to_mode)`` degradation-ladder transitions.
        self.mode_history: list[tuple[int, str, str]] = []
        self.decisions: list[AdaptationDecision] = []
        self._obs_cache: tuple | None = None
        #: The policy's plans for this ladder, bound and priority, built
        #: at the first decision (see :meth:`decide`).
        self._plans: PlanTable | None = None

    @property
    def mode(self) -> str:
        """Current degradation-ladder mode (``"normal"`` on the happy path)."""
        return self._mode

    # -- control-law hooks ------------------------------------------------

    def _plan_bandwidth(self, step: int) -> tuple[float, bool]:
        """The actuation bandwidth for ``step`` in the ``normal`` mode.

        Returns ``(bandwidth, estimator_fitted)``.  The default is
        Tango's loop: the estimator's one-step prediction (with the
        mean-of-history / optimistic fallbacks before the first fit).
        Subclasses override this with their own control law; the value
        flows through ``abplot.degree`` and the policy's plan, so any
        finite bandwidth maps to a valid rung.
        """
        return self.predict_bandwidth(step)

    def _on_valid_sample(self, step: int, measured_bw: float) -> None:
        """Hook: one *valid* bandwidth sample was recorded (no-op here)."""

    # -- observation ----------------------------------------------------

    def _sample_valid(self, measured_bw: float) -> bool:
        if not math.isfinite(measured_bw) or measured_bw < 0:
            return False
        assert self.degradation is not None
        return measured_bw <= self.degradation.outlier_factor * self.abplot.bw_high

    def observe(self, step: int, measured_bw: float) -> None:
        """Record the achieved bandwidth of one completed analysis step.

        Without a degradation policy, a non-finite or negative sample is a
        programming error and raises.  With one, bad samples (including
        implausible outliers beyond ``outlier_factor × bw_high``) are
        recorded as *invalid* — kept in the history for bookkeeping but
        never fed to the estimator — and drive the fallback ladder.
        """
        if self.degradation is None:
            if not math.isfinite(measured_bw) or measured_bw < 0:
                raise ValueError(
                    f"measured_bw must be finite and >= 0, got {measured_bw!r}"
                )
            valid = True
        else:
            valid = self._sample_valid(measured_bw)
        if self._history and step <= self._history[-1].step:
            raise ValueError(
                f"steps must be strictly increasing, got {step} after "
                f"{self._history[-1].step}"
            )
        self._history.append(
            _HistoryEntry(step=step, bandwidth=float(measured_bw), valid=valid)
        )
        if valid:
            self._valid_count += 1
            self._valid_streak += 1
            self._invalid_streak = 0
            self._on_valid_sample(step, float(measured_bw))
        else:
            self._invalid_streak += 1
            self._valid_streak = 0
            if OBS.enabled:
                OBS.registry.counter("controller.invalid_samples").inc(
                    policy=self.policy.name
                )
                OBS.tracer.event(
                    "controller.invalid_sample",
                    step=step,
                    measured_bw=None if not math.isfinite(measured_bw) else float(measured_bw),
                    invalid_streak=self._invalid_streak,
                )

    @property
    def history(self) -> np.ndarray:
        return np.asarray([h.bandwidth for h in self._history])

    def _valid_window(self) -> list[_HistoryEntry]:
        """The trailing ``history_window`` *valid* observations."""
        if self._valid_count == len(self._history):
            return self._history[-self.history_window :]
        window: list[_HistoryEntry] = []
        for h in reversed(self._history):
            if h.valid:
                window.append(h)
                if len(window) == self.history_window:
                    break
        window.reverse()
        return window

    # -- estimation -------------------------------------------------------

    def _maybe_refit(self) -> None:
        if self._valid_count < self.min_history:
            return
        due = self._fit_start_step is None or self._steps_since_fit >= self.estimation_interval
        if not due:
            return
        window = self._valid_window()
        self.estimator.fit(np.asarray([h.bandwidth for h in window]))
        self._fit_start_step = window[0].step
        self._steps_since_fit = 0

    def predict_bandwidth(self, step: int) -> tuple[float, bool]:
        """Prediction for ``step`` and whether it came from a fitted model."""
        self._maybe_refit()
        if self.estimator.is_fitted and self._fit_start_step is not None:
            rel = step - self._fit_start_step
            pred = float(self.estimator.predict(rel))
            return max(pred, 0.0), True
        if self._valid_count:
            return (
                float(np.mean([h.bandwidth for h in self._history if h.valid])),
                False,
            )
        return self.optimistic_bw, False

    # -- decision ----------------------------------------------------------

    def estimation_diagnostics(self) -> dict[str, float]:
        """Health of the current bandwidth model.

        Returns the in-window residual of the last fit (MAE and its ratio
        to the window mean) — a production controller surfaces this so
        operators can see when the interference pattern has shifted faster
        than the refit cadence.
        """
        if not self.estimator.is_fitted or self._fit_start_step is None:
            return {"fitted": 0.0, "mae": float("nan"), "relative_mae": float("nan")}
        window = [
            h.bandwidth
            for h in self._history
            if h.valid and h.step >= self._fit_start_step
        ][: self.history_window]
        if not window:
            return {"fitted": 1.0, "mae": float("nan"), "relative_mae": float("nan")}
        actual = np.asarray(window)
        predicted = np.asarray(self.estimator.predict(np.arange(len(window))))
        mae = float(np.abs(predicted - actual).mean())
        mean = float(actual.mean())
        return {
            "fitted": 1.0,
            "mae": mae,
            "relative_mae": mae / mean if mean > 0 else float("inf"),
        }

    def _select_mode(self) -> str:
        """The degradation-ladder mode for the next decision.

        The invalid-sample streak mandates a depth; a currently degraded
        controller additionally *holds* its mode until ``recovery_samples``
        consecutive valid samples arrive (hysteresis — one good sample in
        the middle of a blackout must not bounce the mode).  The deeper of
        the two wins.
        """
        pol = self.degradation
        if pol is None:
            return MODE_NORMAL
        mandated = pol.mode_for_streak(self._invalid_streak)
        held = MODE_NORMAL
        if self._mode != MODE_NORMAL and self._valid_streak < pol.recovery_samples:
            held = self._mode
        if CONTROLLER_MODES.index(mandated) >= CONTROLLER_MODES.index(held):
            return mandated
        return held

    def _transition_mode(self, step: int, new_mode: str) -> None:
        if new_mode == self._mode:
            return
        old = self._mode
        self._mode = new_mode
        self.mode_history.append((step, old, new_mode))
        if OBS.enabled:
            OBS.registry.counter("controller.mode_transitions").inc(
                policy=self.policy.name, to=new_mode
            )
            OBS.tracer.event(
                "controller.mode_transition",
                step=step,
                from_mode=old,
                to_mode=new_mode,
                invalid_streak=self._invalid_streak,
            )

    def decide(self, step: int) -> AdaptationDecision:
        """Produce the plan (rungs + weights) for analysis step ``step``.

        With a degradation policy attached, the prediction source follows
        the fallback ladder: ``normal`` uses the controller's own law
        (:meth:`_plan_bandwidth`), ``last-good`` holds the last healthy
        prediction, ``static-midpoint`` and ``weights-only`` pin the
        abplot midpoint, and ``weights-only`` additionally forces a full
        (non-adaptive) retrieval plan.
        """
        self._transition_mode(step, self._select_mode())
        mode = self._mode
        adaptive = self.policy.app_adaptive
        if mode == MODE_NORMAL:
            predicted, fitted = self._plan_bandwidth(step)
            self._last_good_prediction = predicted
        elif mode == MODE_LAST_GOOD:
            fitted = False
            predicted = (
                self._last_good_prediction
                if self._last_good_prediction is not None
                else self.optimistic_bw
            )
        else:  # static-midpoint / weights-only
            fitted = False
            predicted = 0.5 * (self.abplot.bw_low + self.abplot.bw_high)
            if mode == MODE_WEIGHTS_ONLY:
                adaptive = False
        self._steps_since_fit += 1
        plans = self._plans
        if plans is None:
            # Built here rather than in __init__ so that a bound tighter
            # than the ladder still raises at the first decision.
            plans = self._plans = self.policy.plan_table(
                self.ladder, self.prescribed_bound, self.priority
            )
        plan = plans.plan(predicted, self.abplot, adaptive=adaptive)
        decision = AdaptationDecision(
            step=step,
            plan=plan,
            predicted_bw=predicted,
            estimator_fitted=fitted,
            mode=mode,
        )
        self.decisions.append(decision)
        if OBS.enabled:
            # The full decision chain: predicted bw → degree → rung k → weights.
            OBS.tracer.event(
                "controller.decision",
                step=step,
                policy=self.policy.name,
                mode=mode,
                predicted_bw=predicted,
                estimator_fitted=fitted,
                augmentation_degree=plan.augmentation_degree,
                prescribed_rung=plan.prescribed_rung,
                estimated_rung=plan.estimated_rung,
                target_rung=plan.target_rung,
                weights=[s.weight for s in plan.steps if s.weight is not None],
            )
            # Bound instruments cached per registry generation: decide()
            # runs every analysis step, so the per-call registry lookups
            # are hoisted (same pattern as the device/blkio hot paths).
            reg = OBS.registry
            cache = self._obs_cache
            if cache is None or cache[0] is not reg or cache[1] != reg.epoch:
                cache = (
                    reg,
                    reg.epoch,
                    reg.counter("controller.decisions"),
                    reg.gauge("controller.predicted_bw"),
                    reg.gauge("controller.target_rung"),
                )
                self._obs_cache = cache
            cache[2].inc(policy=self.policy.name)
            cache[3].set(predicted)
            cache[4].set(plan.target_rung)
        return decision
