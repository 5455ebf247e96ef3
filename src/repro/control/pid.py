"""PID feedback controller over the measured-bandwidth error.

Following the shared-storage congestion-control line of work (PAPERS.md:
"Mitigating Shared Storage Congestion Using Control Theory"), this
controller closes the loop on the *measured* bandwidth directly instead
of modelling it: each valid sample updates a normalized error against a
bandwidth setpoint, and the actuation is the setpoint's augmentation
degree corrected by the PID terms.

Design points (all pinned by property tests in ``tests/test_control.py``):

* **Anti-windup** — the integral accumulator is clamped to
  ``±pid_integral_limit``, so a long saturation episode (device stall,
  blackout) cannot bank unbounded correction.
* **Derivative filtering** — the derivative term is a first-order
  low-pass of the error delta (``pid_derivative_filter`` is the mixing
  coefficient), taming the sample-to-sample noise a raw derivative
  would amplify.
* **Clamped actuation** — the corrected degree is clipped to [0, 1]
  before mapping back to a bandwidth in ``[bw_low, bw_high]``, so the
  resulting rung always lies in the ladder's valid range.

The estimator is never fitted: the PID law is model-free (that is the
point of the comparison), so refit cost is zero.
"""

from __future__ import annotations

from repro.control.base import BaseController

__all__ = ["PidController"]


class PidController(BaseController):
    """Model-free PID regulation of the augmentation degree."""

    name = "pid"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._integral = 0.0
        self._derivative = 0.0
        self._error: float | None = None

    def _setpoint(self) -> float:
        sp = self.config.pid_setpoint_bw
        if sp is not None:
            return float(sp)
        return 0.5 * (self.abplot.bw_low + self.abplot.bw_high)

    def _on_valid_sample(self, step: int, measured_bw: float) -> None:
        cfg = self.config
        span = self.abplot.bw_high - self.abplot.bw_low
        error = (measured_bw - self._setpoint()) / span
        if self._error is not None:
            alpha = cfg.pid_derivative_filter
            self._derivative = (1.0 - alpha) * self._derivative + alpha * (
                error - self._error
            )
        limit = cfg.pid_integral_limit
        self._integral = min(max(self._integral + error, -limit), limit)
        self._error = error

    def _plan_bandwidth(self, step: int) -> tuple[float, bool]:
        if self._error is None:
            # No feedback yet: same optimistic opening as the base loop.
            return self.optimistic_bw, False
        cfg = self.config
        correction = (
            cfg.pid_kp * self._error
            + cfg.pid_ki * self._integral
            + cfg.pid_kd * self._derivative
        )
        degree = self.abplot.degree(self._setpoint()) + correction
        degree = min(max(degree, 0.0), 1.0)
        bw = self.abplot.bw_low + degree * (self.abplot.bw_high - self.abplot.bw_low)
        return float(bw), False
