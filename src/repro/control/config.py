"""Keyword-only controller construction config (the redesigned API).

``TangoController`` grew a positional-kwarg sprawl over the releases
(``prescribed_bound, priority, estimator, *, estimation_interval,
min_history, history_window, optimistic_bw, degradation``) that made
every new controller knob a signature change.  :class:`ControllerConfig`
replaces it with one frozen, keyword-only dataclass validated at
construction — controllers take ``config=ControllerConfig(...)`` plus
the two stateful collaborators (``estimator``, ``degradation``) that
cannot live in a frozen config.

The config is shared across the whole controller family: Tango's loop
reads the estimation fields, the PID controller reads the ``pid_*``
gains, MPC reads ``mpc_horizon``.  Unused fields are simply ignored, so
one config sweeps cleanly across ``controller=`` values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.validation import check_positive

__all__ = ["ControllerConfig"]


@dataclass(frozen=True, kw_only=True)
class ControllerConfig:
    """Everything a controller needs beyond its collaborators.

    Parameters
    ----------
    prescribed_bound:
        The user's error bound in the ladder's metric (required).
    priority:
        The application priority ``p`` (1 = low, 5 = medium, 10 = high).
    estimation_interval:
        Steps between estimator refits (periodic re-estimation).
    min_history:
        Valid samples required before the first fit.
    history_window:
        Trailing valid observations kept for fitting.
    optimistic_bw:
        Prediction used before any history exists (defaults to the
        abplot's ``bw_high`` — retrieve fully until told otherwise).
    pid_kp / pid_ki / pid_kd:
        PID gains over the normalized bandwidth error.
    pid_derivative_filter:
        Low-pass coefficient for the derivative term, in (0, 1]; 1
        disables filtering.
    pid_integral_limit:
        Anti-windup clamp: the integral term stays in ``[-limit, limit]``.
    pid_setpoint_bw:
        Bandwidth setpoint the PID regulates around (defaults to the
        abplot midpoint).
    mpc_horizon:
        MPC lookahead in analysis steps; horizon 1 reduces to Tango's
        greedy one-step prediction.
    """

    prescribed_bound: float
    priority: float = 1.0
    estimation_interval: int = 30
    min_history: int = 8
    history_window: int = 256
    optimistic_bw: float | None = None
    pid_kp: float = 0.8
    pid_ki: float = 0.2
    pid_kd: float = 0.1
    pid_derivative_filter: float = 0.5
    pid_integral_limit: float = 5.0
    pid_setpoint_bw: float | None = None
    mpc_horizon: int = 4

    def with_(self, **changes) -> "ControllerConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

    def __post_init__(self) -> None:
        if self.estimation_interval < 1:
            raise ValueError(
                f"estimation_interval must be >= 1, got {self.estimation_interval}"
            )
        if self.min_history < 2:
            raise ValueError(f"min_history must be >= 2, got {self.min_history}")
        if self.history_window < self.min_history:
            raise ValueError(
                f"history_window must be >= min_history "
                f"({self.min_history}), got {self.history_window}"
            )
        if not 0.0 < self.pid_derivative_filter <= 1.0:
            raise ValueError(
                f"pid_derivative_filter must be in (0, 1], "
                f"got {self.pid_derivative_filter!r}"
            )
        check_positive("pid_integral_limit", self.pid_integral_limit)
        if self.mpc_horizon < 1:
            raise ValueError(f"mpc_horizon must be >= 1, got {self.mpc_horizon}")
