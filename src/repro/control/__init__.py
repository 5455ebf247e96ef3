"""The controller family (see ``docs/architecture.md`` §13).

One protocol — ``observe(step, measured_bw)`` / ``decide(step)`` →
:class:`~repro.control.base.AdaptationDecision` — shared by every entry
in the :data:`repro.engine.registry.CONTROLLERS` registry:

* ``"tango"`` — the paper's estimator-prediction loop (bit-identical to
  the pre-registry ``TangoController``);
* ``"pid"`` — model-free PID feedback with anti-windup and derivative
  filtering;
* ``"mpc"`` — finite-horizon predictive control reusing the estimator
  as its plant model.

Controllers are constructed with a keyword-only
:class:`~repro.control.config.ControllerConfig`; scenario configs select
one with ``ScenarioConfig(controller="pid")``, and the session builds it
with the config's bound, priority and estimation interval and every
other field at its default (code that constructs a controller directly
tunes the rest).  Downstream code plugs in its own with
``@register_controller`` on a :class:`BaseController` subclass.
"""

from repro.control.base import AdaptationDecision, BaseController
from repro.control.config import ControllerConfig
from repro.control.mpc import MpcController
from repro.control.pid import PidController
from repro.control.tango import TangoController

__all__ = [
    "AdaptationDecision",
    "BaseController",
    "ControllerConfig",
    "MpcController",
    "PidController",
    "TangoController",
]
