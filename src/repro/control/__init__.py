"""The controller family (see ``docs/architecture.md`` §13).

One protocol — ``observe(step, measured_bw)`` / ``decide(step)`` →
:class:`~repro.control.base.AdaptationDecision` — shared by every entry
of :data:`CONTROLLERS`:

* ``"tango"`` — the paper's estimator-prediction loop;
* ``"pid"`` — model-free PID feedback with anti-windup and derivative
  filtering;
* ``"mpc"`` — finite-horizon predictive control reusing the estimator
  as its plant model.

Controllers are constructed with a keyword-only
:class:`~repro.control.config.ControllerConfig`; scenario configs select
one with ``ScenarioConfig(controller="pid")``, and the session builds it
with the config's bound, priority and estimation interval and every
other field at its default (code that constructs a controller directly
tunes the rest).
"""

from repro.control.base import AdaptationDecision, BaseController
from repro.control.config import ControllerConfig
from repro.control.mpc import MpcController
from repro.control.pid import PidController
from repro.control.tango import TangoController

__all__ = [
    "AdaptationDecision",
    "BaseController",
    "CONTROLLERS",
    "ControllerConfig",
    "MpcController",
    "PidController",
    "TangoController",
]

#: Controller classes by the names scenario configs use.  The session
#: builds each as ``cls(ladder, policy, abplot, config=ControllerConfig(...),
#: estimator=..., degradation=...)``.
CONTROLLERS = {cls.name: cls for cls in (TangoController, PidController, MpcController)}
