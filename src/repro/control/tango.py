"""The paper's controller, as registry entry ``"tango"``.

The control law is exactly the base loop's default — the DFT (or
ablation) estimator's one-step prediction with periodic refits — so
this class adds nothing but the name.  Runs through
``CONTROLLERS.get("tango")`` are bit-identical to the pre-registry
``TangoController``, pinned by the recorded engine and fig07
fingerprints.
"""

from __future__ import annotations

from repro.control.base import BaseController
from repro.engine.registry import register_controller

__all__ = ["TangoController"]


@register_controller("tango")
class TangoController(BaseController):
    """Tango's adaptation loop (Section III): estimator prediction → plan.

    Construct with ``config=ControllerConfig(...)``.
    """

    name = "tango"
