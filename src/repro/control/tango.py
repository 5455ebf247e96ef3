"""The paper's controller, ``CONTROLLERS["tango"]``.

The control law is exactly the base loop's default — the DFT (or
ablation) estimator's one-step prediction with periodic refits — so
this class adds nothing but the name.  The recorded engine and fig07
fingerprints pin its runs.
"""

from __future__ import annotations

from repro.control.base import BaseController

__all__ = ["TangoController"]


class TangoController(BaseController):
    """Tango's adaptation loop (Section III): estimator prediction → plan.

    Construct with ``config=ControllerConfig(...)``.
    """

    name = "tango"
