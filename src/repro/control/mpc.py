"""Finite-horizon model-predictive controller over the estimator.

Reuses :meth:`BandwidthEstimator.predict` as its plant model: at each
decision it asks the fitted estimator for the next ``mpc_horizon``
predictions (the array branch of the scalar-in/array-in contract) and
actuates on the *minimum* — the largest augmentation degree sustainable
over the whole lookahead.  That closed form is exactly the minimizer of
the worst-case over-retrieval across the horizon, so no optimization
loop is needed and determinism is free.

``mpc_horizon=1`` reduces to Tango's greedy one-step prediction
bit-for-bit (pinned in ``tests/test_control.py``): both evaluate the
same vectorized DFT series at the same relative step.

Before the first fit the controller mirrors the base loop's fallbacks
(mean-of-valid history, then the optimistic bandwidth).
"""

from __future__ import annotations

import numpy as np

from repro.control.base import BaseController

__all__ = ["MpcController"]


class MpcController(BaseController):
    """Horizon-minimax predictive control via the fitted estimator."""

    name = "mpc"

    def _plan_bandwidth(self, step: int) -> tuple[float, bool]:
        self._maybe_refit()
        if self.estimator.is_fitted and self._fit_start_step is not None:
            rel = step - self._fit_start_step
            horizon = self.config.mpc_horizon
            preds = np.asarray(
                self.estimator.predict(np.arange(rel, rel + horizon)),
                dtype=np.float64,
            )
            return float(np.min(np.maximum(preds, 0.0))), True
        if self._valid_count:
            return (
                float(np.mean([h.bandwidth for h in self._history if h.valid])),
                False,
            )
        return self.optimistic_bw, False
