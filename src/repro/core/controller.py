"""The adaptivity policies (Section III, Fig. 3) and policy factory.

Four policies cover the paper's comparison matrix (Table II / Fig. 8):

==================  ===================  =====================
Policy              application layer    storage layer
==================  ===================  =====================
``no-adaptivity``   full augmentation    default weight (100)
``storage-only``    full augmentation    weight ∝ cardinality
``app-only``        dynamic (abplot)     default weight (100)
``cross-layer``     dynamic (abplot)     full weight function
==================  ===================  =====================

``POLICIES`` maps each name to its class in that order.  The controller
that closes the loop lives in :mod:`repro.control` (``CONTROLLERS``:
"tango", "pid", "mpc").
"""

from __future__ import annotations

from repro.core.error_control import AccuracyLadder
from repro.core.recompose import PlanTable
from repro.core.weights import WeightFunction, calibrate_weight_function
from repro.util.validation import lookup

__all__ = [
    "Policy",
    "NoAdaptivityPolicy",
    "StorageOnlyPolicy",
    "AppOnlyPolicy",
    "CrossLayerPolicy",
    "make_policy",
    "POLICIES",
    "POLICY_NAMES",
]


class Policy:
    """Base class: which layers adapt, and with what weight function.

    ``weight_cardinality`` selects the |Aug| the weight function sees per
    retrieval ("bucket" or "total"; see
    :class:`repro.core.recompose.PlanTable`).
    """

    name: str = "abstract"
    app_adaptive: bool = False
    storage_adaptive: bool = False

    def __init__(
        self,
        weight_fn: WeightFunction | None = None,
        *,
        weight_cardinality: str = "bucket",
    ) -> None:
        if self.storage_adaptive and weight_fn is None:
            raise ValueError(f"policy {self.name!r} requires a weight function")
        self.weight_fn = weight_fn if self.storage_adaptive else None
        self.weight_cardinality = weight_cardinality

    @classmethod
    def build_weight_function(
        cls,
        ladder: AccuracyLadder,
        *,
        use_priority: bool = True,
        use_accuracy: bool = True,
    ) -> WeightFunction | None:
        """The weight function this policy wants for ``ladder``.

        ``None`` means the container keeps the default blkio weight (the
        non-storage-adaptive policies).  Subclasses override this to pin
        their own calibration; the ``use_*`` flags are the Fig. 13
        ablation switches.
        """
        if not cls.storage_adaptive:
            return None
        return calibrate_weight_function(
            ladder, use_priority=use_priority, use_accuracy=use_accuracy
        )

    def plan_table(
        self, ladder: AccuracyLadder, prescribed_bound: float, priority: float
    ) -> PlanTable:
        """This policy's plans for one ladder, bound and priority.

        A controller builds one at its first decision and plans every
        step through it with ``adaptive=self.app_adaptive`` (``False`` in
        the weights-only degradation mode).  This is the one planning
        path: a policy that plans differently overrides this method.
        """
        return PlanTable(
            ladder,
            prescribed_bound,
            self.weight_fn,
            priority,
            weight_cardinality=self.weight_cardinality,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class NoAdaptivityPolicy(Policy):
    """Baseline: full augmentation, static default weight."""

    name = "no-adaptivity"
    app_adaptive = False
    storage_adaptive = False


class StorageOnlyPolicy(Policy):
    """Single-layer storage adaptivity: full augmentation, weight from size.

    The weight function supplied here should be a cardinality-only variant
    (``use_priority=False, use_accuracy=False``), matching the paper's
    "blkio weight is set proportionally according to the augmentation
    size" description of the storage-only comparison point.
    """

    name = "storage-only"
    app_adaptive = False
    storage_adaptive = True

    @classmethod
    def build_weight_function(
        cls,
        ladder: AccuracyLadder,
        *,
        use_priority: bool = True,
        use_accuracy: bool = True,
    ) -> WeightFunction:
        # Always cardinality-only, whatever the ablation flags: the paper
        # defines this comparison point as weight ∝ augmentation size.
        return calibrate_weight_function(ladder, use_priority=False, use_accuracy=False)


class AppOnlyPolicy(Policy):
    """Single-layer application adaptivity: dynamic augmentation, weight 100."""

    name = "app-only"
    app_adaptive = True
    storage_adaptive = False


class CrossLayerPolicy(Policy):
    """Tango: dynamic augmentation + full weight-function coordination."""

    name = "cross-layer"
    app_adaptive = True
    storage_adaptive = True


#: The four policies in the paper's order (Table II, Fig. 8's columns).
POLICIES = {
    cls.name: cls
    for cls in (NoAdaptivityPolicy, StorageOnlyPolicy, AppOnlyPolicy, CrossLayerPolicy)
}
POLICY_NAMES = tuple(POLICIES)


def make_policy(
    name: str,
    weight_fn: WeightFunction | None = None,
    *,
    weight_cardinality: str = "bucket",
) -> Policy:
    """Instantiate a policy from :data:`POLICIES` by name."""
    cls = lookup("policy", POLICIES, name)
    return cls(weight_fn, weight_cardinality=weight_cardinality)
