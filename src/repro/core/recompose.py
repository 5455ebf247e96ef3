"""Error-bounded cross-layer recomposition planning (Algorithm 1).

This module contains the *pure* (simulator-independent) part of
Algorithm 1: given an accuracy ladder, a prescribed error bound ε_i, a
bandwidth prediction, an augmentation-bandwidth plot, and a weight
function, produce a :class:`RecompositionPlan` — the ordered list of
bucket-retrieval steps with the blkio weight each step should apply
(lines 6–13 of Algorithm 1) — and perform the prolongate-and-add
recombination (lines 14–23, realised by
:meth:`repro.core.error_control.AccuracyLadder.reconstruct`).

The storage-side execution of a plan (issuing the reads into the simulated
tiers, applying the weights through the cgroup controller) lives in
:mod:`repro.workloads.analytics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.abplot import AugmentationBandwidthPlot
from repro.core.error_control import AccuracyLadder, AugmentationBucket
from repro.core.weights import WeightFunction

__all__ = [
    "RetrievalStep",
    "RecompositionPlan",
    "PlanTable",
]


@dataclass(frozen=True)
class RetrievalStep:
    """One line-10/11 iteration: apply ``weight`` then fetch ``bucket``
    from the tier storing level ``tier_level``."""

    bucket: AugmentationBucket
    tier_level: int
    weight: int | None

    @property
    def nbytes(self) -> int:
        return self.bucket.nbytes


@dataclass(frozen=True)
class RecompositionPlan:
    """The outcome of Algorithm 1's decision phase for one timestep.

    ``prescribed_rung`` is the ladder rung mandated by the user's error
    bound (``i``), ``estimated_rung`` the rung the interference estimate
    allows (``j``), and ``target_rung`` their max (``k``).  ``steps`` holds
    the retrieval sequence for rungs 1..k.
    """

    prescribed_rung: int
    estimated_rung: int
    target_rung: int
    predicted_bw: float
    augmentation_degree: float
    steps: tuple[RetrievalStep, ...] = field(default_factory=tuple)

    @property
    def total_augmentation_bytes(self) -> int:
        return sum(s.nbytes for s in self.steps)

    @property
    def retrieves_augmentation(self) -> bool:
        return any(s.bucket.cardinality > 0 for s in self.steps)


def _rung_for_degree(ladder: AccuracyLadder, degree: float) -> int:
    """Highest rung reachable when retrieving ``degree`` × the full stream.

    The abplot degree is a fraction of the total augmentation volume; the
    reachable accuracy level ε_j is the deepest rung whose cumulative cut
    fits within that fraction.
    """
    if ladder.stream_length == 0:
        return ladder.num_buckets
    allowed = degree * ladder.stream_length
    rung = 0
    for bkt in ladder.buckets:
        if bkt.stop <= allowed + 1e-9:
            rung = bkt.index
        else:
            break
    return rung


class PlanTable:
    """Algorithm 1's decision phase with everything but the bandwidth fixed.

    A controller's ladder, prescribed bound, weight function and priority
    never change, and neither do the prescribed rung ``i`` nor, for a
    target rung ``k``, the retrieval steps 1..k with their weights.  The
    table finds ``i`` when it is built (a bound tighter than the ladder
    raises ``ValueError`` here) and each ``k``'s steps the first time
    ``k`` is planned; :meth:`plan` then only maps the bandwidth to the
    abplot degree and the estimated rung ``j`` and takes
    ``k = max(i, j)``.  A controller builds its table through its policy's
    :meth:`~repro.core.controller.Policy.plan_table`.

    Parameters
    ----------
    ladder:
        The staged accuracy ladder for the dataset being analysed.
    prescribed_bound:
        The user's error bound ε_i in the ladder's metric.  Buckets up to
        rung ``i`` are retrieved regardless of interference.
    weight_fn, priority:
        The storage-coordination inputs.  ``weight_fn=None`` leaves blkio
        weights untouched (application-layer-only adaptivity).
    weight_cardinality:
        Which |Aug| the weight function sees per retrieval.  ``"bucket"``
        uses each bucket's own cardinality (the literal reading of
        ``w(|Aug_{ε_m}|, ε_m, p)``); ``"total"`` uses the step's total
        planned cardinality for every retrieval, so within a step only
        the accuracy term varies — the reading behind the paper's
        falling Fig. 15 trace ("proportional to the cardinality of the
        *total* augmentations").
    """

    def __init__(
        self,
        ladder: AccuracyLadder,
        prescribed_bound: float,
        weight_fn: WeightFunction | None = None,
        priority: float = 1.0,
        *,
        weight_cardinality: str = "bucket",
    ) -> None:
        if weight_cardinality not in ("bucket", "total"):
            raise ValueError(
                f"weight_cardinality must be 'bucket' or 'total', got {weight_cardinality!r}"
            )
        self.ladder = ladder
        self.prescribed_rung = ladder.find_bucket_for_bound(prescribed_bound)
        self.weight_fn = weight_fn
        self.priority = priority
        self.weight_cardinality = weight_cardinality
        self._steps: list[tuple[RetrievalStep, ...] | None] = [None] * (
            ladder.num_buckets + 1
        )

    def steps(self, target: int) -> tuple[RetrievalStep, ...]:
        """The retrieval sequence for rungs 1..``target`` (lines 10–11)."""
        steps = self._steps[target]
        if steps is None:
            buckets = self.ladder.buckets[:target]
            total_cardinality = sum(b.cardinality for b in buckets)
            built = []
            for bkt in buckets:
                card = (
                    bkt.cardinality
                    if self.weight_cardinality == "bucket"
                    else total_cardinality
                )
                weight = (
                    self.weight_fn(card, bkt.bound, self.priority)
                    if self.weight_fn is not None
                    else None
                )
                built.append(
                    RetrievalStep(bucket=bkt, tier_level=bkt.finest_level, weight=weight)
                )
            steps = self._steps[target] = tuple(built)
        return steps

    def plan(
        self,
        predicted_bw: float,
        abplot: AugmentationBandwidthPlot,
        *,
        adaptive: bool = True,
    ) -> RecompositionPlan:
        """The plan for one step's bandwidth prediction (lines 6–9).

        ``predicted_bw`` is ``B̃W_s`` from the interference estimator,
        bytes/second.  With ``adaptive=False`` the estimate is ignored and
        a full augmentation is planned (the no-adaptivity / storage-only
        baselines, and the weights-only degradation mode).
        """
        if not math.isfinite(predicted_bw):
            raise ValueError(f"predicted_bw must be finite, got {predicted_bw!r}")
        if adaptive:
            degree = float(abplot.degree(max(predicted_bw, 0.0)))
            estimated = _rung_for_degree(self.ladder, degree)
        else:
            degree = 1.0
            estimated = self.ladder.num_buckets
        target = max(self.prescribed_rung, estimated)
        return RecompositionPlan(
            prescribed_rung=self.prescribed_rung,
            estimated_rung=estimated,
            target_rung=target,
            predicted_bw=float(predicted_bw),
            augmentation_degree=degree,
            steps=self.steps(target),
        )
