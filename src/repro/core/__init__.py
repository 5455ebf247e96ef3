"""Tango's core contribution: error-bounded refactorization, DFT-based
interference estimation, augmentation-bandwidth mapping, the blkio weight
function, and the cross-layer controller (Algorithm 1)."""

from repro.core.metrics import rmse, nrmse, psnr, ssim, dice_coefficient
from repro.core.refactor import (
    restrict,
    prolongate,
    decompose,
    recompose_full,
    reconstruct_base_only,
    Decomposition,
    max_levels,
    levels_for_decimation,
)
from repro.core.error_control import (
    ErrorMetric,
    ErrorBudget,
    AugmentationBucket,
    AccuracyLadder,
    build_ladder,
)
from repro.core.recompose import RecompositionPlan
from repro.core.estimator import DFTEstimator, MeanEstimator, LastValueEstimator
from repro.core.abplot import AugmentationBandwidthPlot
from repro.core.weights import WeightFunction, BLKIO_WEIGHT_MIN, BLKIO_WEIGHT_MAX
from repro.core.placement import PlacementPlan, plan_placement
from repro.core.serialize import pack_ladder, unpack_ladder, unpack_partial
from repro.core.transforms import get_transform, TRANSFORMS
from repro.core.controller import (
    Policy,
    NoAdaptivityPolicy,
    StorageOnlyPolicy,
    AppOnlyPolicy,
    CrossLayerPolicy,
    make_policy,
)


__all__ = [
    "rmse",
    "nrmse",
    "psnr",
    "ssim",
    "dice_coefficient",
    "restrict",
    "prolongate",
    "decompose",
    "recompose_full",
    "reconstruct_base_only",
    "Decomposition",
    "max_levels",
    "levels_for_decimation",
    "ErrorMetric",
    "ErrorBudget",
    "AugmentationBucket",
    "AccuracyLadder",
    "build_ladder",
    "RecompositionPlan",
    "DFTEstimator",
    "MeanEstimator",
    "LastValueEstimator",
    "AugmentationBandwidthPlot",
    "WeightFunction",
    "BLKIO_WEIGHT_MIN",
    "BLKIO_WEIGHT_MAX",
    "PlacementPlan",
    "plan_placement",
    "pack_ladder",
    "unpack_ladder",
    "unpack_partial",
    "get_transform",
    "TRANSFORMS",
    "Policy",
    "NoAdaptivityPolicy",
    "StorageOnlyPolicy",
    "AppOnlyPolicy",
    "CrossLayerPolicy",
    "make_policy",
]
