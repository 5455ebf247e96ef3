"""The blessed public surface of the reproduction, in one import.

Everything a script needs — the paper's core pipeline, the scenario
engine, the experiment entry points, and the resilience layer — is
re-exported here under its canonical name::

    from repro.api import ScenarioConfig, run_scenario

    result = run_scenario(ScenarioConfig(policy="cross-layer", faults="chaos"))
    print(result.total_skipped_objects, result.mode_transitions)

The deep import paths (``repro.core.error_control.build_ladder``, …)
keep working, but only the names below are covered by the deprecation
policy: renames leave a warning shim behind for one release (see
``docs/api-guide.md`` for the migration table).  Import of this module
is intentionally eager — it *is* the compatibility surface, so breaking
it breaks loudly at import time rather than at first use.
"""

from __future__ import annotations

# -- adaptation controllers ------------------------------------------------
from repro.control import (
    CONTROLLERS,
    AdaptationDecision,
    BaseController,
    ControllerConfig,
    MpcController,
    PidController,
    TangoController,
)

# -- core pipeline: refactor -> ladder -> serialize ------------------------
from repro.core.abplot import AugmentationBandwidthPlot
from repro.core.controller import POLICIES, make_policy
from repro.core.error_control import AccuracyLadder, ErrorMetric, build_ladder
from repro.core.estimator import ESTIMATORS, DFTEstimator
from repro.core.metrics import nrmse, psnr
from repro.core.refactor import Decomposition, decompose, levels_for_decimation
from repro.core.serialize import pack_ladder, unpack_ladder, unpack_partial
from repro.core.weights import WeightFunction, calibrate_weight_function

# -- QoS data plane --------------------------------------------------------
from repro.dataplane import DataPlane, QosPolicy, SloTarget, TokenBucket

# -- scenario engine -------------------------------------------------------
from repro.apps import APPS
from repro.engine.session import ScenarioSession, make_weight_function
from repro.engine.sweep import ScenarioSummary, SweepExecutor
from repro.faults.campaign import FAULT_CAMPAIGNS
from repro.storage.staging import PLACEMENTS

# -- experiments -----------------------------------------------------------
from repro.experiments.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.experiments.config import ScenarioConfig
from repro.experiments.qosplane import QosPlaneResult, run_qosplane
from repro.experiments.resilience import ResilienceResult, run_resilience
from repro.experiments.runner import ScenarioResult, run_scenario
from repro.experiments.stability import StabilityResult, run_stability

# -- resilience layer ------------------------------------------------------
from repro.faults import (
    DEFAULT_RETRY_POLICY,
    DegradationPolicy,
    DeviceStall,
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    FeedCorruption,
    RetryPolicy,
    SpeedRamp,
    SpeedStep,
)

# -- cluster scale ---------------------------------------------------------
from repro.cluster import (
    ARBITRATION,
    ClusterConfig,
    ClusterResult,
    run_cluster,
)
from repro.experiments.cluster import ClusterCompareResult, run_cluster_compare

# -- observability ---------------------------------------------------------
from repro.obs import OBS

__all__ = [
    # adaptation controllers
    "AdaptationDecision",
    "BaseController",
    "CONTROLLERS",
    "ControllerConfig",
    "MpcController",
    "PidController",
    "TangoController",
    # core pipeline
    "AccuracyLadder",
    "AugmentationBandwidthPlot",
    "DFTEstimator",
    "Decomposition",
    "ErrorMetric",
    "WeightFunction",
    "build_ladder",
    "calibrate_weight_function",
    "decompose",
    "levels_for_decimation",
    "make_policy",
    "nrmse",
    "pack_ladder",
    "psnr",
    "unpack_ladder",
    "unpack_partial",
    # QoS data plane
    "DataPlane",
    "QosPolicy",
    "SloTarget",
    "TokenBucket",
    # scenario engine
    "APPS",
    "ESTIMATORS",
    "FAULT_CAMPAIGNS",
    "PLACEMENTS",
    "POLICIES",
    "ScenarioSession",
    "ScenarioSummary",
    "SweepExecutor",
    "make_weight_function",
    # cluster scale
    "ARBITRATION",
    "ClusterConfig",
    "ClusterResult",
    "ClusterCompareResult",
    "run_cluster",
    "run_cluster_compare",
    # experiments
    "CampaignConfig",
    "CampaignResult",
    "QosPlaneResult",
    "ResilienceResult",
    "ScenarioConfig",
    "ScenarioResult",
    "StabilityResult",
    "run_campaign",
    "run_qosplane",
    "run_resilience",
    "run_scenario",
    "run_stability",
    # resilience layer
    "DEFAULT_RETRY_POLICY",
    "DegradationPolicy",
    "DeviceStall",
    "ErrorBurst",
    "FaultCampaign",
    "FaultInjector",
    "FeedCorruption",
    "RetryPolicy",
    "SpeedRamp",
    "SpeedStep",
    # observability
    "OBS",
]
