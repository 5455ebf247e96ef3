"""Resilience layer: fault campaigns, retry policies, graceful degradation.

Tango's premise is that shared ephemeral storage misbehaves under
contention; this package models the misbehaviour itself so the
cross-layer control loop can be exercised off the happy path:

* :mod:`repro.faults.campaign` — deterministic, seeded fault campaigns
  (media-error bursts, speed degradation, stalls, estimator-feed
  corruption) scheduled on the sim clock, and the named built-ins in
  :data:`repro.faults.campaign.FAULT_CAMPAIGNS`;
* :mod:`repro.faults.retry` — declarative :class:`RetryPolicy`
  (attempts, sim-time backoff with seeded jitter, per-object timeout)
  driving the analytics reader's skip-and-record fallback;
* :mod:`repro.faults.degradation` — the controller's fallback ladder
  (normal → last-good → static-midpoint → weights-only) and the
  :class:`DegradationPolicy` thresholds that walk it.
"""

from repro.faults.campaign import (
    DeviceStall,
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    FeedCorruption,
    ScheduledFault,
    SpeedRamp,
    SpeedStep,
)
from repro.faults.degradation import (
    CONTROLLER_MODES,
    MODE_LAST_GOOD,
    MODE_NORMAL,
    MODE_STATIC,
    MODE_WEIGHTS_ONLY,
    DegradationPolicy,
)
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "ErrorBurst",
    "SpeedStep",
    "SpeedRamp",
    "DeviceStall",
    "FeedCorruption",
    "FaultCampaign",
    "ScheduledFault",
    "FaultInjector",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "DegradationPolicy",
    "CONTROLLER_MODES",
    "MODE_NORMAL",
    "MODE_LAST_GOOD",
    "MODE_STATIC",
    "MODE_WEIGHTS_ONLY",
]
