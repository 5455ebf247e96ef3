"""Experiment defaults (Section IV-A) and the scenario configuration.

Paper defaults reproduced here:

* decimation ratio 16 for the reduced representation;
* default blkio weight 100 per container;
* estimation every 30 timesteps, analytics period 60 s;
* DFT threshold 50 % of the maximum amplitude;
* ``BW_low`` = 30 MB/s, ``BW_high`` = 120 MB/s;
* priorities 1 (low), 5 (medium), 10 (high);
* six Table IV interfering containers on the HDD.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import ClassVar

from repro.control import CONTROLLERS
from repro.core.controller import POLICIES
from repro.core.error_control import ErrorMetric
from repro.core.estimator import ESTIMATORS
from repro.faults.campaign import FAULT_CAMPAIGNS
from repro.faults.retry import RetryPolicy
from repro.util.units import mb_per_s
from repro.util.validation import lookup
from repro.workloads.noise import TABLE_IV_NOISE, NoiseSpec

__all__ = ["ScenarioConfig", "DEFAULTS", "PRIORITY_LOW", "PRIORITY_MEDIUM", "PRIORITY_HIGH"]

PRIORITY_LOW = 1.0
PRIORITY_MEDIUM = 5.0
PRIORITY_HIGH = 10.0

#: Paper-wide constants in one place (Section IV-A).
DEFAULTS = SimpleNamespace(
    decimation_ratio=16,
    default_blkio_weight=100,
    estimation_interval=30,
    analytics_period=60.0,
    dft_thresh=0.5,
    bw_low=mb_per_s(30),
    bw_high=mb_per_s(120),
    priorities=(PRIORITY_LOW, PRIORITY_MEDIUM, PRIORITY_HIGH),
    grid_shape=(256, 256),
    #: Inflates staged file sizes to the paper's per-step dataset scale
    #: (~0.5 GB for a 256² float64 grid).
    size_scale=1000.0,
)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to run one single-node scenario."""

    #: The testbed's grid and staged-size scale are paper constants, not
    #: axes: every scenario generates a ``DEFAULTS.grid_shape`` field and
    #: stages it ``DEFAULTS.size_scale`` times larger.
    grid_shape: ClassVar[tuple[int, int]] = DEFAULTS.grid_shape
    size_scale: ClassVar[float] = DEFAULTS.size_scale

    app: str = "xgc"
    policy: str = "cross-layer"
    decimation_ratio: int = DEFAULTS.decimation_ratio
    metric: ErrorMetric = ErrorMetric.NRMSE
    #: Accuracy-ladder rung error bounds.
    error_bounds: tuple[float, ...] = (0.1, 0.01, 0.001, 0.0001)
    prescribed_bound: float | None = 0.01
    error_control: bool = True
    priority: float = PRIORITY_HIGH
    noise: tuple[NoiseSpec, ...] = TABLE_IV_NOISE
    noise_period_jitter: float = 0.005
    period: float = DEFAULTS.analytics_period
    max_steps: int = 60
    estimation_interval: int = DEFAULTS.estimation_interval
    #: Bandwidth estimator: "dft" (the paper's), or the ablation baselines
    #: "mean" / "last".
    estimator: str = "dft"
    bw_low: float = DEFAULTS.bw_low
    bw_high: float = DEFAULTS.bw_high
    #: Weight-function ablation (Fig 13): drop the priority and/or accuracy
    #: terms from the cross-layer weight function.
    weight_use_priority: bool = True
    weight_use_accuracy: bool = True
    #: Cardinality fed to the weight function per retrieval: each bucket's
    #: own ("bucket") or the step's total ("total", the paper's Fig. 15
    #: reading where only the accuracy term varies within a step).
    weight_cardinality: str = "bucket"
    #: Fault campaign name from ``FAULT_CAMPAIGNS`` (e.g. "chaos"), or
    #: None for the happy path.
    faults: str | None = None
    #: Retry/backoff policy for the analytics reader; None means the
    #: legacy one-retry-then-skip default.
    retry: RetryPolicy | None = None
    #: Declarative per-tenant QoS policies as (tenant, QosPolicy) pairs —
    #: a tuple (not a dict) so configs stay hashable and sweepable.
    #: Tenant names are cgroup (container) names.
    qos_policies: tuple = ()
    #: Data-plane scheduler: None dispatches in arrival order (the legacy
    #: mechanism, bit-identical); an integer turns on priority admission
    #: control with that many requests in flight per device.
    max_inflight: int | None = None
    #: Adaptation controller from ``CONTROLLERS``: "tango" (the paper's
    #: estimator loop), "pid" or "mpc".
    controller: str = "tango"
    seed: int = 0

    def with_(self, **changes) -> "ScenarioConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

    def __post_init__(self) -> None:
        lookup("policy", POLICIES, self.policy)
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        if not self.bw_low < self.bw_high:
            raise ValueError(
                f"bw_low must be < bw_high, got bw_low={self.bw_low} "
                f"bw_high={self.bw_high}"
            )
        if not self.error_bounds:
            raise ValueError("error_bounds must be non-empty")
        if self.prescribed_bound is None and self.error_control:
            raise ValueError("error_control=True requires a prescribed_bound")
        lookup("estimator", ESTIMATORS, self.estimator)
        if self.weight_cardinality not in ("bucket", "total"):
            raise ValueError(
                f"weight_cardinality must be 'bucket' or 'total', "
                f"got {self.weight_cardinality!r}"
            )
        if self.faults is not None:
            lookup("fault campaign", FAULT_CAMPAIGNS, self.faults)
        lookup("controller", CONTROLLERS, self.controller)
        # Imported lazily: the dataplane package pulls in storage modules
        # that are heavyweight relative to a config-only import.
        from repro.dataplane.policy import QosPolicy

        seen = set()
        for entry in self.qos_policies:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                raise ValueError(
                    f"qos_policies entries must be (tenant, QosPolicy) pairs, got {entry!r}"
                )
            tenant, policy = entry
            if not tenant or not isinstance(tenant, str):
                raise ValueError(
                    f"qos_policies tenant must be a non-empty string, got {tenant!r}"
                )
            if not isinstance(policy, QosPolicy):
                raise ValueError(
                    f"qos_policies[{tenant!r}] must be a QosPolicy, got {policy!r}"
                )
            if tenant in seen:
                raise ValueError(f"duplicate qos_policies tenant {tenant!r}")
            seen.add(tenant)
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
