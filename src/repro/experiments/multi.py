"""Multi-analytics scenarios: several adaptive applications on one node.

The paper's target scenario is non-exclusive node usage — in general more
than one data analytics shares the node with the checkpointing noise.
This extension runs N analytics containers, each with its own dataset,
controller, policy, priority, and error bound, over the shared tiered
storage, and reports per-application results.  The priority term of the
weight function is what differentiates their service (Fig. 14a at the
multi-tenant level).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.session import ScenarioSession
from repro.experiments.config import ScenarioConfig
from repro.workloads.analytics import StepRecord

__all__ = ["TenantSpec", "TenantResult", "MultiScenarioResult", "run_multi_scenario"]


@dataclass(frozen=True)
class TenantSpec:
    """One analytics application in a multi-tenant scenario."""

    name: str
    app: str = "xgc"
    policy: str = "cross-layer"
    priority: float = 10.0
    prescribed_bound: float = 0.01
    seed: int = 0


@dataclass
class TenantResult:
    """Per-tenant outcome."""

    spec: TenantSpec
    records: list[StepRecord]

    @property
    def mean_io_time(self) -> float:
        return float(np.mean([r.io_time for r in self.records]))

    @property
    def std_io_time(self) -> float:
        return float(np.std([r.io_time for r in self.records]))

    @property
    def mean_weight(self) -> float:
        weights = [w for r in self.records for w in r.weights]
        return float(np.mean(weights)) if weights else 0.0

    @property
    def mean_target_rung(self) -> float:
        return float(np.mean([r.target_rung for r in self.records]))


@dataclass
class MultiScenarioResult:
    tenants: dict[str, TenantResult] = field(default_factory=dict)
    final_time: float = 0.0

    def __getitem__(self, name: str) -> TenantResult:
        return self.tenants[name]

    def io_time_ratio(self, numerator: str, denominator: str) -> float:
        """Mean-I/O-time ratio between two tenants (QoS differentiation)."""
        denom = self.tenants[denominator].mean_io_time
        if denom <= 0:
            return float("inf")
        return self.tenants[numerator].mean_io_time / denom


def run_multi_scenario(
    tenants: list[TenantSpec],
    base_config: ScenarioConfig | None = None,
) -> MultiScenarioResult:
    """Run several adaptive analytics against one interfered node.

    Shared infrastructure (the two-tier testbed, noise, the controller
    and weight-function settings) comes from ``base_config``; per-tenant
    policy/priority/bound come from each :class:`TenantSpec`.  Every
    tenant stages its own dataset copy, so tenants are symmetric except
    for their spec.
    """
    if not tenants:
        raise ValueError("at least one tenant is required")
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    cfg = base_config if base_config is not None else ScenarioConfig()

    session = ScenarioSession(cfg)
    session.launch_noise()
    for spec in tenants:
        _, _, ladder = session.build_ladder(app=spec.app, seed=spec.seed)
        dataset = session.stage(f"{spec.name}-data", ladder)
        controller = session.build_controller(
            ladder,
            policy=spec.policy,
            priority=spec.priority,
            prescribed_bound=spec.prescribed_bound,
        )
        session.add_analytics(spec.name, dataset, controller)

    # Multi-tenant semantics: the node stays up for the whole window
    # (tenants finish at different times), so run straight to the horizon.
    final_time = session.run(chunk=None)

    result = MultiScenarioResult(final_time=final_time)
    for spec in tenants:
        result.tenants[spec.name] = TenantResult(
            spec=spec, records=list(session.drivers[spec.name].records)
        )
    return result
