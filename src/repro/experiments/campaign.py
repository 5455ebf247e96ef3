"""A full post-processing campaign: everything composed.

The paper's target scenario end to end, at campaign length: per-timestep
evolving analysis data (staged as a time series), a churning population
of co-located checkpointing jobs, optionally a capacity-tier slowdown
mid-campaign, and the cross-layer controller adapting throughout.  This
is the closest thing in the repository to "a week on the cluster".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps import make_app
from repro.apps.synthetic import field_time_series
from repro.core.error_control import ErrorMetric, build_ladder
from repro.core.refactor import decompose, levels_for_decimation
from repro.engine.session import ScenarioSession, make_weight_function
from repro.experiments.config import (
    DEFAULTS,
    ScenarioConfig,
    _validate_controller_fields,
    _validate_dataplane_fields,
)
from repro.experiments.report import format_table, sparkline
from repro.workloads.analytics import StepRecord
from repro.workloads.churn import ChurnSpec

__all__ = ["CampaignConfig", "CampaignResult", "run_campaign"]


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign-scale scenario parameters."""

    app: str = "xgc"
    policy: str = "cross-layer"
    steps: int = 120
    period: float = 60.0
    timeseries_window: int = 8
    decimation_ratio: int = 16
    #: Accuracy-ladder rung error bounds.
    error_bounds: tuple[float, ...] = (0.1, 0.01, 0.001)
    prescribed_bound: float = 0.01
    priority: float = 10.0
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    #: When set, the capacity tier drops to this speed factor at the
    #: campaign's midpoint (an aging/failing disk).
    degrade_to: float | None = None
    #: Fault campaign name from the FAULT_CAMPAIGNS registry, or None.
    faults: str | None = None
    estimation_interval: int = DEFAULTS.estimation_interval
    #: QoS data-plane per-tenant policies / admission limit (same
    #: semantics as the ScenarioConfig fields — campaigns are a config
    #: axis for the data plane too).
    qos_policies: tuple = ()
    max_inflight: int | None = None
    #: Adaptation controller / tuning overrides (same semantics as the
    #: ScenarioConfig fields — the controller is a campaign axis too).
    controller: str = "tango"
    controller_params: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if self.timeseries_window < 1:
            raise ValueError(
                f"timeseries_window must be >= 1, got {self.timeseries_window}"
            )
        if self.degrade_to is not None and not 0.0 < self.degrade_to <= 1.0:
            raise ValueError(f"degrade_to must be in (0, 1], got {self.degrade_to}")
        if self.faults is not None:
            from repro.engine.registry import FAULT_CAMPAIGNS

            if self.faults not in FAULT_CAMPAIGNS:
                raise ValueError(
                    f"unknown fault campaign {self.faults!r}; "
                    f"expected one of {FAULT_CAMPAIGNS.names()}"
                )
        _validate_controller_fields(self)
        _validate_dataplane_fields(self)


@dataclass
class CampaignResult:
    config: CampaignConfig
    records: list[StepRecord]
    estimation_diagnostics: dict[str, float]
    final_time: float

    def _require_records(self, what: str) -> None:
        if not self.records:
            raise ValueError(
                f"campaign produced no step records; {what} is undefined "
                "(the analytics never completed a step — check steps and "
                "the run horizon)"
            )

    @property
    def io_times(self) -> np.ndarray:
        return np.asarray([r.io_time for r in self.records])

    @property
    def mean_io_time(self) -> float:
        self._require_records("mean_io_time")
        return float(self.io_times.mean())

    def half_means(self) -> tuple[float, float]:
        """Mean I/O time of the first and second campaign halves."""
        self._require_records("half_means")
        half = len(self.records) // 2
        return (
            float(self.io_times[:half].mean()),
            float(self.io_times[half:].mean()),
        )

    @property
    def mean_target_rung(self) -> float:
        return float(np.mean([r.target_rung for r in self.records]))

    def rung_half_means(self) -> tuple[float, float]:
        rungs = np.asarray([r.target_rung for r in self.records])
        half = len(rungs) // 2
        return float(rungs[:half].mean()), float(rungs[half:].mean())

    def format_rows(self) -> str:
        first, second = self.half_means()
        r1, r2 = self.rung_half_means()
        table = format_table(
            ["Metric", "First half", "Second half"],
            [
                ("mean I/O time (s)", f"{first:.2f}", f"{second:.2f}"),
                ("mean rung", f"{r1:.2f}", f"{r2:.2f}"),
            ],
            title=(
                f"Campaign: {self.config.app}/{self.config.policy}, "
                f"{len(self.records)} steps, churn "
                f"{'+ degradation' if self.config.degrade_to else ''}"
            ),
        )
        return (
            table
            + f"\n  io sparkline  : {sparkline(self.io_times)}"
            + f"\n  rung sparkline: {sparkline([r.target_rung for r in self.records])}"
            + f"\n  estimator rel. MAE: {self.estimation_diagnostics.get('relative_mae', float('nan')):.2f}"
        )


def _scenario_config(cfg: CampaignConfig) -> ScenarioConfig:
    """The campaign's knobs expressed as the session's scenario config."""
    return ScenarioConfig(
        app=cfg.app,
        policy=cfg.policy,
        period=cfg.period,
        max_steps=cfg.steps,
        decimation_ratio=cfg.decimation_ratio,
        error_bounds=cfg.error_bounds,
        prescribed_bound=cfg.prescribed_bound,
        priority=cfg.priority,
        estimation_interval=cfg.estimation_interval,
        faults=cfg.faults,
        qos_policies=cfg.qos_policies,
        max_inflight=cfg.max_inflight,
        controller=cfg.controller,
        controller_params=cfg.controller_params,
        seed=cfg.seed,
    )


def run_campaign(config: CampaignConfig | None = None) -> CampaignResult:
    """Run a campaign (deterministic per seed)."""
    cfg = config if config is not None else CampaignConfig()
    app = make_app(cfg.app)
    base_field = app.generate(DEFAULTS.grid_shape, seed=cfg.seed)
    fields = field_time_series(base_field, cfg.timeseries_window, seed=cfg.seed + 1)
    levels = levels_for_decimation(base_field.shape, cfg.decimation_ratio)
    ladders = [
        build_ladder(decompose(f, levels), list(cfg.error_bounds), ErrorMetric.NRMSE)
        for f in fields
    ]

    session = ScenarioSession(_scenario_config(cfg))
    session.launch_churn(cfg.churn)
    if cfg.degrade_to is not None:
        session.degrade_capacity_tier(cfg.steps * cfg.period / 2.0, cfg.degrade_to)
    if cfg.faults is not None:
        session.apply_faults(cfg.faults)

    series = session.stage_series(f"{cfg.app}-campaign", ladders)
    reference = series.ladder
    # Campaign quirk, kept: storage-only gets the *full* weight function
    # here (not the cardinality-only calibration single-node runs use).
    weight_fn = (
        make_weight_function(reference)
        if cfg.policy in ("cross-layer", "storage-only")
        else None
    )
    controller = session.build_controller(
        reference,
        weight_fn=weight_fn,
        prescribed_bound=cfg.prescribed_bound,
        weight_cardinality="bucket",
    )
    driver = session.add_analytics("campaign-analytics", series, controller)
    final_time = session.run(horizon=cfg.steps * cfg.period * 3.0)

    return CampaignResult(
        config=cfg,
        records=list(driver.records),
        estimation_diagnostics=controller.estimation_diagnostics(),
        final_time=final_time,
    )
