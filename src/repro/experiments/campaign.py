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
from repro.core.error_control import build_ladder
from repro.core.refactor import decompose, levels_for_decimation
from repro.engine.session import ScenarioSession
from repro.experiments.config import DEFAULTS, ScenarioConfig
from repro.experiments.report import format_table, sparkline
from repro.workloads.analytics import StepRecord
from repro.workloads.churn import ChurnSpec

__all__ = ["CampaignConfig", "CampaignResult", "run_campaign"]

#: The campaign's application and its ladder's rung error bounds.  The
#: period, decimation ratio, prescribed bound and priority are
#: :class:`ScenarioConfig`'s defaults (60 s, 16, 0.01 and 10).
_APP = "xgc"
_ERROR_BOUNDS = (0.1, 0.01, 0.001)


@dataclass(frozen=True)
class CampaignConfig:
    """Campaign-scale scenario parameters."""

    policy: str = "cross-layer"
    steps: int = 120
    timeseries_window: int = 8
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    #: When set, the capacity tier drops to this speed factor at the
    #: campaign's midpoint (an aging/failing disk).
    degrade_to: float | None = None
    estimation_interval: int = DEFAULTS.estimation_interval
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
                f"Campaign: {_APP}/{self.config.policy}, "
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


def run_campaign(config: CampaignConfig | None = None) -> CampaignResult:
    """Run a campaign (deterministic per seed)."""
    cfg = config if config is not None else CampaignConfig()
    scfg = ScenarioConfig(
        app=_APP,
        policy=cfg.policy,
        error_bounds=_ERROR_BOUNDS,
        max_steps=cfg.steps,
        estimation_interval=cfg.estimation_interval,
        seed=cfg.seed,
    )
    base_field = make_app(scfg.app).generate(scfg.grid_shape, seed=cfg.seed)
    fields = field_time_series(base_field, cfg.timeseries_window, seed=cfg.seed + 1)
    levels = levels_for_decimation(base_field.shape, scfg.decimation_ratio)
    ladders = [
        build_ladder(decompose(f, levels), list(scfg.error_bounds), scfg.metric)
        for f in fields
    ]

    session = ScenarioSession(scfg)
    session.launch_churn(cfg.churn)
    if cfg.degrade_to is not None:
        session.degrade_capacity_tier(cfg.steps * scfg.period / 2.0, cfg.degrade_to)

    series = session.stage_series(f"{scfg.app}-campaign", ladders)
    controller = session.build_controller(series.ladder)
    driver = session.add_analytics("campaign-analytics", series, controller)
    final_time = session.run(horizon=cfg.steps * scfg.period * 3.0)

    return CampaignResult(
        config=cfg,
        records=list(driver.records),
        estimation_diagnostics=controller.estimation_diagnostics(),
        final_time=final_time,
    )
