"""Single-node scenario runner: one :class:`ScenarioSession` end to end.

``run_scenario`` composes the configured testbed through the engine —
memoized decomposition + ladder, staged dataset, Table IV noise
containers, the adaptivity controller — runs the analytics, and returns
a :class:`ScenarioResult` with everything the figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import AnalyticsApp
from repro.control import BaseController
from repro.core.error_control import AccuracyLadder
from repro.engine.session import ScenarioSession
from repro.experiments.config import ScenarioConfig
from repro.obs import OBS
from repro.storage.staging import StagedDataset
from repro.storage.stats import DeviceSample, DeviceSampler
from repro.workloads.analytics import StepRecord

__all__ = ["ScenarioResult", "run_scenario"]


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    config: ScenarioConfig
    records: list[StepRecord]
    ladder: AccuracyLadder
    dataset: StagedDataset
    app: AnalyticsApp
    original: np.ndarray
    weight_history: list[tuple[float, int]]
    final_time: float
    _outcome_cache: dict[int, float] = field(default_factory=dict)
    #: Capacity-tier device samples, recorded only when observability is
    #: enabled (``None`` otherwise — the disabled path schedules nothing).
    device_samples: list[DeviceSample] | None = None
    #: The tenant's controller (mode history / degradation inspection).
    controller: BaseController | None = None

    def _require_records(self, what: str) -> None:
        if not self.records:
            raise ValueError(
                f"scenario produced no step records; {what} is undefined "
                "(the analytics never completed a step — check max_steps "
                "and the run horizon)"
            )

    # -- I/O performance (Figs 8, 9, 12, 13, 14, 16) -----------------------

    @property
    def io_times(self) -> np.ndarray:
        return np.asarray([r.io_time for r in self.records])

    @property
    def mean_io_time(self) -> float:
        self._require_records("mean_io_time")
        return float(self.io_times.mean())

    @property
    def std_io_time(self) -> float:
        self._require_records("std_io_time")
        return float(self.io_times.std())

    def io_time_percentile(self, q: float) -> float:
        """Tail latency: the q-th percentile of per-step I/O times."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        self._require_records("io_time_percentile")
        return float(np.percentile(self.io_times, q))

    @property
    def measured_bandwidths(self) -> np.ndarray:
        return np.asarray([r.measured_bw for r in self.records])

    @property
    def predicted_bandwidths(self) -> np.ndarray:
        return np.asarray([r.predicted_bw for r in self.records])

    @property
    def step_times(self) -> np.ndarray:
        return np.asarray([r.started_at for r in self.records])

    # -- data quality (Figs 2, 10) -------------------------------------------

    def outcome_error_at_rung(self, rung: int) -> float:
        """Relative error of the analysis outcome at a ladder rung."""
        if rung not in self._outcome_cache:
            approx = self.ladder.reconstruct(rung)
            self._outcome_cache[rung] = self.app.outcome_error(self.original, approx)
        return self._outcome_cache[rung]

    @property
    def mean_outcome_error(self) -> float:
        """Mean per-step analysis-outcome error, weighting steps equally."""
        self._require_records("mean_outcome_error")
        errs = [self.outcome_error_at_rung(r.target_rung) for r in self.records]
        return float(np.mean(errs))

    @property
    def mean_target_rung(self) -> float:
        self._require_records("mean_target_rung")
        return float(np.mean([r.target_rung for r in self.records]))

    # -- augmentation retrieval latency (Fig 13) ------------------------------

    def mean_latency_to_rung(self, rung: int) -> float:
        """Average I/O time of the steps that reached at least ``rung``."""
        times = [r.io_time for r in self.records if r.target_rung >= rung]
        if not times:
            raise RuntimeError(f"no step reached rung {rung}")
        return float(np.mean(times))

    # -- resilience accounting (fault campaigns) -----------------------------

    @property
    def total_read_errors(self) -> int:
        return sum(r.read_errors for r in self.records)

    @property
    def total_skipped_objects(self) -> int:
        """Objects abandoned after retry exhaustion, across all steps."""
        return sum(r.skipped_objects for r in self.records)

    @property
    def degraded_steps(self) -> list[int]:
        """Steps whose accuracy no longer honours the ladder's bound.

        A step that skipped any object is *explicitly reported* here
        rather than silently counted as within-bound.
        """
        return [r.step for r in self.records if r.skipped_objects > 0]

    @property
    def mode_transitions(self) -> list[tuple[int, str, str]]:
        """Controller degradation-ladder transitions ``(step, from, to)``."""
        if self.controller is None:
            return []
        return list(self.controller.mode_history)


def run_scenario(
    config: ScenarioConfig,
    *,
    storage_factory=None,
    placement: str = "level",
) -> ScenarioResult:
    """Run one single-node scenario end to end (deterministic per seed).

    ``storage_factory(sim) -> TieredStorage`` replaces the two-tier
    testbed (used by capacity-pressure experiments); ``placement`` names
    a registered staging strategy.
    """
    session = ScenarioSession(
        config, storage_factory=storage_factory, placement=placement
    )
    app, original, ladder = session.build_ladder()
    dataset = session.stage(f"{config.app}-data", ladder)
    session.launch_noise()
    # Fault campaign, if the config names one.  Scheduled after the noise
    # (fault-free configs schedule nothing here, so the event sequence —
    # and the recorded fingerprints — are untouched).
    if config.faults is not None:
        session.apply_faults(config.faults)
    controller = session.build_controller(ladder)

    # Scenario-level telemetry: a span around the whole run, a sampler on
    # the contended capacity tier, and one event per completed step.  All
    # of it only exists when observability is enabled, so the default path
    # schedules nothing extra and stays bit-identical.
    sampler: DeviceSampler | None = None
    scenario_span = None
    on_step = None
    if OBS.enabled:
        scenario_span = OBS.tracer.start_span(
            "scenario",
            app=config.app,
            policy=config.policy,
            seed=config.seed,
            max_steps=config.max_steps,
        )
        sampler = DeviceSampler(
            session.sim, session.storage.slowest.device, interval=config.period / 4.0
        ).start()
        # Cancel the sampler's pending tick *before* stopping the
        # containers so idle rows never pad its series.
        session.on_teardown(sampler.stop)

        def on_step(record):
            OBS.tracer.event(
                "step.complete",
                step=record.step,
                io_time=record.io_time,
                io_bytes=record.io_bytes,
                measured_bw=record.measured_bw,
                predicted_bw=record.predicted_bw,
                target_rung=record.target_rung,
                probe_used=record.probe_used,
            )
            reg = OBS.registry
            reg.counter("scenario.steps").inc()
            reg.histogram("scenario.io_time").observe(record.io_time)
            reg.gauge("scenario.measured_bw").set(record.measured_bw)

    driver = session.add_analytics("analytics", dataset, controller, on_step=on_step)
    final_time = session.run()

    result = ScenarioResult(
        config=config,
        records=list(driver.records),
        ladder=ladder,
        dataset=dataset,
        app=app,
        original=original,
        weight_history=list(session.containers["analytics"].cgroup.weight_history),
        final_time=final_time,
        device_samples=list(sampler.samples) if sampler is not None else None,
        controller=controller,
    )
    if scenario_span is not None:
        scenario_span.set(
            steps=len(result.records),
            final_time=final_time,
            mean_io_time=result.mean_io_time if result.records else None,
            weight_adjustments=len(result.weight_history),
        ).end()
    return result
