"""Deterministic fault campaigns scheduled on the simulation clock.

A :class:`FaultCampaign` is a declarative, frozen description of
everything that goes wrong during a run: media-error bursts (driving
:meth:`~repro.storage.device.BlockDevice.inject_failures`), speed-factor
degradation steps and ramps (:meth:`set_speed_factor`), full device
stalls (:meth:`stall`), and *estimator-feed corruption* — windows during
which the bandwidth samples handed to the controller's estimator are
dropped, zeroed, or spiked into outliers.

The :class:`FaultInjector` expands a campaign into an explicit, sorted
event plan (any jitter is drawn eagerly from the seeded campaign RNG, so
the plan itself is a deterministic function of ``(campaign, seed)`` and
can be fingerprinted by tests) and schedules it on the sim clock.

:data:`FAULT_CAMPAIGNS` names the built-in campaigns, so a scenario or
sweep can name one by string (``ScenarioConfig(faults="chaos")``); each
factory receives the scenario config and scales the event times to its
horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from repro.obs import OBS
from repro.util.rng import make_rng
from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from repro.simkernel import Simulation
    from repro.storage.device import BlockDevice

__all__ = [
    "ErrorBurst",
    "SpeedStep",
    "SpeedRamp",
    "DeviceStall",
    "FeedCorruption",
    "FaultEvent",
    "FaultCampaign",
    "ScheduledFault",
    "FaultInjector",
    "FAULT_CAMPAIGNS",
]

#: Feed-corruption modes: ``drop`` feeds NaN (a missing sample), ``zero``
#: feeds 0 (a sampler that timed out), ``outlier`` multiplies the true
#: sample into an implausible spike.
CORRUPTION_MODES = ("drop", "zero", "outlier")


@dataclass(frozen=True)
class ErrorBurst:
    """Arm ``count`` injected media errors at sim time ``at``.

    ``jitter`` (seconds) shifts the burst by ``U(-jitter, +jitter)``
    drawn from the campaign RNG when the plan is built.
    """

    at: float
    count: int = 1
    jitter: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative("at", self.at)
        check_non_negative("jitter", self.jitter)
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class SpeedStep:
    """Set the device speed factor to ``factor`` at sim time ``at``."""

    at: float
    factor: float

    def __post_init__(self) -> None:
        check_non_negative("at", self.at)
        if not 0.0 < self.factor <= 1.0:
            raise ValueError(f"factor must be in (0, 1], got {self.factor!r}")


@dataclass(frozen=True)
class SpeedRamp:
    """Degrade (or recover) the speed factor piecewise-linearly.

    ``steps`` evenly spaced :class:`SpeedStep`-equivalents move the
    factor from ``factor_from`` to ``factor_to`` over ``duration``
    seconds starting at ``start`` — an aging disk, an SMR remapping
    storm ramping up, or a thermal throttle easing off.
    """

    start: float
    duration: float
    factor_from: float = 1.0
    factor_to: float = 0.5
    steps: int = 8

    def __post_init__(self) -> None:
        check_non_negative("start", self.start)
        check_positive("duration", self.duration)
        for name, f in (("factor_from", self.factor_from), ("factor_to", self.factor_to)):
            if not 0.0 < f <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {f!r}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")


@dataclass(frozen=True)
class DeviceStall:
    """Freeze the device completely for ``duration`` seconds at ``at``."""

    at: float
    duration: float

    def __post_init__(self) -> None:
        check_non_negative("at", self.at)
        check_positive("duration", self.duration)


@dataclass(frozen=True)
class FeedCorruption:
    """Corrupt estimator-feed samples inside ``[start, start+duration)``.

    Each sample measured inside the window is corrupted with
    probability ``rate`` (draws come from the campaign RNG in sim
    order, so runs are bit-identical per seed).  ``mode`` selects what
    the controller sees; ``scale`` is the outlier multiplier.
    """

    start: float
    duration: float
    mode: str = "drop"
    rate: float = 1.0
    scale: float = 50.0

    def __post_init__(self) -> None:
        check_non_negative("start", self.start)
        check_positive("duration", self.duration)
        if self.mode not in CORRUPTION_MODES:
            raise ValueError(
                f"mode must be one of {CORRUPTION_MODES}, got {self.mode!r}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate!r}")
        check_positive("scale", self.scale)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def apply(self, value: float) -> float:
        if self.mode == "drop":
            return float("nan")
        if self.mode == "zero":
            return 0.0
        # Outlier: an implausible spike even when the true sample is ~0.
        return max(float(value), 1.0) * self.scale


FaultEvent = Union[ErrorBurst, SpeedStep, SpeedRamp, DeviceStall, FeedCorruption]


@dataclass(frozen=True)
class FaultCampaign:
    """A named, declarative set of fault events for one run."""

    name: str
    events: tuple[FaultEvent, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")

    @property
    def corruption_windows(self) -> tuple[FeedCorruption, ...]:
        return tuple(e for e in self.events if isinstance(e, FeedCorruption))

    @property
    def device_events(self) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if not isinstance(e, FeedCorruption))


@dataclass(frozen=True)
class ScheduledFault:
    """One concrete device-level action in an injector's plan."""

    time: float
    kind: str
    args: tuple

    def as_tuple(self) -> tuple:
        """Hashable form, for determinism fingerprints."""
        return (self.time, self.kind, self.args)


class FaultInjector:
    """Expands a campaign into a plan and drives it on the sim clock.

    The plan (jitter included) is built eagerly in :meth:`schedule`, so
    two injectors with the same ``(campaign, seed)`` produce identical
    :attr:`plan` lists and identical run behaviour.  Feed corruption is
    window-based: :meth:`corrupt_sample` is threaded into the analytics
    driver as its sample filter and draws from the same RNG in sim
    order.  Outside every window the sample passes through untouched and
    no random numbers are consumed — a campaign with no corruption
    windows leaves the feed bit-identical.
    """

    def __init__(
        self,
        sim: "Simulation",
        device: "BlockDevice",
        campaign: FaultCampaign,
        *,
        rng: "np.random.Generator | int | None" = 0,
    ) -> None:
        self.sim = sim
        self.device = device
        self.campaign = campaign
        self.rng = make_rng(rng)
        self._windows = campaign.corruption_windows
        #: The expanded, sorted device-event plan (built by schedule()).
        self.plan: list[ScheduledFault] = []
        #: ``(sim_time, kind)`` log of events that actually fired.
        self.fired: list[tuple[float, str]] = []
        self.samples_corrupted = 0
        self._scheduled = False

    # -- plan construction ------------------------------------------------

    def build_plan(self) -> list[ScheduledFault]:
        """Expand the campaign into concrete timed actions (deterministic)."""
        plan: list[ScheduledFault] = []
        for ev in self.campaign.device_events:
            if isinstance(ev, ErrorBurst):
                t = ev.at
                if ev.jitter > 0.0:
                    t += float(self.rng.uniform(-ev.jitter, ev.jitter))
                plan.append(ScheduledFault(max(t, 0.0), "error-burst", (ev.count,)))
            elif isinstance(ev, SpeedStep):
                plan.append(ScheduledFault(ev.at, "speed-step", (ev.factor,)))
            elif isinstance(ev, SpeedRamp):
                for i in range(1, ev.steps + 1):
                    frac = i / ev.steps
                    t = ev.start + frac * ev.duration
                    f = ev.factor_from + frac * (ev.factor_to - ev.factor_from)
                    plan.append(ScheduledFault(t, "speed-step", (f,)))
            elif isinstance(ev, DeviceStall):
                plan.append(ScheduledFault(ev.at, "stall", (ev.duration,)))
            else:  # pragma: no cover - FaultEvent union is closed
                raise TypeError(f"unknown fault event {ev!r}")
        plan.sort(key=lambda f: f.time)  # stable: ties keep campaign order
        return plan

    def plan_fingerprint(self) -> tuple:
        """Hashable identity of the expanded plan (determinism tests)."""
        return tuple(f.as_tuple() for f in self.plan)

    # -- scheduling + firing ----------------------------------------------

    def schedule(self) -> "FaultInjector":
        """Build the plan and register every action with the sim clock."""
        if self._scheduled:
            raise RuntimeError("injector already scheduled")
        self._scheduled = True
        self.plan = self.build_plan()
        for fault in self.plan:
            self.sim.schedule_at(fault.time, self._fire, fault)
        return self

    def _fire(self, fault: ScheduledFault) -> None:
        if fault.kind == "error-burst":
            self.device.inject_failures(fault.args[0])
        elif fault.kind == "speed-step":
            self.device.set_speed_factor(fault.args[0])
        elif fault.kind == "stall":
            self.device.stall(fault.args[0])
        else:  # pragma: no cover - plan kinds are closed
            raise RuntimeError(f"unknown scheduled fault kind {fault.kind!r}")
        self.fired.append((self.sim.now, fault.kind))
        if OBS.enabled:
            OBS.registry.counter("faults.events_fired").inc(kind=fault.kind)
            OBS.tracer.event(
                "fault.fired", kind=fault.kind, args=list(fault.args),
                device=self.device.name,
            )

    # -- estimator-feed corruption ----------------------------------------

    def corrupt_sample(self, now: float, value: float) -> float:
        """Filter one bandwidth sample measured at sim time ``now``.

        The first window covering ``now`` decides; its ``rate`` draw (if
        any) comes from the campaign RNG.  Samples outside every window
        pass through unchanged without consuming randomness.
        """
        for w in self._windows:
            if w.start <= now < w.end:
                if w.rate >= 1.0 or float(self.rng.random()) < w.rate:
                    self.samples_corrupted += 1
                    corrupted = w.apply(value)
                    if OBS.enabled:
                        OBS.registry.counter("faults.samples_corrupted").inc(mode=w.mode)
                        OBS.tracer.event(
                            "fault.sample_corrupted",
                            mode=w.mode,
                            raw=None if math.isnan(value) else float(value),
                        )
                    return corrupted
                return value
        return value


# -- built-in campaigns ---------------------------------------------------
#
# Factories take the scenario config and scale their event times to the
# run's horizon, so the same name works for a 20-step smoke run and a
# 120-step campaign.


def _horizon(config) -> tuple[float, float]:
    period = float(config.period)
    return period, period * int(config.max_steps)


def _error_bursts(config) -> FaultCampaign:
    """Transient media-error bursts only — exercises retry/skip paths."""
    _, horizon = _horizon(config)
    return FaultCampaign(
        name="error-bursts",
        description="three transient media-error bursts across the run",
        events=(
            ErrorBurst(at=0.2 * horizon, count=2),
            ErrorBurst(at=0.5 * horizon, count=3),
            ErrorBurst(at=0.8 * horizon, count=1),
        ),
    )


def _degrade_ramp(config) -> FaultCampaign:
    """Mid-run device aging: ramp to 40 % speed, partial recovery."""
    _, horizon = _horizon(config)
    return FaultCampaign(
        name="degrade-ramp",
        description="speed-factor ramp to 0.4 from 40% of the run, step back to 0.8",
        events=(
            SpeedRamp(
                start=0.4 * horizon,
                duration=0.2 * horizon,
                factor_from=1.0,
                factor_to=0.4,
                steps=6,
            ),
            SpeedStep(at=0.85 * horizon, factor=0.8),
        ),
    )


def _feed_blackout(config) -> FaultCampaign:
    """Estimator-feed blackout: every sample dropped for ~12 periods."""
    period, horizon = _horizon(config)
    return FaultCampaign(
        name="feed-blackout",
        description="all bandwidth samples dropped for a 12-period window",
        events=(
            FeedCorruption(start=0.3 * horizon, duration=12.0 * period, mode="drop"),
        ),
    )


def _stability_step(config) -> FaultCampaign:
    """Step reference input for the controller stability suite.

    One sharp downward speed step — the classic step-response probe.
    Settling time and overshoot are measured against the controller's
    prediction trace after the step lands (see
    ``repro.experiments.stability``).
    """
    _, horizon = _horizon(config)
    return FaultCampaign(
        name="stability-step",
        description="single speed step to 0.45 at 35% of the run (step response)",
        events=(SpeedStep(at=0.35 * horizon, factor=0.45),),
    )


def _stability_ramp(config) -> FaultCampaign:
    """Ramp reference input: gradual degradation, no recovery."""
    _, horizon = _horizon(config)
    return FaultCampaign(
        name="stability-ramp",
        description="linear speed ramp 1.0 -> 0.45 over 35% of the run",
        events=(
            SpeedRamp(
                start=0.3 * horizon,
                duration=0.35 * horizon,
                factor_from=1.0,
                factor_to=0.45,
                steps=8,
            ),
        ),
    )


def _stability_osc(config) -> FaultCampaign:
    """Oscillation reference input: a square wave in device speed.

    The speed factor alternates between 0.5 and 1.0 every four analytics
    periods from 30% of the run to the end — a persistent disturbance
    the controller should track without amplifying.
    """
    period, horizon = _horizon(config)
    events: list[FaultEvent] = []
    t = 0.3 * horizon
    low = True
    while t < horizon:
        events.append(SpeedStep(at=t, factor=0.5 if low else 1.0))
        low = not low
        t += 4.0 * period
    return FaultCampaign(
        name="stability-osc",
        description="square-wave speed factor 0.5/1.0 every 4 periods from 30% of the run",
        events=tuple(events),
    )


def _chaos(config) -> FaultCampaign:
    """Everything at once: bursts + degradation + stall + feed corruption.

    The acceptance scenario: the device degrades mid-run and stalls
    briefly, media errors force retries/skips, and the estimator feed
    blacks out long enough to walk the controller down its whole
    fallback ladder before recovering.
    """
    period, horizon = _horizon(config)
    return FaultCampaign(
        name="chaos",
        description="error bursts + mid-run degradation + stall + feed corruption",
        events=(
            ErrorBurst(at=0.15 * horizon, count=2, jitter=0.5 * period),
            ErrorBurst(at=0.65 * horizon, count=3, jitter=0.5 * period),
            SpeedRamp(
                start=0.35 * horizon,
                duration=0.15 * horizon,
                factor_from=1.0,
                factor_to=0.5,
                steps=5,
            ),
            DeviceStall(at=0.55 * horizon, duration=0.5 * period),
            SpeedStep(at=0.8 * horizon, factor=0.9),
            # Blackout long enough to reach weights-only (streak >= 10 by
            # default), then a partial-outlier tail during recovery.
            FeedCorruption(start=0.3 * horizon, duration=12.0 * period, mode="drop"),
            FeedCorruption(
                start=0.75 * horizon,
                duration=4.0 * period,
                mode="outlier",
                rate=0.6,
                scale=40.0,
            ),
        ),
    )


#: Fault campaigns: ``factory(config) -> FaultCampaign``.
FAULT_CAMPAIGNS = {
    "error-bursts": _error_bursts,
    "degrade-ramp": _degrade_ramp,
    "feed-blackout": _feed_blackout,
    "stability-step": _stability_step,
    "stability-ramp": _stability_ramp,
    "stability-osc": _stability_osc,
    "chaos": _chaos,
}
