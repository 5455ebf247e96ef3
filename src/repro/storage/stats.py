"""Device utilisation sampling: the time series behind Fig. 1 / Fig. 7.

A :class:`DeviceSampler` polls a device on a fixed cadence and records the
instantaneous aggregate service rate per direction plus the active stream
count — the "instantaneous bandwidth" view that complements the per-step
"average I/O performance" the analytics itself measures.

The sampler owns its pending timer: :meth:`DeviceSampler.stop` cancels it
in O(1) (see :class:`repro.simkernel.events.ScheduledCallback`), so a
scenario can tear its sampler down when the workload finishes instead of
letting idle ticks pad ``samples`` and skew ``busy_fraction()``.

Tick times are computed as ``start + n * interval`` (:func:`tick_time`)
rather than accumulated with repeated ``schedule(interval)``, so tick N
lands *exactly* at ``N * interval`` even for non-representable intervals
— accumulated float error would land ticks at ``t ± n·ulp`` and silently
defeat the kernel's same-timestamp epoch batching for events meant to
coincide with weight changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import OBS
from repro.simkernel import Simulation, tick_time
from repro.simkernel.events import ScheduledCallback
from repro.storage.device import BlockDevice
from repro.util.validation import check_positive

__all__ = ["DeviceSample", "DeviceSampler"]


@dataclass(frozen=True)
class DeviceSample:
    time: float
    read_rate: float
    write_rate: float
    active_streams: int

    @property
    def total_rate(self) -> float:
        return self.read_rate + self.write_rate


@dataclass
class DeviceSampler:
    """Samples one device every ``interval`` simulated seconds."""

    sim: Simulation
    device: BlockDevice
    interval: float = 5.0
    samples: list[DeviceSample] = field(default_factory=list)
    _running: bool = False
    _handle: ScheduledCallback | None = field(default=None, repr=False)
    # Drift-free tick anchor: tick n fires at tick_time(_t0, n, interval).
    _t0: float = field(default=0.0, repr=False)
    _n: int = field(default=0, repr=False)

    def start(self) -> "DeviceSampler":
        check_positive("interval", self.interval)
        if self._running:
            raise RuntimeError("sampler already started")
        self._running = True
        self._t0 = self.sim.now
        self._n = 0
        self._tick()
        return self

    def stop(self) -> "DeviceSampler":
        """Cancel the pending tick; the sampler can be restarted later."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._running = False
        return self

    @property
    def is_running(self) -> bool:
        return self._running

    def _tick(self) -> None:
        # A weight change re-rates the device at once, so a tick that
        # runs after it at the same timestamp sees the post-change rates.
        read_rate, write_rate = self.device.rates_by_direction()
        sample = DeviceSample(
            time=self.sim.now,
            read_rate=read_rate,
            write_rate=write_rate,
            active_streams=self.device.active_stream_count,
        )
        self.samples.append(sample)
        if OBS.enabled:
            reg = OBS.registry
            reg.counter("sampler.ticks").inc(device=self.device.name)
            reg.gauge("sampler.total_rate").set(sample.total_rate, device=self.device.name)
            reg.gauge("sampler.active_streams").set(
                sample.active_streams, device=self.device.name
            )
        self._n += 1
        self._handle = self.sim.schedule_at(
            tick_time(self._t0, self._n, self.interval), self._tick
        )

    # -- analysis ---------------------------------------------------------

    def times(self) -> np.ndarray:
        return np.asarray([s.time for s in self.samples])

    def total_rates(self) -> np.ndarray:
        return np.asarray([s.total_rate for s in self.samples])

    def utilisation(self, peak_bps: float) -> np.ndarray:
        """Total service rate as a fraction of a nominal peak."""
        check_positive("peak_bps", peak_bps)
        return self.total_rates() / peak_bps

    def busy_fraction(self) -> float:
        """Fraction of samples with at least one active stream."""
        if not self.samples:
            return 0.0
        busy = sum(1 for s in self.samples if s.active_streams > 0)
        return busy / len(self.samples)

    def peak_concurrency(self) -> int:
        return max((s.active_streams for s in self.samples), default=0)
