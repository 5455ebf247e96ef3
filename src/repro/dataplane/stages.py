"""The data plane's stages: the request record, enforcement, scheduling.

Every request goes through the same fixed pipeline
(:class:`~repro.dataplane.pipeline.DataPlane`):

* the tenant *is* the cgroup (container) name, and its policy is the
  plane's entry for that name (None when the tenant has none);
* :class:`BlkioEnforcer` pushes the policy's control-plane knobs
  (weight, caps) through the same cgroup interface the controller uses
  and returns the traffic-shaping delay in simulated seconds (0.0 =
  admit now);
* the scheduler decides when the request reaches the device and returns
  the event the caller waits on: :class:`FifoScheduler` when the plane
  has no ``max_inflight``, :class:`PriorityScheduler` with that many
  admission slots per device otherwise.

With no policy configured, the FIFO scheduler hands every request to
the device *synchronously*, so it takes the exact event path it took
before the plane existed, which is what the pinned fingerprints in
``tests/test_engine.py`` and ``tests/test_dataplane_guard.py`` enforce.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.dataplane.policy import TokenBucket
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataplane.pipeline import DataPlane
    from repro.dataplane.policy import QosPolicy
    from repro.simkernel import Event
    from repro.storage.cgroup import BlkioCgroup
    from repro.storage.device import BlockDevice

__all__ = ["IORequest", "BlkioEnforcer", "FifoScheduler", "PriorityScheduler"]

_PRIORITY_RANK = {"low": 0, "normal": 1, "high": 2}


@dataclass(slots=True)
class IORequest:
    """One submission travelling through the pipeline."""

    device: "BlockDevice"
    cgroup: "BlkioCgroup"
    nbytes: int
    direction: str
    extents: int
    submitted_at: float
    seq: int
    tenant: str
    policy: "QosPolicy | None"

    @property
    def priority_rank(self) -> int:
        """Admission preference (higher dispatches first)."""
        if self.policy is None:
            return _PRIORITY_RANK["normal"]
        return _PRIORITY_RANK[self.policy.priority]


def _forward(source: "Event", proxy: "Event") -> None:
    """Propagate a device event's outcome onto the caller-held proxy."""

    def relay(ev: "Event") -> None:
        if ev.ok:
            proxy.succeed(ev.value)
        else:
            proxy.fail(ev.exception)

    source.add_callback(relay)


# -- enforce ----------------------------------------------------------------


class BlkioEnforcer:
    """Push policy knobs through the cgroup blkio interface.

    * ``weight`` is written once, at the tenant's first I/O —
      it sets the *initial* proportional share; runtime controllers (the
      Tango adaptation loop) remain free to adjust it afterwards without
      the enforcer fighting them back.
    * ``read_cap_bps`` / ``write_cap_bps`` are installed once per
      (tenant, device), mirroring ``blkio.throttle.*_bps_device``.
    * ``rate_bps`` shapes admissions through a per-tenant
      :class:`~repro.dataplane.policy.TokenBucket` (burst =
      ``burst_bytes``, default one second of rate) and returns the
      resulting delay for the scheduler to apply.
    """

    def __init__(self) -> None:
        self._weight_done: set[str] = set()
        self._caps_done: set[tuple[str, str]] = set()
        self._buckets: dict[str, TokenBucket] = {}

    def enforce(self, plane: "DataPlane", req: IORequest) -> float:
        policy = req.policy
        if policy is None:
            return 0.0
        tenant = req.tenant
        now = plane.sim.now
        if policy.weight is not None and tenant not in self._weight_done:
            self._weight_done.add(tenant)
            if req.cgroup.blkio_weight != policy.weight:
                req.cgroup.set_blkio_weight(policy.weight, now=now)
            if OBS.enabled:
                OBS.registry.counter("dataplane.enforce.weights_applied").inc(
                    tenant=tenant
                )
        if policy.read_cap_bps is not None or policy.write_cap_bps is not None:
            key = (tenant, req.device.name)
            if key not in self._caps_done:
                self._caps_done.add(key)
                if policy.read_cap_bps is not None:
                    req.cgroup.set_throttle(req.device, "read", policy.read_cap_bps)
                if policy.write_cap_bps is not None:
                    req.cgroup.set_throttle(req.device, "write", policy.write_cap_bps)
                if OBS.enabled:
                    OBS.registry.counter("dataplane.enforce.caps_applied").inc(
                        tenant=tenant, device=req.device.name
                    )
        if policy.rate_bps is None or req.nbytes == 0:
            return 0.0
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(policy.capacity_bytes, policy.rate_bps, start=now)
            self._buckets[tenant] = bucket
        delay = bucket.reserve(req.nbytes, now)
        if delay > 0.0 and OBS.enabled:
            reg = OBS.registry
            reg.counter("dataplane.enforce.shaped").inc(tenant=tenant)
            reg.counter("dataplane.enforce.shaping_delay_s").inc(delay, tenant=tenant)
        return delay


# -- schedule ---------------------------------------------------------------


class FifoScheduler:
    """Dispatch in arrival order, honouring shaping delays.

    An unshaped request goes to the device synchronously and its device
    event is returned as-is — zero added events, zero added callbacks,
    which keeps the no-policy path bit-identical to the pre-dataplane
    submit.  A shaped request gets a proxy event that mirrors the device
    event once the delay elapses.
    """

    def dispatch(self, plane: "DataPlane", req: IORequest, delay: float) -> "Event":
        if delay <= 0.0:
            return plane.device_submit(req)
        proxy = plane.sim.event()
        plane.sim.schedule(delay, self._release, plane, req, proxy)
        return proxy

    @staticmethod
    def _release(plane: "DataPlane", req: IORequest, proxy: "Event") -> None:
        _forward(plane.device_submit(req), proxy)


class PriorityScheduler:
    """Admission control: at most ``max_inflight`` requests per device,
    dispatched by priority class (then FIFO within a class).

    Queued requests wait for a completion to free a slot; a shaped
    request joins the queue only after its shaping delay.
    """

    def __init__(self, max_inflight: int) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight!r}")
        self.max_inflight = max_inflight
        self._inflight: dict[str, int] = {}
        self._queues: dict[str, list] = {}

    def dispatch(self, plane: "DataPlane", req: IORequest, delay: float) -> "Event":
        proxy = plane.sim.event()
        if delay > 0.0:
            plane.sim.schedule(delay, self._arrive, plane, req, proxy)
        else:
            self._arrive(plane, req, proxy)
        return proxy

    def _arrive(self, plane: "DataPlane", req: IORequest, proxy: "Event") -> None:
        dev = req.device.name
        if self._inflight.get(dev, 0) < self.max_inflight:
            self._launch(plane, req, proxy)
            return
        # Max-heap on priority via negated rank; seq breaks ties FIFO.
        heapq.heappush(
            self._queues.setdefault(dev, []),
            (-req.priority_rank, req.seq, req, proxy),
        )
        if OBS.enabled:
            OBS.registry.counter("dataplane.schedule.queued").inc(
                tenant=req.tenant, device=dev
            )

    def _launch(self, plane: "DataPlane", req: IORequest, proxy: "Event") -> None:
        dev = req.device.name
        self._inflight[dev] = self._inflight.get(dev, 0) + 1
        if OBS.enabled:
            OBS.registry.counter("dataplane.schedule.dispatched").inc(
                tenant=req.tenant, device=dev
            )
        ev = plane.device_submit(req)
        ev.add_callback(lambda _ev: self._done(plane, dev))
        _forward(ev, proxy)

    def _done(self, plane: "DataPlane", dev: str) -> None:
        self._inflight[dev] -= 1
        queue = self._queues.get(dev)
        if queue:
            _, _, req, proxy = heapq.heappop(queue)
            self._launch(plane, req, proxy)
