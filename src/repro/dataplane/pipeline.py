"""The programmable QoS data plane (PAIO-style, see PAPERS.md).

A :class:`DataPlane` sits between container I/O submission and the
:class:`~repro.storage.device.BlockDevice`: every ``device.submit`` on an
attached device routes through one fixed pipeline —

    submit ─▶ tenant ─▶ enforce ─▶ schedule ─▶ device
              (cgroup    (weight/caps,  (FIFO, or priority
               name)      shaping delay) admission control)

— with per-tenant behaviour declared as
:class:`~repro.dataplane.policy.QosPolicy` objects rather than code.
The tenant is the cgroup (container) name, :class:`BlkioEnforcer`
enforces its policy, and the scheduler is FIFO when ``max_inflight`` is
None and priority admission control with ``max_inflight`` slots per
device otherwise.  A FIFO plane with no policies configured reproduces
the pre-dataplane event sequence bit-for-bit (pinned by the recorded
fingerprints in ``tests/test_engine.py`` /
``tests/test_dataplane_guard.py``).

SLO targets on policies are scored per completion through the plane's
:class:`~repro.dataplane.slo.SloBoard`; per-stage decisions and SLO
violations surface through :mod:`repro.obs` counters when observability
is enabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.dataplane.slo import SloBoard
from repro.dataplane.stages import (
    BlkioEnforcer,
    FifoScheduler,
    IORequest,
    PriorityScheduler,
)
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataplane.policy import QosPolicy
    from repro.simkernel import Event, Simulation
    from repro.storage.cgroup import BlkioCgroup
    from repro.storage.device import BlockDevice

__all__ = ["DataPlane"]


class DataPlane:
    """A tenant → enforce → schedule pipeline over block devices.

    ``policies`` maps tenant name (the cgroup/container name) to
    :class:`~repro.dataplane.policy.QosPolicy`.  ``max_inflight=None``
    dispatches in arrival order; an integer turns on priority admission
    control with that many requests in flight per device.
    """

    def __init__(
        self,
        sim: "Simulation",
        *,
        policies: Mapping[str, "QosPolicy"] | None = None,
        max_inflight: int | None = None,
    ) -> None:
        self.sim = sim
        self.policies: dict[str, "QosPolicy"] = dict(policies or {})
        self.enforcer = BlkioEnforcer()
        if max_inflight is None:
            self.scheduler = FifoScheduler()
        else:
            self.scheduler = PriorityScheduler(max_inflight)
        self.slo = SloBoard()
        self._seq = 0

    def attach(self, device: "BlockDevice") -> None:
        """Route an attached device's submissions through this plane."""
        if device.dataplane is not None and device.dataplane is not self:
            raise RuntimeError(
                f"device {device.name!r} is already attached to another plane"
            )
        device.dataplane = self

    def submit(
        self,
        device: "BlockDevice",
        cgroup: "BlkioCgroup",
        nbytes: int,
        direction: str,
        extents: int,
    ) -> "Event":
        """Run one request through the stages; called by ``device.submit``."""
        seq = self._seq
        self._seq = seq + 1
        tenant = cgroup.name
        policy = self.policies.get(tenant)
        req = IORequest(
            device=device,
            cgroup=cgroup,
            nbytes=nbytes,
            direction=direction,
            extents=extents,
            submitted_at=self.sim.now,
            seq=seq,
            tenant=tenant,
            policy=policy,
        )
        delay = self.enforcer.enforce(self, req)
        if OBS.enabled:
            OBS.registry.counter("dataplane.requests").inc(
                tenant=tenant,
                policy="yes" if policy is not None else "no",
            )
        ev = self.scheduler.dispatch(self, req, delay)
        if policy is not None:
            tracker = self.slo.tracker(tenant, policy.slo)
            ev.add_callback(lambda e, t=tracker, r=req: t.observe(e, r))
        return ev

    def device_submit(self, req: IORequest) -> "Event":
        """Hand a request to its device (the schedulers call this).

        ``_submit_direct`` schedules the device's ``_start_stream``
        handler, which appends the request's demand row to the device's
        persistent SoA arrays.  ``_start_stream`` is batch-dispatchable:
        all requests landing at the same instant on one device (fan-out
        bursts, zero-delay dispatches) append their rows in one group
        call followed by a single rate re-solve, instead of one solve
        per request.
        """
        return req.device._submit_direct(
            req.cgroup,
            req.nbytes,
            req.direction,
            req.extents,
            req.submitted_at,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DataPlane scheduler={type(self.scheduler).__name__} "
            f"policies={sorted(self.policies)}>"
        )
