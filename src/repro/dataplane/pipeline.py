"""The programmable QoS data plane (PAIO-style, see PAPERS.md).

A :class:`DataPlane` sits between container I/O submission and the
:class:`~repro.storage.device.BlockDevice`: every ``device.submit`` on an
attached device routes through three programmable stages —

    submit ─▶ classify ─▶ enforce ─▶ schedule ─▶ device
               (tenant,     (weight/caps,  (when it reaches
                policy)      shaping delay)  the medium)

— each resolved by name from its :mod:`repro.engine.registry` registry,
with per-tenant behaviour declared as :class:`~repro.dataplane.policy.QosPolicy`
objects rather than code.  The default stack ``("cgroup", "blkio",
"fifo")`` with no policies configured reproduces the pre-dataplane event
sequence bit-for-bit (pinned by the recorded fingerprints in
``tests/test_engine.py`` / ``tests/test_dataplane_guard.py``).

SLO targets on policies are scored per completion through the plane's
:class:`~repro.dataplane.slo.SloBoard`; per-stage decisions and SLO
violations surface through :mod:`repro.obs` counters when observability
is enabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.dataplane.slo import SloBoard
from repro.dataplane.stages import IORequest
from repro.engine.registry import (
    CLASSIFY_STAGES,
    ENFORCE_STAGES,
    SCHEDULE_STAGES,
)
from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataplane.policy import QosPolicy
    from repro.simkernel import Event, Simulation
    from repro.storage.cgroup import BlkioCgroup
    from repro.storage.device import BlockDevice

__all__ = ["DEFAULT_STAGE_STACK", "DataPlane"]

#: The stack that re-expresses the legacy weight/throttle mechanism.
DEFAULT_STAGE_STACK: tuple[str, str, str] = ("cgroup", "blkio", "fifo")


class DataPlane:
    """A classify → enforce → schedule pipeline over block devices.

    ``policies`` maps tenant name (as produced by the classify stage —
    the cgroup/container name for the default classifier) to
    :class:`~repro.dataplane.policy.QosPolicy`.  ``stack`` names the
    three stages; ``config`` is handed to each stage factory (duck-typed
    scenario config, may be None).
    """

    def __init__(
        self,
        sim: "Simulation",
        *,
        policies: Mapping[str, "QosPolicy"] | None = None,
        stack: tuple[str, str, str] = DEFAULT_STAGE_STACK,
        config=None,
    ) -> None:
        if len(stack) != 3:
            raise ValueError(
                f"stage_stack must be (classify, enforce, schedule), got {stack!r}"
            )
        self.sim = sim
        self.policies: dict[str, "QosPolicy"] = dict(policies or {})
        self.stack = tuple(stack)
        self.classifier = CLASSIFY_STAGES.create(stack[0], config)
        self.enforcer = ENFORCE_STAGES.create(stack[1], config)
        self.scheduler = SCHEDULE_STAGES.create(stack[2], config)
        self.slo = SloBoard()
        self.devices: list["BlockDevice"] = []
        self._seq = 0

    # -- wiring -----------------------------------------------------------

    def attach(self, device: "BlockDevice") -> None:
        """Route an attached device's submissions through this plane."""
        if device.dataplane is not None and device.dataplane is not self:
            raise RuntimeError(
                f"device {device.name!r} is already attached to another plane"
            )
        device.dataplane = self
        if device not in self.devices:
            self.devices.append(device)

    def set_policy(self, tenant: str, policy: "QosPolicy") -> None:
        """Install (or replace) a tenant's policy at runtime."""
        self.policies[tenant] = policy

    # -- the pipeline ------------------------------------------------------

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
        req = IORequest(
            device=device,
            cgroup=cgroup,
            nbytes=nbytes,
            direction=direction,
            extents=extents,
            submitted_at=self.sim.now,
            seq=seq,
        )
        self.classifier.classify(self, req)
        delay = self.enforcer.enforce(self, req)
        policy = req.policy
        if OBS.enabled:
            OBS.registry.counter("dataplane.requests").inc(
                tenant=req.tenant or "?",
                policy="yes" if policy is not None else "no",
            )
        ev = self.scheduler.dispatch(self, req, delay)
        if policy is not None:
            tracker = self.slo.tracker(req.tenant, policy.slo)
            ev.add_callback(lambda e, t=tracker, r=req: t.observe(e, r))
        return ev

    def device_submit(self, req: IORequest) -> "Event":
        """Hand a request to its device (schedule stages call this).

        ``_submit_direct`` schedules the device's ``_start_stream``
        handler, which appends the request's demand row to the device's
        persistent SoA arrays.  ``_start_stream`` is batch-dispatchable:
        all requests landing at the same instant on one device (fan-out
        bursts, zero-delay schedule stages) append their rows in one
        group call followed by a single rate re-solve, instead of one
        solve per request.
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
            f"<DataPlane stack={self.stack} policies={sorted(self.policies)} "
            f"devices={[d.name for d in self.devices]}>"
        )
