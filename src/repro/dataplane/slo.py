"""Per-tenant SLO scoring over data-plane completions.

An SLO is an *observation*, not a mechanism: the plane attaches a
tracker callback to every request from a policy-bearing tenant and
scores the completion against the tenant's :class:`~repro.dataplane.policy.SloTarget`
(when it has one).  Violations increment both a plane-local counter —
so results are available without observability enabled — and, when
:data:`repro.obs.OBS` is switched on, the
``dataplane.slo.violations{tenant=, kind=}`` metric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.obs import OBS

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataplane.policy import SloTarget
    from repro.dataplane.stages import IORequest
    from repro.simkernel import Event

__all__ = ["SloBoard", "SloTracker"]


class SloTracker:
    """Completion accounting for one tenant (target optional)."""

    __slots__ = (
        "tenant",
        "target",
        "completions",
        "errors",
        "violations",
        "bytes_done",
        "latencies",
    )

    def __init__(self, tenant: str, target: "SloTarget | None") -> None:
        self.tenant = tenant
        self.target = target
        self.completions = 0
        self.errors = 0
        self.violations = 0
        self.bytes_done = 0
        self.latencies: list[float] = []

    def observe(self, event: "Event", request: "IORequest") -> None:
        """Score one finished request (failure counts as an error)."""
        if not event.ok:
            self.errors += 1
            return
        stats = event.value
        latency = stats.elapsed
        self.completions += 1
        self.bytes_done += stats.nbytes
        self.latencies.append(latency)
        target = self.target
        if target is None:
            return
        if target.kind == "p99_latency":
            violated = latency > target.value
        else:  # bandwidth_floor
            violated = stats.effective_bandwidth < target.value
        if violated:
            self.violations += 1
            if OBS.enabled:
                OBS.registry.counter("dataplane.slo.violations").inc(
                    tenant=self.tenant, kind=target.kind
                )

    def p99_latency(self) -> float:
        """Realised 99th-percentile submit-to-finish latency (seconds)."""
        if not self.latencies:
            return 0.0
        return float(np.percentile(self.latencies, 99))

    def report(self) -> dict:
        """JSON-ready summary row for this tenant."""
        row = {
            "tenant": self.tenant,
            "completions": self.completions,
            "errors": self.errors,
            "violations": self.violations,
            "bytes_done": self.bytes_done,
            "p99_latency_s": self.p99_latency(),
        }
        if self.target is not None:
            row["slo_kind"] = self.target.kind
            row["slo_value"] = self.target.value
        return row


class SloBoard:
    """The plane's tracker table, one per policy-bearing tenant."""

    def __init__(self) -> None:
        self.trackers: dict[str, SloTracker] = {}

    def tracker(self, tenant: str, target: "SloTarget | None") -> SloTracker:
        tracker = self.trackers.get(tenant)
        if tracker is None:
            tracker = SloTracker(tenant, target)
            self.trackers[tenant] = tracker
        return tracker

    def report(self) -> dict[str, dict]:
        """Per-tenant summaries keyed by tenant name (sorted)."""
        return {name: self.trackers[name].report() for name in sorted(self.trackers)}
