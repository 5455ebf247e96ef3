"""Programmable QoS data plane: declarative per-tenant I/O policy.

The cross-layer control point generalised (PAIO-style): container I/O is
attributed to its tenant (the cgroup name), the tenant's declarative
:class:`QosPolicy` is enforced (blkio weight, rate caps, token-bucket
shaping), and a scheduler decides when the request reaches the device —
FIFO by default, priority admission control when a scenario sets
``ScenarioConfig.max_inflight``.  See ``docs/architecture.md``
§"QoS data plane".
"""

from repro.dataplane.pipeline import DataPlane
from repro.dataplane.policy import PRIORITY_CLASSES, QosPolicy, SloTarget, TokenBucket
from repro.dataplane.slo import SloBoard, SloTracker
from repro.dataplane.stages import IORequest

__all__ = [
    "DataPlane",
    "IORequest",
    "PRIORITY_CLASSES",
    "QosPolicy",
    "SloBoard",
    "SloTracker",
    "SloTarget",
    "TokenBucket",
]
