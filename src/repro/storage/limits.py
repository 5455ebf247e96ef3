"""Single source of truth for blkio weight/throttle parameter rules.

The weight-range check, the throttle-bps validation, and the stream-demand
invariants used to be duplicated between :mod:`repro.storage.cgroup` (the
control-plane write path) and :mod:`repro.storage.blkio` (the solver's
``StreamDemand``).  The dataplane's enforce stage is a third consumer —
a declarative :class:`~repro.dataplane.policy.QosPolicy` carries the same
weight and cap fields — so the rules live here once and everything
validates identically.

Error messages are part of the contract: they are asserted by tests and
surfaced to users through config validation, so the hoist preserves them
byte-for-byte.
"""

from __future__ import annotations

import math

from repro.core.weights import BLKIO_WEIGHT_MAX, BLKIO_WEIGHT_MIN

__all__ = [
    "BLKIO_WEIGHT_MIN",
    "BLKIO_WEIGHT_MAX",
    "MAX_FLOOR_UTILISATION",
    "EPS_REMAINING",
    "CAP_SLACK",
    "normalize_weight",
    "clamp_weight",
    "normalize_throttle",
    "validate_demand",
]

# -- waterfill solver constants -------------------------------------------
#
# Read by the solver (:mod:`repro.storage.blkio`) and by the test-only
# reference solver, which must use the same definitions to stay
# bit-identical.

#: Writeback floors may reserve at most this fraction of the device:
#: kernel dirty throttling keeps flushing, but never to the point of
#: absolute reader starvation.
MAX_FLOOR_UTILISATION = 0.8

#: Residual utilisation below which filling stops (guards float drift).
EPS_REMAINING = 1e-15

#: Relative slack when deciding a stream's share saturates its headroom.
CAP_SLACK = 1.0 + 1e-12


def normalize_weight(weight: int | float) -> int:
    """Int-cast and range-check a blkio weight (the cgroup write rule).

    Raises ``ValueError`` outside [100, 1000]; mirrors what the kernel
    does on a ``blkio.weight`` write.
    """
    weight = int(weight)
    if not BLKIO_WEIGHT_MIN <= weight <= BLKIO_WEIGHT_MAX:
        raise ValueError(
            f"blkio weight must be in [{BLKIO_WEIGHT_MIN}, {BLKIO_WEIGHT_MAX}], "
            f"got {weight}"
        )
    return weight


def clamp_weight(value: float) -> int:
    """Clip an arbitrary weight value into the legal blkio range.

    Half-way values round *up* (``math.floor(w + 0.5)``) — built-in
    ``round`` uses banker's rounding, which maps e.g. 150.5 to the
    nearest even integer 150, a surprise for a calibrated map.  Same
    rule as :class:`repro.core.weights.WeightFunction`.
    """
    return math.floor(min(max(value, BLKIO_WEIGHT_MIN), BLKIO_WEIGHT_MAX) + 0.5)


def normalize_throttle(bps: float) -> float:
    """Validate and float-cast a throttle/cap limit in bytes per second.

    NaN must be rejected explicitly: ``nan <= 0`` is False, and a NaN cap
    would otherwise poison ``min(cap, peak_rate)`` into NaN rates inside
    the solver.  ``inf`` is legal (uncapped).
    """
    bps = float(bps)
    if math.isnan(bps) or bps <= 0:
        raise ValueError(f"throttle bps must be > 0, got {bps!r}")
    return bps


def validate_demand(weight: float, peak_rate: float, cap: float, floor: float) -> None:
    """The :class:`~repro.storage.blkio.StreamDemand` invariants.

    Solver-level inputs are looser than the cgroup write rules (any
    finite positive weight is allowed — writeback streams compete at
    fractional system weights), but caps share the NaN rejection above.
    """
    if weight <= 0 or not math.isfinite(weight):
        raise ValueError(f"weight must be finite and > 0, got {weight!r}")
    if peak_rate <= 0 or not math.isfinite(peak_rate):
        raise ValueError(f"peak_rate must be finite and > 0, got {peak_rate!r}")
    if math.isnan(cap) or cap <= 0:
        raise ValueError(f"cap must be > 0 (inf = uncapped), got {cap!r}")
    if floor < 0 or not math.isfinite(floor):
        raise ValueError(f"floor must be finite and >= 0, got {floor!r}")
