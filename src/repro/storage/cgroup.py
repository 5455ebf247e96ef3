"""cgroup blkio resource control (Section II, "Runtime resource control").

Mirrors the cgroup-v1 blkio interface the paper drives through Docker:

* ``blkio.weight`` — proportional weight in [100, 1000], adjustable at
  runtime with immediate effect on in-flight I/O (no restart needed);
* ``blkio.throttle.read_bps_device`` / ``write_bps_device`` — per-device
  upper rate limits.

Weight/throttle changes notify every device where the cgroup currently
has active streams so the fluid scheduler reallocates immediately —
the paper's "the weight adjustment requires neither administrator access
nor restarting the container".
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.obs import OBS
from repro.storage.limits import normalize_throttle, normalize_weight

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.device import BlockDevice

__all__ = ["BlkioCgroup", "CgroupController"]

DEFAULT_BLKIO_WEIGHT = 100


class BlkioCgroup:
    """One control group: a weight, per-device throttles, and accounting."""

    def __init__(self, name: str, weight: int = DEFAULT_BLKIO_WEIGHT) -> None:
        self.name = name
        self._weight = normalize_weight(weight)
        self._throttles: dict[tuple[str, str], float] = {}
        self._active_devices: set["BlockDevice"] = set()
        #: (time, weight) pairs for every runtime adjustment (Fig. 15).
        self.weight_history: list[tuple[float, int]] = []

    @property
    def blkio_weight(self) -> int:
        return self._weight

    def set_blkio_weight(self, weight: int, *, now: float | None = None) -> None:
        """Adjust the proportional weight at runtime."""
        old = self._weight
        self._weight = normalize_weight(weight)
        if now is not None:
            self.weight_history.append((now, self._weight))
        if OBS.enabled:
            OBS.tracer.event(
                "cgroup.weight_change",
                sim_time=now,
                cgroup=self.name,
                old=old,
                new=self._weight,
            )
            reg = OBS.registry
            reg.counter("cgroup.weight_changes").inc(cgroup=self.name)
            reg.gauge("cgroup.blkio_weight").set(self._weight, cgroup=self.name)
        self._notify_devices()

    # -- throttling -----------------------------------------------------

    def set_throttle(self, device: "BlockDevice", direction: str, bps: float | None) -> None:
        """Set (or clear with ``None``) a throttle for a device+direction."""
        if direction not in ("read", "write"):
            raise ValueError(f"direction must be 'read' or 'write', got {direction!r}")
        key = (device.name, direction)
        if bps is None:
            self._throttles.pop(key, None)
        else:
            self._throttles[key] = normalize_throttle(bps)
        self._notify_devices()

    def throttle_bps(self, device: "BlockDevice", direction: str) -> float:
        """Effective throttle for a device+direction (``inf`` = none)."""
        return self._throttles.get((device.name, direction), math.inf)

    # -- device registration (called by BlockDevice) -----------------------

    def _register_active_device(self, device: "BlockDevice") -> None:
        self._active_devices.add(device)

    def _unregister_active_device(self, device: "BlockDevice") -> None:
        self._active_devices.discard(device)

    def _notify_devices(self) -> None:
        # Each device this cgroup has streams on re-rates in place.
        for dev in list(self._active_devices):
            dev.notify_demand_change()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BlkioCgroup {self.name!r} weight={self._weight}>"


class CgroupController:
    """Registry of cgroups on a node (one per container)."""

    def __init__(self) -> None:
        self._groups: dict[str, BlkioCgroup] = {}

    def create(self, name: str, weight: int = DEFAULT_BLKIO_WEIGHT) -> BlkioCgroup:
        if name in self._groups:
            raise ValueError(f"cgroup {name!r} already exists")
        group = BlkioCgroup(name, weight)
        self._groups[name] = group
        return group

    def get(self, name: str) -> BlkioCgroup:
        try:
            return self._groups[name]
        except KeyError:
            raise KeyError(f"no cgroup named {name!r}") from None

    def remove(self, name: str) -> None:
        if name not in self._groups:
            raise KeyError(f"no cgroup named {name!r}")
        del self._groups[name]

    def __contains__(self, name: str) -> bool:
        return name in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def names(self) -> list[str]:
        return sorted(self._groups)
