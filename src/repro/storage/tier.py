"""Storage tiers and the tiered hierarchy.

Tier numbering follows the paper: ``ST^0`` is the slowest tier with the
largest capacity; ``ST^{T-1}`` is the fastest with the smallest.  The
default two-tier build matches the testbed (HDD capacity tier + SSD
performance tier).

The mapping from decomposition levels to tiers is
``tier(l) = min(l, T-1)``: the finest augmentation (level 0, the largest
object) lives on the capacity tier; the base representation (level L-1)
and coarse augmentations live on the performance tier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simkernel import Simulation
from repro.storage.device import DEVICE_PRESETS, BlockDevice, DeviceSpec
from repro.storage.filesystem import Filesystem

__all__ = ["StorageTier", "TieredStorage"]


@dataclass
class StorageTier:
    """One tier: a device plus the filesystem on it."""

    index: int
    device: BlockDevice
    filesystem: Filesystem

    @property
    def name(self) -> str:
        return f"ST^{self.index}({self.device.name})"


class TieredStorage:
    """The node's local ephemeral storage hierarchy (paper Fig. 3)."""

    def __init__(self, sim: Simulation, specs: list[DeviceSpec]) -> None:
        """``specs`` are ordered slowest-first, matching ST^0 … ST^{T-1}.

        The ordering is validated: each tier's read bandwidth must be at
        least its predecessor's, or the ST-numbering (and with it every
        placement decision) would be silently wrong.
        """
        if not specs:
            raise ValueError("at least one tier is required")
        for lo, hi in zip(specs, specs[1:]):
            if hi.read_bw < lo.read_bw:
                raise ValueError(
                    f"tiers must be ordered slowest-first: {hi.name} "
                    f"({hi.read_bw:.0f} B/s) is slower than {lo.name} "
                    f"({lo.read_bw:.0f} B/s)"
                )
        self.sim = sim
        self.tiers: list[StorageTier] = []
        for i, spec in enumerate(specs):
            dev = BlockDevice(sim, spec)
            self.tiers.append(StorageTier(index=i, device=dev, filesystem=Filesystem(dev)))

    @classmethod
    def two_tier_testbed(cls, sim: Simulation) -> "TieredStorage":
        """The paper's evaluation hierarchy: HDD capacity + SSD performance."""
        return cls(sim, [DEVICE_PRESETS["seagate-hdd-2t"], DEVICE_PRESETS["intel-ssd-400"]])

    @property
    def num_tiers(self) -> int:
        return len(self.tiers)

    @property
    def slowest(self) -> StorageTier:
        return self.tiers[0]

    @property
    def fastest(self) -> StorageTier:
        return self.tiers[-1]

    def __getitem__(self, index: int) -> StorageTier:
        return self.tiers[index]

    def tier_for_level(self, level: int, num_levels: int | None = None) -> StorageTier:
        """Map a decomposition level to its tier: ``min(level, T-1)``."""
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        return self.tiers[min(level, self.num_tiers - 1)]
