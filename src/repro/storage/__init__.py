"""Simulated local ephemeral storage substrate.

Block devices with a proportional-weight fluid-flow scheduler (the cgroup
blkio stand-in), cgroup resource control, an extent-based filesystem
layer, storage tiers, and staging of decomposed datasets onto tiers.
"""

from repro.storage.blkio import StreamDemand, compute_rates
from repro.storage.device import BlockDevice, DeviceSpec, IOStats, DEVICE_PRESETS
from repro.storage.cgroup import BlkioCgroup, CgroupController
from repro.storage.filesystem import Filesystem, FileObject
from repro.storage.tier import StorageTier, TieredStorage
from repro.storage.staging import (
    StagedDataset,
    TimeSeriesDataset,
    stage_dataset,
    stage_timeseries,
)
from repro.storage.stats import DeviceSample, DeviceSampler

__all__ = [
    "StreamDemand",
    "compute_rates",
    "BlockDevice",
    "DeviceSpec",
    "IOStats",
    "DEVICE_PRESETS",
    "BlkioCgroup",
    "CgroupController",
    "Filesystem",
    "FileObject",
    "StorageTier",
    "TieredStorage",
    "StagedDataset",
    "stage_dataset",
    "TimeSeriesDataset",
    "stage_timeseries",
    "DeviceSample",
    "DeviceSampler",
]
