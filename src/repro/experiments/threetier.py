"""Three-tier extension experiment (the hierarchy of the paper's Fig. 3).

The paper evaluates on two tiers (SSD + HDD) but illustrates Tango on a
three-tier hierarchy.  A third tier pays off under **fast-tier capacity
pressure**: when the performance tier cannot hold the whole upper ladder,
the overflow spills onto the contended capacity tier.  Adding an NVMe
tier absorbs that overflow, so mid-accuracy retrievals dodge the
interference entirely.

This experiment constructs a node whose SSD only fits the base plus the
first augmentation bucket, stages with the capacity-aware planner, and
compares two-tier vs three-tier mean I/O time under the Table IV noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table
from repro.engine.memo import ladder_for_app
from repro.experiments.runner import run_scenario
from repro.apps import make_app
from repro.storage.device import DEVICE_PRESETS, DeviceSpec
from repro.storage.tier import TieredStorage

__all__ = ["ThreeTierResult", "run_threetier"]


@dataclass(frozen=True)
class ThreeTierRow:
    tiers: str
    mean_io_time: float
    std_io_time: float
    capacity_tier_buckets: int


@dataclass(frozen=True)
class ThreeTierResult:
    rows: tuple[ThreeTierRow, ...]

    def cell(self, tiers: str) -> ThreeTierRow:
        for r in self.rows:
            if r.tiers == tiers:
                return r
        raise KeyError(f"no row for {tiers!r}")

    def speedup(self) -> float:
        """Mean-I/O-time ratio two-tier / three-tier."""
        three = self.cell("three-tier").mean_io_time
        if three <= 0:
            return float("inf")
        return self.cell("two-tier").mean_io_time / three

    def format_rows(self) -> str:
        return format_table(
            ["Hierarchy", "Mean I/O (s)", "Std (s)", "Buckets on HDD"],
            [
                (r.tiers, f"{r.mean_io_time:.2f}", f"{r.std_io_time:.2f}",
                 r.capacity_tier_buckets)
                for r in self.rows
            ],
            title="Extension: third tier under fast-tier capacity pressure "
            "(cross-layer, NRMSE 0.005, p=10)",
        )


def _constrained_specs(ssd_capacity: int, nvme_capacity: int | None) -> list[DeviceSpec]:
    """Slowest-first spec list with capacity-constrained fast tiers."""
    hdd = DEVICE_PRESETS["seagate-hdd-2t"]
    ssd = replace(DEVICE_PRESETS["intel-ssd-400"], capacity=ssd_capacity)
    specs = [hdd, ssd]
    if nvme_capacity is not None:
        specs.append(replace(DEVICE_PRESETS["nvme-p4510"], capacity=nvme_capacity))
    return specs


def run_threetier(
    *,
    app: str = "xgc",
    replications: int = 2,
    max_steps: int = 50,
    seed: int = 0,
) -> ThreeTierResult:
    """Capacity-pressure comparison: two vs three tiers.

    The SSD is sized to hold the base + the loosest buckets only; the
    NVMe tier (when present) is sized to absorb the next bucket.  Staging
    uses the capacity-aware planner, so in the two-tier node the
    mid-accuracy bucket lands on the interfered HDD while in the
    three-tier node it stays fast.
    """
    cfg0 = ScenarioConfig(
        app=app,
        policy="cross-layer",
        decimation_ratio=256,
        # Three non-trivial rungs; the mandated mid rung (0.005) is the
        # one whose tier the third level of storage changes.
        error_bounds=(0.02, 0.005, 0.001),
        prescribed_bound=0.005,
        priority=10.0,
        max_steps=max_steps,
        seed=seed,
    )
    # Size the tiers from the actual ladder (scaled bytes).
    probe_app = make_app(app)
    _, ladder = ladder_for_app(
        probe_app,
        grid_shape=cfg0.grid_shape,
        decimation_ratio=cfg0.decimation_ratio,
        metric=cfg0.metric,
        error_bounds=cfg0.error_bounds,
        seed=seed,
    )
    scale = cfg0.size_scale
    sizes = [int(b.nbytes * scale) for b in ladder.buckets]
    base = int(ladder.base_nbytes * scale)
    # SSD: base + every bucket except the two largest; NVMe: the second
    # largest (the mid-accuracy bucket).  The largest always stays on HDD.
    ordered = sorted(range(len(sizes)), key=lambda i: sizes[i])
    largest, second = ordered[-1], ordered[-2]
    ssd_cap = base + sum(s for i, s in enumerate(sizes) if i not in (largest, second))
    ssd_cap = int(ssd_cap * 1.2) + 1024
    nvme_cap = int(sizes[second] * 1.2) + 1024

    rows = []
    for tiers, nvme in (("two-tier", None), ("three-tier", nvme_cap)):
        means, stds = [], []
        hdd_buckets = 0
        for rep in range(replications):
            cfg = cfg0.with_(seed=seed + rep)
            def factory(sim, n=nvme):
                return TieredStorage(sim, _constrained_specs(ssd_cap, n))
            res = run_scenario(cfg, storage_factory=factory, placement="capacity")
            means.append(res.mean_io_time)
            stds.append(res.std_io_time)
            hdd_buckets = sum(
                1
                for m in range(1, res.ladder.num_buckets + 1)
                if res.dataset.tier_of_bucket(m) is res.dataset.storage.slowest
                and res.ladder.bucket(m).cardinality > 0
            )
        rows.append(
            ThreeTierRow(
                tiers=tiers,
                mean_io_time=float(np.mean(means)),
                std_io_time=float(np.mean(stds)),
                capacity_tier_buckets=hdd_buckets,
            )
        )
    return ThreeTierResult(rows=tuple(rows))
