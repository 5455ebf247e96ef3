"""Staging decomposed datasets onto the tier hierarchy (Fig. 3, step ①).

Before an analytics job starts, its decomposed representation is staged to
local ephemeral storage: the base goes to the fastest tier, each
augmentation bucket to the tier of its level ``ST^{L(ε_m)}``.  Staging
allocates contiguous files (the shuffle-and-tag layout), so reads during
analysis touch few extents.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.error_control import AccuracyLadder
from repro.simkernel import Event
from repro.storage.cgroup import BlkioCgroup
from repro.storage.tier import StorageTier, TieredStorage
from repro.util.validation import lookup

__all__ = [
    "PLACEMENTS",
    "StagedDataset",
    "stage_dataset",
    "TimeSeriesDataset",
    "stage_timeseries",
]


@dataclass
class StagedDataset:
    """A ladder staged onto tiers, with read helpers for the analytics loop.

    ``size_scale`` maps logical (in-memory) bytes to staged bytes: the
    paper's datasets are ~60–95 M mesh points (hundreds of MB per step),
    while the reproduction's grids are laptop-sized.  Scaling the *staged*
    sizes — not the arithmetic — preserves the I/O-contention regime the
    evaluation exercises without inflating compute.
    """

    name: str
    ladder: AccuracyLadder
    storage: TieredStorage
    base_tier: StorageTier
    bucket_tiers: tuple[StorageTier, ...]
    size_scale: float = 1.0

    @property
    def base_filename(self) -> str:
        return f"{self.name}/base"

    def bucket_filename(self, m: int) -> str:
        return f"{self.name}/aug-eps{m}"

    def tier_of_bucket(self, m: int) -> StorageTier:
        if not 1 <= m <= len(self.bucket_tiers):
            raise IndexError(
                f"bucket index must be in [1, {len(self.bucket_tiers)}], got {m}"
            )
        return self.bucket_tiers[m - 1]

    def read_base(self, cgroup: BlkioCgroup) -> Event:
        """Retrieve the base representation ``R`` (Algorithm 1, line 1)."""
        return self.base_tier.filesystem.read(cgroup, self.base_filename)

    def read_bucket(self, m: int, cgroup: BlkioCgroup) -> Event:
        """Retrieve ``Aug_{ε_m}`` from ``ST^{L(ε_m)}`` (Algorithm 1, line 11)."""
        tier = self.tier_of_bucket(m)
        return tier.filesystem.read(cgroup, self.bucket_filename(m))

    def scaled(self, logical_bytes: int) -> int:
        """Staged size of a logical object, at least one byte when non-empty."""
        if logical_bytes <= 0:
            return 0
        return max(1, int(round(logical_bytes * self.size_scale)))

    @property
    def total_staged_bytes(self) -> int:
        total = self.scaled(self.ladder.base_nbytes)
        total += sum(self.scaled(b.nbytes) for b in self.ladder.buckets)
        return total

    def assemble_payload(self, upto: int) -> bytes:
        """Reassemble the bytes physically staged for base + rungs 1..upto.

        Only valid for datasets staged with ``materialize=True``.  The
        result is a prefix of the serialized ladder and loads with
        :func:`repro.core.serialize.unpack_partial` — the consumer-side
        proof that the staged layout and the format line up.
        """
        parts = [self.base_tier.filesystem.read_content(self.base_filename)]
        for m in range(1, upto + 1):
            tier = self.tier_of_bucket(m)
            parts.append(tier.filesystem.read_content(self.bucket_filename(m)))
        return b"".join(parts)

    def staging_workload(self, cgroup: BlkioCgroup):
        """Generator simulating the staging phase itself (Fig. 3, step ①).

        The paper stages decomposed data to local ephemeral storage before
        the job starts; this coroutine issues those writes (base first,
        then buckets in retrieval order) so the staging cost can be
        measured.  Yields device events; returns {object: seconds}.
        """
        durations: dict[str, float] = {}
        sim = self.storage.sim
        t0 = sim.now
        yield self.base_tier.filesystem.overwrite(cgroup, self.base_filename)
        durations["base"] = sim.now - t0
        for m, tier in enumerate(self.bucket_tiers, start=1):
            t0 = sim.now
            yield tier.filesystem.overwrite(cgroup, self.bucket_filename(m))
            durations[f"aug-eps{m}"] = sim.now - t0
        return durations

    def unstage(self) -> None:
        """Delete every staged file (the ephemeral-storage erase on job exit)."""
        self.base_tier.filesystem.delete(self.base_filename)
        for m, tier in enumerate(self.bucket_tiers, start=1):
            fname = self.bucket_filename(m)
            if fname in tier.filesystem:
                tier.filesystem.delete(fname)


@dataclass
class TimeSeriesDataset:
    """A sequence of staged per-timestep datasets.

    The paper's analytics "repetitively retrieve and analyze data" over
    hundreds to thousands of timesteps, each with its own decomposed
    output.  ``for_step(t)`` returns step ``t``'s staged dataset (cycling
    when the analysis outlives the staged window, as a bounded staging
    area would).
    """

    steps: tuple[StagedDataset, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("at least one staged timestep is required")

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def storage(self) -> TieredStorage:
        return self.steps[0].storage

    @property
    def ladder(self) -> AccuracyLadder:
        """The reference ladder (step 0) used for planning."""
        return self.steps[0].ladder

    def for_step(self, t: int) -> StagedDataset:
        return self.steps[t % len(self.steps)]

    @property
    def total_staged_bytes(self) -> int:
        return sum(ds.total_staged_bytes for ds in self.steps)

    def unstage(self) -> None:
        for ds in self.steps:
            ds.unstage()


def stage_timeseries(
    name: str,
    ladders: list[AccuracyLadder],
    storage: TieredStorage,
    *,
    size_scale: float = 1.0,
    placement: str = "level",
) -> TimeSeriesDataset:
    """Stage one dataset per timestep ladder (names ``<name>/t<i>``)."""
    if not ladders:
        raise ValueError("at least one ladder is required")
    return TimeSeriesDataset(
        steps=tuple(
            stage_dataset(
                f"{name}/t{i}", lad, storage, size_scale=size_scale, placement=placement
            )
            for i, lad in enumerate(ladders)
        )
    )


def _place_by_level(
    ladder: AccuracyLadder, storage: TieredStorage, scale: float
) -> tuple[StorageTier, tuple[StorageTier, ...]]:
    """The paper's ``ST^{L(ε_m)}`` mapping (bucket level → tier index)."""
    base_tier = storage.fastest
    bucket_tiers = tuple(
        storage.tier_for_level(b.finest_level, ladder.decomposition.num_levels)
        for b in ladder.buckets
    )
    return base_tier, bucket_tiers


def _place_by_capacity(
    ladder: AccuracyLadder, storage: TieredStorage, scale: float
) -> tuple[StorageTier, tuple[StorageTier, ...]]:
    """The capacity-aware greedy planner
    (:func:`repro.core.placement.plan_placement`): base first on the
    fastest tier with room, buckets fill progressively slower tiers."""
    from repro.core.placement import plan_placement

    # The planner thinks fastest-first in *scaled* bytes; feed it the
    # tiers reversed and scaled capacities, then map indices back.
    fastest_first = list(reversed(storage.tiers))
    capacities = [t.filesystem.free_bytes for t in fastest_first]
    # Plan in scaled space by shrinking capacities instead of
    # re-scaling the ladder (the ladder's sizes are logical).
    plan = plan_placement(ladder, [int(c / scale) for c in capacities])
    base_tier = fastest_first[plan.base_tier]
    bucket_tiers = tuple(fastest_first[t] for t in plan.bucket_tiers)
    return base_tier, bucket_tiers


#: Staging placement strategies:
#: ``strategy(ladder, storage, scale) -> (base_tier, bucket_tiers)``.
PLACEMENTS = {"level": _place_by_level, "capacity": _place_by_capacity}


def stage_dataset(
    name: str,
    ladder: AccuracyLadder,
    storage: TieredStorage,
    *,
    size_scale: float = 1.0,
    placement: str = "level",
    materialize: bool = False,
) -> StagedDataset:
    """Allocate the base + bucket files on their tiers.

    Allocation is instantaneous (staging happens before the job's clock
    starts); zero-cardinality buckets still get a minimal metadata file so
    the retrieval path is uniform.  ``size_scale`` inflates staged file
    sizes to the paper's dataset scale (see :class:`StagedDataset`).

    ``materialize=True`` attaches the *actual serialized bytes* to every
    staged object (header+base on the fast tier, each bucket's record
    range on its own tier), so a consumer can reassemble what it
    physically retrieved into a valid
    :func:`repro.core.serialize.unpack_partial` payload — see
    :meth:`StagedDataset.assemble_payload`.

    ``placement`` names a strategy from :data:`PLACEMENTS`: ``"level"``
    (the paper's mapping) or ``"capacity"`` (for when the performance
    tiers cannot hold their level-mapped share).
    """
    if size_scale <= 0:
        raise ValueError(f"size_scale must be > 0, got {size_scale}")

    scale = float(size_scale)
    base_tier, bucket_tiers = lookup("placement", PLACEMENTS, placement)(ladder, storage, scale)

    ds = StagedDataset(
        name=name,
        ladder=ladder,
        storage=storage,
        base_tier=base_tier,
        bucket_tiers=bucket_tiers,
        size_scale=scale,
    )
    base_content = None
    bucket_contents: list[bytes | None] = [None] * ladder.num_buckets
    if materialize:
        from repro.core.serialize import RECORD_SIZE, pack_ladder, payload_size_through

        payload = pack_ladder(ladder)
        head = payload_size_through(ladder, 0)
        base_content = payload[:head]
        record = RECORD_SIZE
        for bkt in ladder.buckets:
            lo = head + bkt.start * record
            hi = head + bkt.stop * record
            bucket_contents[bkt.index - 1] = payload[lo:hi]

    base_tier.filesystem.allocate(
        ds.base_filename,
        ds.scaled(ladder.base_nbytes),
        contiguous=True,
        content=base_content,
    )
    for bkt, tier in zip(ladder.buckets, ds.bucket_tiers):
        size = max(ds.scaled(bkt.nbytes), 1)
        tier.filesystem.allocate(
            ds.bucket_filename(bkt.index),
            size,
            contiguous=True,
            content=bucket_contents[bkt.index - 1],
        )
    return ds
