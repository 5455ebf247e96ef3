"""Tests for the three-tier extension and capacity-aware staging."""

import pytest

from repro.core.error_control import ErrorMetric, build_ladder
from repro.core.refactor import decompose
from repro.experiments.threetier import run_threetier
from repro.storage.device import DEVICE_PRESETS, DeviceSpec
from repro.storage.staging import stage_dataset
from repro.storage.tier import TieredStorage
from repro.util.units import mb_per_s


@pytest.fixture
def ladder(smooth_field):
    dec = decompose(smooth_field, 4)
    return build_ladder(dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE)


def _three_tier(sim):
    names = ("seagate-hdd-2t", "intel-ssd-400", "nvme-p4510")
    return TieredStorage(sim, [DEVICE_PRESETS[n] for n in names])


class TestThreeTierPreset:
    def test_ordering(self, sim):
        storage = _three_tier(sim)
        assert storage.num_tiers == 3
        assert storage.slowest.device.spec.kind == "hdd"
        assert storage.fastest.device.spec.name == "nvme-p4510"
        # Strictly faster toward the top of the hierarchy.
        bws = [t.device.spec.read_bw for t in storage.tiers]
        assert bws == sorted(bws)

    def test_level_mapping_uses_middle_tier(self, sim):
        storage = _three_tier(sim)
        assert storage.tier_for_level(0).index == 0
        assert storage.tier_for_level(1).index == 1
        assert storage.tier_for_level(2).index == 2
        assert storage.tier_for_level(7).index == 2


class TestCapacityStaging:
    def test_capacity_placement_spills_to_hdd(self, sim, ladder):
        """When the fast tier only holds the base, the buckets spill down."""
        tiny_ssd = DeviceSpec(
            "tiny-ssd",
            read_bw=mb_per_s(500),
            write_bw=mb_per_s(460),
            seek_time=0.0001,
            capacity=ladder.base_nbytes + 64,
            kind="ssd",
        )
        storage = TieredStorage(sim, [DEVICE_PRESETS["seagate-hdd-2t"], tiny_ssd])
        ds = stage_dataset("job", ladder, storage, placement="capacity")
        assert ds.base_tier is storage.fastest
        heavy = max(ladder.buckets, key=lambda b: b.cardinality)
        assert ds.tier_of_bucket(heavy.index) is storage.slowest

    def test_capacity_placement_prefers_fast(self, sim, ladder):
        """With ample room everything stays on the fastest tier."""
        storage = TieredStorage(
            sim, [DEVICE_PRESETS["seagate-hdd-2t"], DEVICE_PRESETS["intel-ssd-400"]]
        )
        ds = stage_dataset("job", ladder, storage, placement="capacity")
        assert ds.base_tier is storage.fastest
        for m in range(1, ladder.num_buckets + 1):
            assert ds.tier_of_bucket(m) is storage.fastest

    def test_unknown_placement_rejected(self, sim, ladder):
        storage = TieredStorage.two_tier_testbed(sim)
        with pytest.raises(ValueError, match="placement"):
            stage_dataset("job", ladder, storage, placement="random")


class TestThreeTierExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_threetier(replications=1, max_steps=25)

    def test_third_tier_reduces_hdd_buckets(self, result):
        assert (
            result.cell("three-tier").capacity_tier_buckets
            < result.cell("two-tier").capacity_tier_buckets
        )

    def test_third_tier_not_slower(self, result):
        assert result.speedup() >= 0.95

    def test_format(self, result):
        assert "three-tier" in result.format_rows()
