"""Tests for repro.storage.device — the fluid-flow block device."""

import pytest

from repro.simkernel import Timeout
from repro.storage.device import DEVICE_PRESETS, BlockDevice, DeviceSpec, IOStats
from repro.util.units import GiB, mb_per_s, mb_to_bytes


def run_reads(sim, device, jobs):
    """Submit (cgroup, mb, direction) jobs at t=0; return {idx: IOStats}."""
    results = {}

    def waiter(idx, ev):
        stats = yield ev
        results[idx] = stats

    for idx, (cg, mb, direction) in enumerate(jobs):
        ev = device.submit(cg, int(mb_to_bytes(mb)), direction)
        sim.process(waiter(idx, ev))
    sim.run()
    return results


class TestSingleStream:
    def test_exact_duration(self, sim, device, cgroups):
        cg = cgroups.create("a")
        res = run_reads(sim, device, [(cg, 1000, "read")])
        assert res[0].elapsed == pytest.approx(5.0)  # 1000 MB at 200 MB/s

    def test_effective_bandwidth(self, sim, device, cgroups):
        cg = cgroups.create("a")
        res = run_reads(sim, device, [(cg, 500, "read")])
        assert res[0].effective_bandwidth == pytest.approx(mb_per_s(200))

    def test_zero_byte_request_completes_instantly(self, sim, device, cgroups):
        cg = cgroups.create("a")
        res = run_reads(sim, device, [(cg, 0, "read")])
        assert res[0].nbytes == 0 and res[0].elapsed == 0.0

    def test_write_direction(self, sim, device, cgroups):
        cg = cgroups.create("a")
        res = run_reads(sim, device, [(cg, 400, "write")])
        assert res[0].elapsed == pytest.approx(2.0)

    def test_bytes_moved_accounting(self, sim, device, cgroups):
        cg = cgroups.create("a")
        run_reads(sim, device, [(cg, 100, "read"), (cg, 50, "write")])
        assert device.bytes_moved["read"] == pytest.approx(mb_to_bytes(100))
        assert device.bytes_moved["write"] == pytest.approx(mb_to_bytes(50))


class TestSharing:
    def test_equal_weights_finish_together(self, sim, device, cgroups):
        a, b = cgroups.create("a"), cgroups.create("b")
        res = run_reads(sim, device, [(a, 1000, "read"), (b, 1000, "read")])
        assert res[0].elapsed == pytest.approx(10.0)
        assert res[1].elapsed == pytest.approx(10.0)

    def test_weight_2_to_1(self, sim, device, cgroups):
        """The paper's 133/67 example, as completion times."""
        a = cgroups.create("a", 200)
        b = cgroups.create("b", 100)
        res = run_reads(sim, device, [(a, 1000, "read"), (b, 1000, "read")])
        assert res[0].elapsed == pytest.approx(7.5)
        assert res[1].elapsed == pytest.approx(10.0)

    def test_surviving_stream_gets_full_bandwidth(self, sim, device, cgroups):
        a, b = cgroups.create("a"), cgroups.create("b")
        res = run_reads(sim, device, [(a, 200, "read"), (b, 1000, "read")])
        # a: 200 MB at 100 MB/s = 2 s.  b: 200 MB by then, 800 MB at 200 -> 6 s.
        assert res[0].elapsed == pytest.approx(2.0)
        assert res[1].elapsed == pytest.approx(6.0)

    def test_midflight_weight_change(self, sim, device, cgroups):
        a, b = cgroups.create("a"), cgroups.create("b")
        results = {}

        def waiter(idx, ev):
            stats = yield ev
            results[idx] = stats

        def bumper():
            yield Timeout(5.0)
            a.set_blkio_weight(300, now=sim.now)

        sim.process(waiter(0, device.submit(a, int(mb_to_bytes(1000)), "read")))
        sim.process(waiter(1, device.submit(b, int(mb_to_bytes(1000)), "read")))
        sim.process(bumper())
        sim.run()
        assert results[0].elapsed == pytest.approx(8.0 + 1 / 3)
        assert results[1].elapsed == pytest.approx(10.0)

    def test_late_joiner_shares(self, sim, device, cgroups):
        a, b = cgroups.create("a"), cgroups.create("b")
        results = {}

        def waiter(idx, ev):
            stats = yield ev
            results[idx] = stats

        def late():
            yield Timeout(2.0)
            stats = yield device.submit(b, int(mb_to_bytes(400)), "read")
            results["late"] = stats

        sim.process(waiter(0, device.submit(a, int(mb_to_bytes(800)), "read")))
        sim.process(late())
        sim.run()
        # a: 400 MB alone (2 s), then shares: 400 left at 100 -> finishes t=6.
        assert results[0].elapsed == pytest.approx(6.0)
        # late: 400 MB at 100 MB/s while sharing -> 4 s.
        assert results["late"].elapsed == pytest.approx(4.0)


class TestSeekLatency:
    def test_extents_add_latency(self, sim, cgroups):
        spec = DeviceSpec(
            "seeky", read_bw=mb_per_s(200), write_bw=mb_per_s(200),
            seek_time=0.01, capacity=GiB,
        )
        device = BlockDevice(sim, spec)
        cg = cgroups.create("a")
        results = {}

        def waiter(idx, ev):
            stats = yield ev
            results[idx] = stats

        sim.process(waiter(0, device.submit(cg, int(mb_to_bytes(200)), "read", extents=10)))
        sim.run()
        assert results[0].elapsed == pytest.approx(1.0 + 0.1)

    def test_latency_excluded_from_service_time(self, sim, cgroups):
        spec = DeviceSpec(
            "seeky", read_bw=mb_per_s(200), write_bw=mb_per_s(200),
            seek_time=0.05, capacity=GiB,
        )
        device = BlockDevice(sim, spec)
        cg = cgroups.create("a")
        results = {}

        def waiter(ev):
            stats = yield ev
            results["s"] = stats

        sim.process(waiter(device.submit(cg, int(mb_to_bytes(100)), "read", extents=2)))
        sim.run()
        s = results["s"]
        assert s.service_time == pytest.approx(0.5)
        assert s.elapsed == pytest.approx(0.6)


class TestDegradationModels:
    def test_concurrency_thrash(self, sim, cgroups):
        spec = DeviceSpec(
            "hdd", read_bw=mb_per_s(200), write_bw=mb_per_s(200),
            seek_time=0.0, capacity=GiB, concurrency_thrash=0.25,
        )
        device = BlockDevice(sim, spec)
        a, b = cgroups.create("a"), cgroups.create("b")
        res = run_reads(sim, device, [(a, 400, "read"), (b, 400, "read")])
        # eff(2) = 1/1.25 = 0.8 -> each at 80 MB/s -> 5 s.
        assert res[0].elapsed == pytest.approx(5.0)

    def test_efficiency_formula(self):
        spec = DEVICE_PRESETS["seagate-hdd-2t"]
        assert spec.efficiency(1) == 1.0
        assert spec.efficiency(2) == pytest.approx(1 / (1 + spec.concurrency_thrash))

    def test_mixed_penalty_only_when_mixed(self, sim, cgroups):
        spec = DeviceSpec(
            "hdd", read_bw=mb_per_s(200), write_bw=mb_per_s(200),
            seek_time=0.0, capacity=GiB, mixed_penalty=1.0,
        )
        device = BlockDevice(sim, spec)
        a, b = cgroups.create("a"), cgroups.create("b")
        # Two reads: no penalty, 400 MB each at 100 -> 4 s.
        res = run_reads(sim, device, [(a, 400, "read"), (b, 400, "read")])
        assert res[0].elapsed == pytest.approx(4.0)

    def test_mixed_penalty_applied(self, sim, cgroups):
        spec = DeviceSpec(
            "hdd", read_bw=mb_per_s(200), write_bw=mb_per_s(200),
            seek_time=0.0, capacity=GiB, mixed_penalty=1.0,
        )
        device = BlockDevice(sim, spec)
        a, b = cgroups.create("a"), cgroups.create("b")
        res = run_reads(sim, device, [(a, 400, "read"), (b, 400, "write")])
        # Mixed: capacity halves -> each 50 MB/s -> 8 s.
        assert res[0].elapsed == pytest.approx(8.0)

    def test_write_floor_resists_high_weight(self, sim, cgroups):
        spec = DeviceSpec(
            "hdd", read_bw=mb_per_s(200), write_bw=mb_per_s(200),
            seek_time=0.0, capacity=GiB, write_floor_bps=mb_per_s(40),
        )
        device = BlockDevice(sim, spec)
        reader = cgroups.create("r", 1000)
        writer = cgroups.create("w", 100)
        res = run_reads(sim, device, [(writer, 200, "write"), (reader, 2000, "read")])
        # Writer: 40 floor + (160 remaining * 100/1100) = ~54.5 MB/s.
        assert res[0].elapsed <= 200 / 40 + 1e-6
        assert res[0].elapsed == pytest.approx(200 / (40 + 160 * 100 / 1100), rel=1e-3)

    def test_writeback_weight_overrides_cgroup(self, sim, cgroups):
        spec = DeviceSpec(
            "hdd", read_bw=mb_per_s(200), write_bw=mb_per_s(200),
            seek_time=0.0, capacity=GiB, writeback_weight=100.0,
        )
        device = BlockDevice(sim, spec)
        writer = cgroups.create("w", 1000)  # high cgroup weight, ignored
        reader = cgroups.create("r", 100)
        res = run_reads(sim, device, [(writer, 1000, "write"), (reader, 1000, "read")])
        # Both effectively weight 100 -> both finish at 10 s.
        assert res[0].elapsed == pytest.approx(10.0)
        assert res[1].elapsed == pytest.approx(10.0)


class TestValidation:
    def test_negative_bytes(self, device, cgroups):
        with pytest.raises(ValueError):
            device.submit(cgroups.create("a"), -1)

    def test_bad_direction(self, device, cgroups):
        with pytest.raises(ValueError):
            device.submit(cgroups.create("a"), 10, "append")

    def test_bad_extents(self, device, cgroups):
        with pytest.raises(ValueError):
            device.submit(cgroups.create("a"), 10, "read", extents=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", read_bw=0, write_bw=1, seek_time=0, capacity=1)
        with pytest.raises(ValueError):
            DeviceSpec("x", read_bw=1, write_bw=1, seek_time=-1, capacity=1)
        with pytest.raises(ValueError):
            DeviceSpec("x", read_bw=1, write_bw=1, seek_time=0, capacity=1,
                       concurrency_thrash=-0.5)

    def test_removed_fast_path_option_rejected(self, sim):
        """One device path: the reference path is a test-only oracle."""
        with pytest.raises(TypeError):
            BlockDevice(sim, DEVICE_PRESETS["seagate-hdd-2t"], fast_path=False)


class TestPresets:
    def test_all_presets_valid(self):
        for name, spec in DEVICE_PRESETS.items():
            assert spec.name == name
            assert spec.read_bw > 0 and spec.capacity > 0

    def test_ssd_has_no_thrash(self):
        assert DEVICE_PRESETS["intel-ssd-400"].concurrency_thrash == 0.0

    def test_hdd_slower_than_ssd(self):
        assert (
            DEVICE_PRESETS["seagate-hdd-2t"].read_bw
            < DEVICE_PRESETS["intel-ssd-400"].read_bw
        )


class TestIOStats:
    def test_elapsed_vs_service(self):
        s = IOStats(nbytes=100, submitted_at=1.0, started_at=2.0, finished_at=5.0)
        assert s.elapsed == 4.0 and s.service_time == 3.0

    def test_effective_bandwidth_zero_elapsed(self):
        s = IOStats(nbytes=100, submitted_at=1.0, started_at=1.0, finished_at=1.0)
        assert s.effective_bandwidth == float("inf")
