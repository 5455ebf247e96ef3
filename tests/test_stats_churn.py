"""Tests for the device sampler and the churn workload."""

import pytest

from repro.containers import ContainerRuntime
from repro.storage.stats import DeviceSampler
from repro.storage.tier import TieredStorage
from repro.util.units import mb_per_s, mb_to_bytes
from repro.workloads.churn import ChurnSpec, launch_churn


class TestDeviceSampler:
    def test_samples_on_cadence(self, sim, device, cgroups):
        sampler = DeviceSampler(sim, device, interval=1.0).start()
        device.submit(cgroups.create("a"), int(mb_to_bytes(400)), "read")
        sim.run(until=5.0)
        assert len(sampler.samples) == 6  # t = 0..5

    def test_rates_observed_during_io(self, sim, device, cgroups):
        sampler = DeviceSampler(sim, device, interval=0.5).start()
        device.submit(cgroups.create("a"), int(mb_to_bytes(400)), "read")
        sim.run(until=3.0)
        mid = [s for s in sampler.samples if 0.5 <= s.time <= 1.5]
        assert all(s.read_rate == pytest.approx(mb_per_s(200)) for s in mid)
        # After completion (t=2) the device is idle.
        tail = [s for s in sampler.samples if s.time > 2.25]
        assert all(s.total_rate == 0.0 for s in tail)

    def test_busy_fraction_and_peak(self, sim, device, cgroups):
        sampler = DeviceSampler(sim, device, interval=1.0).start()
        device.submit(cgroups.create("a"), int(mb_to_bytes(200)), "read")
        device.submit(cgroups.create("b"), int(mb_to_bytes(200)), "write")
        sim.run(until=10.0)
        assert 0.0 < sampler.busy_fraction() < 1.0
        assert sampler.peak_concurrency() == 2

    def test_double_start_rejected(self, sim, device):
        sampler = DeviceSampler(sim, device).start()
        with pytest.raises(RuntimeError):
            sampler.start()

    def test_utilisation(self, sim, device, cgroups):
        sampler = DeviceSampler(sim, device, interval=1.0).start()
        device.submit(cgroups.create("a"), int(mb_to_bytes(1000)), "read")
        sim.run(until=3.0)
        util = sampler.utilisation(mb_per_s(200))
        assert util.max() == pytest.approx(1.0)

    def test_ticks_land_exactly_on_grid(self, sim, device):
        """Regression: tick N must land at exactly N * interval.

        0.1 is not representable in binary; accumulating it with
        repeated ``schedule(interval)`` drifts off the ``n * 0.1`` grid
        within tens of ticks, so ticks meant to coincide with other
        periodic events (weight changes, controller steps) stop sharing
        their timestamp.  The fused ``tick_time`` form keeps every tick
        bit-identical to ``n * interval``.
        """
        sampler = DeviceSampler(sim, device, interval=0.1).start()
        sim.run(until=100.0)
        times = [s.time for s in sampler.samples]
        assert len(times) == 1001
        for n, t in enumerate(times):
            assert t == n * 0.1  # exact, not approx

    def test_restart_reanchors_tick_grid(self, sim, device):
        sampler = DeviceSampler(sim, device, interval=0.25).start()
        sim.run(until=1.0)
        sampler.stop()
        sim.run(until=3.1415)
        sampler.start()
        sim.run(until=4.0)
        restarted = [s.time for s in sampler.samples if s.time >= 3.0]
        # Ticks resume on a fresh grid anchored at the restart instant.
        assert restarted[0] == 3.1415
        for n, t in enumerate(restarted):
            assert t == 3.1415 + n * 0.25


class TestChurn:
    def test_population_changes(self, sim):
        storage = TieredStorage.two_tier_testbed(sim)
        runtime = ContainerRuntime(sim)
        counts = []
        spec = ChurnSpec(arrival_rate=1 / 60.0, mean_lifetime=300.0)
        launch_churn(runtime, storage.slowest, spec, seed=0,
                     on_population_change=counts.append)
        sim.run(until=3600.0)
        assert counts, "jobs must arrive within an hour at 1/60 s^-1"
        assert max(counts) >= 1
        assert 0 in counts or counts[-1] >= 0  # departures happen too

    def test_jobs_write_checkpoints(self, sim):
        storage = TieredStorage.two_tier_testbed(sim)
        runtime = ContainerRuntime(sim)
        launch_churn(
            runtime,
            storage.slowest,
            ChurnSpec(arrival_rate=1 / 30.0, mean_lifetime=600.0),
            seed=1,
        )
        sim.run(until=2400.0)
        assert storage.slowest.device.bytes_moved["write"] > 0

    def test_max_concurrent_respected(self, sim):
        storage = TieredStorage.two_tier_testbed(sim)
        runtime = ContainerRuntime(sim)
        counts = []
        spec = ChurnSpec(arrival_rate=1 / 5.0, mean_lifetime=10_000.0, max_concurrent=3)
        launch_churn(runtime, storage.slowest, spec, seed=0,
                     on_population_change=counts.append)
        sim.run(until=600.0)
        assert max(counts) <= 3

    def test_departed_jobs_clean_up(self, sim):
        storage = TieredStorage.two_tier_testbed(sim)
        runtime = ContainerRuntime(sim)
        spec = ChurnSpec(arrival_rate=1 / 20.0, mean_lifetime=60.0)
        launch_churn(runtime, storage.slowest, spec, seed=2)
        sim.run(until=2000.0)
        # Space from departed jobs' checkpoints is reclaimed: usage stays
        # bounded by the concurrent population, not total arrivals.
        used = storage.slowest.filesystem.used_bytes
        assert used <= spec.max_concurrent * spec.size_range[1]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChurnSpec(arrival_rate=0)
        with pytest.raises(ValueError):
            ChurnSpec(period_range=(100.0, 50.0))
        with pytest.raises(ValueError):
            ChurnSpec(max_concurrent=0)

    def test_driver_interruptible(self, sim):
        storage = TieredStorage.two_tier_testbed(sim)
        runtime = ContainerRuntime(sim)
        proc = launch_churn(runtime, storage.slowest, ChurnSpec(), seed=0)
        sim.run(until=100.0)
        if proc.is_alive:
            proc.interrupt("end of experiment")
        sim.run(until=101.0)
        assert not proc.is_alive


class TestDeviceSamplerStop:
    """Regression: the sampler discarded its schedule handle, so _tick
    rescheduled forever and idle rows padded ``samples`` after the
    workload finished, skewing busy_fraction()/utilisation()."""

    def test_stop_cancels_pending_tick(self, sim, device, cgroups):
        sampler = DeviceSampler(sim, device, interval=1.0).start()
        device.submit(cgroups.create("a"), int(mb_to_bytes(200)), "read")
        sim.run(until=1.0)  # 200 MB at 200 MB/s finishes exactly at t=1
        sampler.stop()
        n = len(sampler.samples)
        assert not sampler.is_running
        sim.run(until=60.0)
        assert len(sampler.samples) == n  # no idle padding
        assert sim.pending_count == 0

    def test_busy_fraction_not_diluted_after_stop(self, sim, device, cgroups):
        device.submit(cgroups.create("a"), int(mb_to_bytes(200)), "read")
        sim.run(until=0.0)  # start the stream so the t=0 sample sees it
        sampler = DeviceSampler(sim, device, interval=0.25).start()
        sim.run(until=0.9)
        sampler.stop()
        busy_at_stop = sampler.busy_fraction()
        sim.run(until=120.0)
        assert sampler.busy_fraction() == busy_at_stop == 1.0

    def test_restart_after_stop(self, sim, device, cgroups):
        sampler = DeviceSampler(sim, device, interval=1.0).start()
        sim.run(until=2.0)
        sampler.stop()
        n = len(sampler.samples)
        sampler.start()
        sim.run(until=4.0)
        assert sampler.is_running
        assert len(sampler.samples) > n

    def test_stop_before_start_is_noop(self, sim, device):
        DeviceSampler(sim, device).stop()  # must not raise

    def test_scenario_teardown_stops_sampler(self):
        """run_scenario's sampler never records beyond the run."""
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import run_scenario
        from repro.obs import OBS

        OBS.reset()
        OBS.enable()
        try:
            result = run_scenario(ScenarioConfig(max_steps=3, seed=0))
        finally:
            OBS.disable()
            OBS.reset()
        assert result.device_samples
        assert all(s.time <= result.final_time for s in result.device_samples)
