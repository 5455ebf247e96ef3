"""Tests for repro.workloads — noise and the analytics driver."""

import numpy as np
import pytest

from repro.containers import ContainerRuntime
from repro.core.abplot import AugmentationBandwidthPlot
from repro.control import ControllerConfig, TangoController
from repro.core.controller import make_policy
from repro.core.error_control import ErrorMetric, build_ladder
from repro.core.refactor import decompose
from repro.simkernel import Simulation
from repro.storage.staging import stage_dataset
from repro.storage.tier import TieredStorage
from repro.util.units import MiB, mb_per_s, mb_to_bytes
from repro.workloads.analytics import AnalyticsDriver
from repro.workloads.noise import TABLE_IV_NOISE, NoiseSpec, launch_noise


@pytest.fixture
def storage(sim):
    return TieredStorage.two_tier_testbed(sim)


@pytest.fixture
def runtime(sim):
    return ContainerRuntime(sim)


class TestNoise:
    def test_table_iv_matches_paper(self):
        periods = [s.period for s in TABLE_IV_NOISE]
        sizes = [s.checkpoint_bytes // MiB for s in TABLE_IV_NOISE]
        assert periods == [200.0, 225.0, 360.0, 180.0, 150.0, 120.0]
        assert sizes == [768, 512, 512, 1024, 1024, 1024]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("x", period=0, checkpoint_bytes=1)
        with pytest.raises(ValueError):
            NoiseSpec("x", period=1, checkpoint_bytes=0)

    def test_launch_creates_containers(self, sim, runtime, storage):
        containers = launch_noise(runtime, storage.slowest, TABLE_IV_NOISE[:3], seed=0)
        assert len(containers) == 3
        assert runtime.names() == ["noise-1", "noise-2", "noise-3"]

    def test_checkpoints_written_periodically(self, sim, runtime, storage):
        spec = NoiseSpec("n", period=100.0, checkpoint_bytes=int(mb_to_bytes(70)))
        launch_noise(runtime, storage.slowest, [spec], seed=0, phase_jitter=0.0)
        sim.run(until=350.0)
        # Writes at ~0, 100, 200, 300 -> at least 3 full checkpoints.
        written = storage.slowest.device.bytes_moved["write"]
        assert written >= 3 * mb_to_bytes(70)

    def test_deterministic_given_seed(self, sim, runtime, storage):
        def total_written(seed):
            s = Simulation()
            st = TieredStorage.two_tier_testbed(s)
            rt = ContainerRuntime(s)
            launch_noise(rt, st.slowest, TABLE_IV_NOISE, seed=seed)
            s.run(until=1000.0)
            return st.slowest.device.bytes_moved["write"]

        assert total_written(5) == total_written(5)

    def test_phase_jitter_zero_aligns_start(self, sim, runtime, storage):
        spec = NoiseSpec("n", period=500.0, checkpoint_bytes=int(mb_to_bytes(70)))
        launch_noise(runtime, storage.slowest, [spec], seed=0, phase_jitter=0.0)
        sim.run(until=2.0)
        assert storage.slowest.device.bytes_moved["write"] > 0

    def test_interrupt_stops_noise(self, sim, runtime, storage):
        containers = launch_noise(runtime, storage.slowest, TABLE_IV_NOISE[:1], seed=0)
        sim.run(until=50.0)
        containers[0].stop()
        sim.run(until=51.0)
        assert not containers[0].is_running


def _make_driver(sim, storage, runtime, smooth_field, policy_name="cross-layer",
                 **driver_kwargs):
    from repro.engine.session import make_weight_function

    dec = decompose(smooth_field, 4)
    ladder = build_ladder(dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE)
    dataset = stage_dataset("job", ladder, storage, size_scale=1000.0)
    wf = make_weight_function(ladder) if policy_name in ("cross-layer", "storage-only") else None
    controller = TangoController(
        ladder,
        make_policy(policy_name, wf),
        AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120)),
        config=ControllerConfig(prescribed_bound=0.01, priority=10.0),
    )
    container = runtime.create("analytics")
    driver = AnalyticsDriver(container, dataset, controller, period=30.0,
                             max_steps=driver_kwargs.pop("max_steps", 5),
                             **driver_kwargs)
    container.attach(sim.process(driver.workload()))
    return driver, container


class TestAnalyticsDriver:
    def test_records_every_step(self, sim, storage, runtime, smooth_field):
        driver, _ = _make_driver(sim, storage, runtime, smooth_field, max_steps=5)
        sim.run(until=1000.0)
        assert len(driver.records) == 5
        assert [r.step for r in driver.records] == list(range(5))

    def test_steps_paced_by_period(self, sim, storage, runtime, smooth_field):
        driver, _ = _make_driver(sim, storage, runtime, smooth_field, max_steps=4)
        sim.run(until=1000.0)
        starts = [r.started_at for r in driver.records]
        for a, b in zip(starts, starts[1:]):
            assert b - a >= 30.0 - 1e-9

    def test_weights_applied_to_cgroup(self, sim, storage, runtime, smooth_field):
        driver, container = _make_driver(sim, storage, runtime, smooth_field, max_steps=3)
        sim.run(until=1000.0)
        applied = [w for r in driver.records for w in r.weights]
        assert applied, "cross-layer must apply weights"
        assert container.cgroup.weight_history, "adjustments must be recorded"

    def test_no_weights_for_app_only(self, sim, storage, runtime, smooth_field):
        driver, container = _make_driver(
            sim, storage, runtime, smooth_field, policy_name="app-only", max_steps=3
        )
        sim.run(until=1000.0)
        assert all(not r.weights for r in driver.records)
        assert container.blkio_weight == 100

    def test_probe_used_when_no_hdd_io(self, sim, storage, runtime, smooth_field):
        """Steps whose plan skips the capacity tier still measure it."""
        driver, _ = _make_driver(sim, storage, runtime, smooth_field, max_steps=5)
        sim.run(until=1000.0)
        for r in driver.records:
            assert r.measured_bw > 0

    def test_observe_feeds_controller(self, sim, storage, runtime, smooth_field):
        driver, _ = _make_driver(sim, storage, runtime, smooth_field, max_steps=5)
        sim.run(until=1000.0)
        assert len(driver.controller.history) == 5

    def test_mean_and_std(self, sim, storage, runtime, smooth_field):
        driver, _ = _make_driver(sim, storage, runtime, smooth_field, max_steps=5)
        sim.run(until=1000.0)
        times = driver.io_times()
        assert driver.mean_io_time == pytest.approx(np.mean(times))
        assert driver.io_time_std == pytest.approx(np.std(times))

    def test_no_records_raises(self, sim, storage, runtime, smooth_field):
        driver, _ = _make_driver(sim, storage, runtime, smooth_field, max_steps=5)
        with pytest.raises(RuntimeError):
            _ = driver.mean_io_time

    def test_restore_weight(self, sim, storage, runtime, smooth_field):
        driver, container = _make_driver(
            sim, storage, runtime, smooth_field, max_steps=3, restore_weight=100
        )
        sim.run(until=1000.0)
        assert container.blkio_weight == 100

    def test_validation(self, sim, storage, runtime, smooth_field):
        with pytest.raises(ValueError):
            _make_driver(sim, storage, runtime, smooth_field, max_steps=0)

    def test_latency_attribution(self, sim, storage, runtime, smooth_field):
        """base_time + bucket_times account for (almost) the whole step
        I/O time; probes are the only other contributor."""
        driver, _ = _make_driver(sim, storage, runtime, smooth_field, max_steps=4)
        sim.run(until=1000.0)
        for r in driver.records:
            assert len(r.bucket_times) == r.target_rung
            attributed = r.base_time + sum(r.bucket_times)
            assert attributed <= r.io_time + 1e-9
            if not r.probe_used:
                assert attributed == pytest.approx(r.io_time, rel=1e-6)

    def test_on_step_callback(self, sim, storage, runtime, smooth_field):
        seen = []
        driver, _ = _make_driver(
            sim, storage, runtime, smooth_field, max_steps=3, on_step=seen.append
        )
        sim.run(until=1000.0)
        assert len(seen) == 3
        assert seen == driver.records
