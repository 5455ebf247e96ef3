"""Fault-injection tests: media errors, retries, and driver resilience."""

import pytest

from repro.containers import ContainerRuntime
from repro.core.abplot import AugmentationBandwidthPlot
from repro.control import ControllerConfig, TangoController
from repro.core.controller import make_policy
from repro.core.error_control import ErrorMetric, build_ladder
from repro.core.refactor import decompose
from repro.storage.staging import stage_dataset
from repro.storage.tier import TieredStorage
from repro.util.units import mb_per_s, mb_to_bytes
from repro.workloads.analytics import AnalyticsDriver


class TestDeviceFailureInjection:
    def test_injected_failure_fails_event(self, sim, device, cgroups):
        device.inject_failures(1)
        cg = cgroups.create("a")
        caught = []

        def reader():
            try:
                yield device.submit(cg, int(mb_to_bytes(10)), "read")
            except IOError as e:
                caught.append(str(e))

        sim.process(reader())
        sim.run()
        assert caught and "injected" in caught[0]
        assert device.pending_failures == 0

    def test_failures_consume_in_order(self, sim, device, cgroups):
        device.inject_failures(1)
        cg = cgroups.create("a")
        outcomes = []

        def reader(tag):
            try:
                yield device.submit(cg, int(mb_to_bytes(10)), "read")
                outcomes.append((tag, "ok"))
            except IOError:
                outcomes.append((tag, "err"))

        sim.process(reader("first"))
        sim.process(reader("second"))
        sim.run()
        assert ("first", "err") in outcomes
        assert ("second", "ok") in outcomes

    def test_negative_count_rejected(self, device):
        with pytest.raises(ValueError):
            device.inject_failures(-1)

    def test_device_stays_healthy_after_failures(self, sim, device, cgroups):
        device.inject_failures(2)
        cg = cgroups.create("a")
        done = []

        def reader():
            for _ in range(3):
                try:
                    stats = yield device.submit(cg, int(mb_to_bytes(10)), "read")
                    done.append(stats)
                except IOError:
                    pass

        sim.process(reader())
        sim.run()
        assert len(done) == 1
        assert device.active_stream_count == 0


class TestDriverResilience:
    def _build(self, sim, smooth_field, max_steps=4):
        from repro.engine.session import make_weight_function

        storage = TieredStorage.two_tier_testbed(sim)
        runtime = ContainerRuntime(sim)
        dec = decompose(smooth_field, 4)
        ladder = build_ladder(dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE)
        dataset = stage_dataset("job", ladder, storage, size_scale=1000.0)
        controller = TangoController(
            ladder,
            make_policy("cross-layer", make_weight_function(ladder)),
            AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120)),
            config=ControllerConfig(prescribed_bound=0.001),
        )
        container = runtime.create("analytics")
        driver = AnalyticsDriver(container, dataset, controller, period=30.0,
                                 max_steps=max_steps)
        container.attach(sim.process(driver.workload()))
        return storage, driver

    def test_transient_error_retried(self, sim, smooth_field):
        """One failure costs a retry; the step still gets all its data."""
        storage, driver = self._build(sim, smooth_field)
        storage.slowest.device.inject_failures(1)
        sim.run(until=1000.0)
        assert len(driver.records) == 4
        assert sum(r.read_errors for r in driver.records) == 1
        # The retried step still retrieved the full plan's bytes.
        errored = next(r for r in driver.records if r.read_errors)
        clean = next(r for r in driver.records if not r.read_errors
                     and r.target_rung == errored.target_rung)
        assert errored.io_bytes == clean.io_bytes

    def test_persistent_error_skips_object(self, sim, smooth_field):
        """Two consecutive failures on the same object degrade the step
        instead of wedging the run."""
        storage, driver = self._build(sim, smooth_field)
        storage.slowest.device.inject_failures(2)
        sim.run(until=1000.0)
        assert len(driver.records) == 4
        errored = next(r for r in driver.records if r.read_errors >= 2)
        clean = max(driver.records, key=lambda r: r.io_bytes)
        assert errored.io_bytes < clean.io_bytes

    def test_run_completes_under_error_burst(self, sim, smooth_field):
        storage, driver = self._build(sim, smooth_field, max_steps=6)
        storage.slowest.device.inject_failures(5)
        sim.run(until=1000.0)
        assert len(driver.records) == 6
