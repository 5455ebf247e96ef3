"""Dispatch parity: epoch-grouped dispatch vs the scalar oracle.

The event loop groups consecutive ready entries bound to the same
batchable handler on the same receiver and hands the group to the
registered batch form (``batch_dispatch``) in one call; the test-only
:class:`~tests.scalar_oracle.ScalarSimulation` runs one Python callback
per entry.  The contract is *observational identity*: same traces, same
clocks, same event counts, same observability values.  These tests
drive that contract with seeded randomized workloads, plus pinned unit
tests for the grouped-start path and the aggregated per-epoch obs
accounting.
"""

import random

import pytest

from repro.obs import OBS
from repro.simkernel import Simulation, Timeout
from repro.storage.cgroup import CgroupController
from repro.storage.device import DEVICE_PRESETS, BlockDevice
from repro.util.units import MiB
from tests.blkio_oracle import ReferenceBlockDevice
from tests.scalar_oracle import ScalarSimulation


def _run_workload(
    sim_cls,
    *,
    seed=0,
    n_streams=12,
    horizon=12.0,
    device_cls=BlockDevice,
):
    """One seeded random mixed workload; returns the full observable trace.

    The RNG drives both the static setup (sizes, directions, weights) and
    the in-simulation churn, so any divergence in execution order between
    the two dispatchers would desynchronise the stream and corrupt the trace.
    """
    rng = random.Random(seed)
    sizes = [rng.randrange(1, 9) * MiB for _ in range(n_streams)]
    dirs = [rng.choice(["read", "write"]) for _ in range(n_streams)]
    weights = [rng.randrange(1, 10) * 100 for _ in range(n_streams)]
    sim = sim_cls()
    device = device_cls(sim, DEVICE_PRESETS["seagate-hdd-2t"])
    groups = CgroupController()
    cgroups = [groups.create(f"w{i}", weight=weights[i]) for i in range(n_streams)]
    trace = []

    def worker(idx):
        while True:
            stats = yield device.submit(cgroups[idx], sizes[idx], dirs[idx])
            trace.append((idx, sim.now, stats.started_at, stats.nbytes))

    for idx in range(n_streams):
        sim.process(worker(idx))

    def churn():
        while True:
            yield Timeout(0.5)
            g = rng.randrange(n_streams)
            cgroups[g].set_blkio_weight(rng.randrange(1, 10) * 100, now=sim.now)

    sim.process(churn())
    sim.run(until=horizon)
    return trace, sim.events_executed, sim.now, dict(device.bytes_moved)


class TestDispatchParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_traces_identical_across_modes(self, seed):
        """Grouped dispatch replays the scalar oracle's exact history:
        completion trace, event count, clock, byte counters."""
        assert _run_workload(Simulation, seed=seed) == _run_workload(
            ScalarSimulation, seed=seed
        )

    def test_reference_device_path_parity(self):
        """Batched dispatch is also identical on the pre-optimisation
        device path (the test-only ReferenceBlockDevice): grouping is a
        kernel property, not a fast-path one."""
        assert _run_workload(Simulation, device_cls=ReferenceBlockDevice) == _run_workload(
            ScalarSimulation, device_cls=ReferenceBlockDevice
        )


class TestGroupedStarts:
    def _fan_out(self, sim_cls, n=32):
        sim = sim_cls()
        device = BlockDevice(sim, DEVICE_PRESETS["seagate-hdd-2t"])
        groups = CgroupController()
        done = []

        def waiter(ev):
            done.append((yield ev).finished_at)

        for i in range(n):
            cg = groups.create(f"g{i}", weight=500)
            sim.process(waiter(device.submit(cg, 4 * MiB, "read")))
        sim.run()
        return done, sim.now, sim.kernel_stats()

    def test_same_instant_starts_group_and_match_scalar(self):
        """32 identical submits share one start epoch: batched dispatch
        collapses them into a single ``_start_streams_batch`` call (one
        rate solve), with results identical to 32 scalar callbacks."""
        b_done, b_now, b_stats = self._fan_out(Simulation)
        s_done, s_now, s_stats = self._fan_out(ScalarSimulation)
        assert b_done == s_done
        assert b_now == s_now
        assert b_stats["executed"] == s_stats["executed"]
        assert b_stats["group_calls"] >= 1
        assert b_stats["grouped_events"] >= 32
        assert s_stats["group_calls"] == 0
        assert s_stats["grouped_events"] == 0


class TestObsAggregationParity:
    """The per-epoch aggregated obs accounting in ``_complete_finished``
    (one counter inc per (device, direction) per epoch) must produce the
    same final values as per-completion increments would."""

    def _run_with_obs(self, device_cls, sim_cls):
        OBS.reset()
        OBS.enable()
        try:
            sim = sim_cls()
            device = device_cls(sim, DEVICE_PRESETS["seagate-hdd-2t"])
            groups = CgroupController()
            expected = {"read": [0, 0], "write": [0, 0]}

            def waiter(ev, direction, nbytes):
                yield ev
                expected[direction][0] += 1
                expected[direction][1] += nbytes

            for i in range(24):
                cg = groups.create(f"g{i}", weight=100 + (i % 9) * 100)
                direction = "read" if i % 3 else "write"
                nbytes = (1 + i % 5) * MiB
                sim.process(waiter(device.submit(cg, nbytes, direction), direction, nbytes))
            sim.run()
            reg = OBS.registry
            comp = reg.counter("device.completions")
            nbytes_c = reg.counter("device.bytes_completed")
            hist = reg.histogram("device.service_time")
            observed = {}
            for d in ("read", "write"):
                labels = {"device": device.name, "direction": d}
                observed[d] = (
                    comp.value(**labels),
                    nbytes_c.value(**labels),
                    hist.count(**labels),
                    hist.sum(**labels),
                )
            return expected, observed
        finally:
            OBS.disable()
            OBS.reset()

    def test_final_counter_and_histogram_values_unchanged(self):
        runs = {
            mode: self._run_with_obs(device_cls, sim_cls)
            for mode, (device_cls, sim_cls) in {
                "fast-batched": (BlockDevice, Simulation),
                "fast-scalar": (BlockDevice, ScalarSimulation),
                "reference-scalar": (ReferenceBlockDevice, ScalarSimulation),
            }.items()
        }
        expected, observed = runs["fast-batched"]
        for d in ("read", "write"):
            count, nbytes = expected[d]
            assert observed[d][0] == count
            assert observed[d][1] == nbytes
            assert observed[d][2] == count  # one histogram sample per completion
        # All three execution modes land on identical obs values.
        assert runs["fast-batched"][1] == runs["fast-scalar"][1]
        assert runs["fast-scalar"][1] == runs["reference-scalar"][1]
