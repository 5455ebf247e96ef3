"""Tests for the device fast path: SoA demands, memo, in-place re-rating.

The optimized path must be *bit-identical* to the test-only
:class:`~tests.blkio_oracle.ReferenceBlockDevice` (the pre-optimisation
cost model: validated ``StreamDemand`` rebuilds on every reschedule,
dict-based reference solver).  The property test drives both devices
through identical randomized op sequences —
submits, waits, weight changes, throttles, speed degradation — and
compares every completion record with ``==``, not ``approx``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import OBS
from repro.simkernel import Simulation, Timeout
from repro.storage.cgroup import CgroupController
from repro.storage.device import DEVICE_PRESETS, BlockDevice
from repro.util.units import mb_per_s, mb_to_bytes
from tests.blkio_oracle import ReferenceBlockDevice
from tests.scalar_oracle import ScalarSimulation

N_CGROUPS = 4


def _run_script(ops, device_cls=BlockDevice, sim_cls=Simulation):
    """Execute one op script; returns (completions, bytes_moved, end_time).

    ``ops`` is a list of tuples: ``("submit", cg, mb, dir, extents)``,
    ``("wait", seconds)``, ``("weight", cg, w)``,
    ``("throttle", cg, dir, bps_or_None)``, ``("speed", factor)``.
    """
    sim = sim_cls()
    device = device_cls(sim, DEVICE_PRESETS["seagate-hdd-2t"])
    groups = CgroupController()
    cgs = [groups.create(f"g{i}") for i in range(N_CGROUPS)]
    completions = {}

    def waiter(idx, ev):
        stats = yield ev
        completions[idx] = (
            stats.nbytes,
            stats.submitted_at,
            stats.started_at,
            stats.finished_at,
        )

    def driver():
        for idx, op in enumerate(ops):
            kind = op[0]
            if kind == "submit":
                _, cg, mb, direction, extents = op
                ev = device.submit(
                    cgs[cg], int(mb_to_bytes(mb)), direction, extents=extents
                )
                sim.process(waiter(idx, ev))
            elif kind == "wait":
                yield Timeout(op[1])
            elif kind == "weight":
                cgs[op[1]].set_blkio_weight(op[2], now=sim.now)
            elif kind == "throttle":
                cgs[op[1]].set_throttle(device, op[2], op[3])
            else:  # speed
                device.set_speed_factor(op[1])

    sim.process(driver())
    sim.run()
    return (
        completions,
        (device.bytes_moved["read"], device.bytes_moved["write"]),
        sim.now,
    )


_op = st.one_of(
    st.tuples(
        st.just("submit"),
        st.integers(0, N_CGROUPS - 1),
        st.integers(1, 40),
        st.sampled_from(["read", "write"]),
        st.integers(1, 3),
    ),
    st.tuples(st.just("wait"), st.floats(0.01, 2.0, allow_nan=False)),
    st.tuples(st.just("weight"), st.integers(0, N_CGROUPS - 1), st.integers(100, 1000)),
    st.tuples(
        st.just("throttle"),
        st.integers(0, N_CGROUPS - 1),
        st.sampled_from(["read", "write"]),
        st.sampled_from([None, 5e6, 20e6, 80e6]),
    ),
    st.tuples(st.just("speed"), st.sampled_from([1.0, 0.5, 0.25])),
)


class TestFastReferenceParity:
    @given(ops=st.lists(_op, min_size=1, max_size=25))
    @settings(max_examples=30, deadline=None)
    def test_property_identical_histories(self, ops):
        """Every completion, byte counter, and the final clock match exactly
        across joins/leaves, weight/throttle churn, mixed directions, and
        speed-factor changes — the cache-invalidation sweep."""
        assert _run_script(ops) == _run_script(ops, ReferenceBlockDevice)

    def test_mixed_direction_transition_parity(self):
        """Crossing read-only -> mixed -> read-only changes the efficiency
        term (mixed_penalty); the memo must not survive the transition."""
        ops = [
            ("submit", 0, 30, "read", 1),
            ("wait", 0.5),
            ("submit", 1, 10, "write", 1),  # mixed regime while this runs
            ("wait", 0.5),
            ("submit", 2, 30, "read", 1),
        ]
        assert _run_script(ops) == _run_script(ops, ReferenceBlockDevice)

    def test_soa_crossover_parity_above_scalar_max(self):
        """40 concurrent streams crosses ``_SYNC_SCALAR_MAX`` (and the
        solver's scalar cutoffs), so the fully vectorised sync / horizon
        / waterfill branches run — they must match the object-per-stream
        reference path exactly, completions and byte counters included."""
        ops = [
            ("submit", i % N_CGROUPS, 5 + (i % 7), "read" if i % 3 else "write", 1)
            for i in range(40)
        ] + [
            ("wait", 2.0),
            ("weight", 0, 1000),
            ("throttle", 1, "read", 20e6),
            ("wait", 400.0),
        ]
        fast = _run_script(ops)
        assert fast == _run_script(ops, ReferenceBlockDevice)
        # Completion sanity: the horizon outlasts every stream.
        assert len(fast[0]) == 40

    def test_scalar_dispatch_parity(self):
        """Dispatch is orthogonal to the device path: the per-entry
        scalar oracle on the SoA fast path and on the reference path
        both reproduce the grouped-dispatch history exactly."""
        ops = [
            ("submit", 0, 30, "read", 1),
            ("submit", 1, 20, "write", 2),
            ("wait", 0.5),
            ("weight", 0, 900),
            ("submit", 2, 10, "read", 1),
            ("wait", 50.0),
        ]
        batched = _run_script(ops)
        assert batched == _run_script(ops, sim_cls=ScalarSimulation)
        assert batched == _run_script(ops, ReferenceBlockDevice, ScalarSimulation)


@pytest.fixture
def obs_on():
    OBS.reset()
    OBS.enable()
    yield
    OBS.disable()
    OBS.reset()


def _two_stream_setup(device_cls=BlockDevice):
    sim = Simulation()
    device = device_cls(sim, DEVICE_PRESETS["seagate-hdd-15k"])
    groups = CgroupController()
    a, b = groups.create("a"), groups.create("b")
    sink = []

    def waiter(ev):
        sink.append((yield ev))

    for cg in (a, b):
        sim.process(waiter(device.submit(cg, int(mb_to_bytes(2000)), "read")))
    sim.run(until=1.0)
    return sim, device, a, b


class TestAllocationCache:
    def test_same_value_weight_write_skips_solver(self, obs_on):
        """An epoch bump whose signature is unchanged must not re-solve."""
        sim, device, a, b = _two_stream_setup()
        calls = OBS.registry.counter("blkio.compute_rates.calls")
        before = calls.value()
        # Each write re-rates the device in place, so no run is needed
        # between the write and the check.
        a.set_blkio_weight(a.blkio_weight, now=sim.now)
        assert calls.value() == before
        a.set_blkio_weight(900, now=sim.now)
        assert calls.value() == before + 1

    @pytest.mark.parametrize(
        "device_cls",
        [BlockDevice, ReferenceBlockDevice],
        ids=["fast", "oracle"],
    )
    def test_reference_path_reschedules_per_change(self, obs_on, device_cls):
        """Both devices re-rate on every weight write: 5 writes, 5
        reschedules, with no simulated time passing."""
        sim, device, a, b = _two_stream_setup(device_cls)
        resched = OBS.registry.counter("device.reschedules")
        before = resched.value(device=device.name)
        for w in (200, 300, 400, 500, 600):
            a.set_blkio_weight(w, now=sim.now)
        assert resched.value(device=device.name) == before + 5

    def test_read_flushes_pending_recompute(self):
        """A same-timestamp reader must see post-change rates, not stale
        ones: the write re-rates the device before it returns."""
        sim, device, a, b = _two_stream_setup()
        assert device.instantaneous_rate(a) == device.instantaneous_rate(b)
        a.set_blkio_weight(300, now=sim.now)
        # No sim.run between the change and the read.
        assert device.instantaneous_rate(a) == pytest.approx(
            3 * device.instantaneous_rate(b)
        )
        read_rate, write_rate = device.rates_by_direction()
        assert read_rate == pytest.approx(
            device.instantaneous_rate(a) + device.instantaneous_rate(b)
        )
        assert write_rate == 0.0

    def test_speed_factor_invalidates_and_rescales(self):
        sim, device, a, b = _two_stream_setup()
        full = device.instantaneous_rate(a)
        device.set_speed_factor(0.5)
        assert device.instantaneous_rate(a) == pytest.approx(full / 2)

    def test_throttle_set_and_clear_invalidate(self):
        sim, device, a, b = _two_stream_setup()
        unthrottled = device.instantaneous_rate(a)
        a.set_throttle(device, "read", mb_per_s(10))
        assert device.instantaneous_rate(a) == pytest.approx(mb_per_s(10))
        a.set_throttle(device, "read", None)
        assert device.instantaneous_rate(a) == pytest.approx(unthrottled)

    def test_join_and_leave_invalidate(self):
        sim = Simulation()
        device = BlockDevice(sim, DEVICE_PRESETS["seagate-hdd-15k"])
        groups = CgroupController()
        a, b = groups.create("a"), groups.create("b")
        done = []

        def waiter(ev):
            done.append((yield ev))

        sim.process(waiter(device.submit(a, int(mb_to_bytes(1000)), "read")))
        sim.run(until=1.0)
        solo = device.instantaneous_rate(a)
        sim.process(waiter(device.submit(b, int(mb_to_bytes(10)), "read")))
        sim.run(until=1.1)
        assert device.instantaneous_rate(a) < solo  # join split the device
        sim.run(until=4.0)  # b's small request finishes and leaves
        assert len(done) == 1
        assert device.instantaneous_rate(a) > device.instantaneous_rate(b) == 0.0
        sim.run()
        assert device.instantaneous_rate(a) == 0.0  # all finished
        assert len(done) == 2


class TestCgroupRefcounts:
    def test_refcount_tracks_membership(self):
        sim = Simulation()
        device = BlockDevice(sim, DEVICE_PRESETS["seagate-hdd-15k"])
        groups = CgroupController()
        a = groups.create("a")
        for _ in range(2):
            device.submit(a, int(mb_to_bytes(100)), "read")
        sim.run(until=1.0)
        assert device._cgroup_refs == {a: 2}
        assert device in a._active_devices
        sim.run()
        assert device._cgroup_refs == {}
        assert device not in a._active_devices

    def test_unregistered_cgroup_change_is_inert(self):
        """After the last stream leaves, weight writes no longer reach the
        device (the O(1)-refcount replacement for the old O(k) scan): the
        write schedules nothing and reschedules nothing."""
        sim = Simulation()
        device = BlockDevice(sim, DEVICE_PRESETS["seagate-hdd-15k"])
        groups = CgroupController()
        a = groups.create("a")
        device.submit(a, int(mb_to_bytes(10)), "read")
        sim.run()
        reschedules = []
        device.reschedule = lambda: reschedules.append(sim.now)
        a.set_blkio_weight(500, now=sim.now)
        assert sim.pending_count == 0
        assert reschedules == []


class TestZeroByteFailureSemantics:
    """Satellite: zero-byte submits must not bypass injected failures."""

    @staticmethod
    def _submit_and_run(device, sim, cgroup, nbytes):
        out = {}

        def waiter(ev):
            try:
                out["ok"] = yield ev
            except IOError as exc:
                out["err"] = exc

        sim.process(waiter(device.submit(cgroup, nbytes, "read")))
        sim.run()
        return out

    def test_zero_byte_consumes_injected_failure(self):
        sim = Simulation()
        device = BlockDevice(sim, DEVICE_PRESETS["seagate-hdd-15k"])
        a = CgroupController().create("a")
        device.inject_failures(1)
        out = self._submit_and_run(device, sim, a, 0)
        assert "err" in out and "injected media error" in str(out["err"])
        assert device.pending_failures == 0
        # The failure was consumed: the next request proceeds normally.
        out2 = self._submit_and_run(device, sim, a, int(mb_to_bytes(10)))
        assert out2["ok"].nbytes == mb_to_bytes(10)

    def test_zero_byte_without_injection_succeeds_instantly(self):
        sim = Simulation()
        device = BlockDevice(sim, DEVICE_PRESETS["seagate-hdd-15k"])
        a = CgroupController().create("a")
        out = self._submit_and_run(device, sim, a, 0)
        assert out["ok"].nbytes == 0 and out["ok"].elapsed == 0.0

    def test_failure_charged_seek_latency(self):
        """The media error is only discovered after the seek phase."""
        sim = Simulation()
        spec = DEVICE_PRESETS["seagate-hdd-15k"]
        device = BlockDevice(sim, spec)
        a = CgroupController().create("a")
        device.inject_failures(1)
        self._submit_and_run(device, sim, a, int(mb_to_bytes(10)))
        assert sim.now == pytest.approx(spec.seek_time)


class TestDemandSignature:
    def test_floor_inputs_excluded_from_signature_safely(self):
        """Floors/peaks derive from (efficiency, dirs); a write joining a
        read workload must still pick up the write floor via the dirs term.
        Guarded here because the memo would silently mis-share rates if the
        signature ever dropped the direction tuple."""
        ops = [
            ("submit", 0, 20, "read", 1),
            ("wait", 0.2),
            ("submit", 1, 20, "write", 1),
            ("wait", 0.2),
            ("weight", 0, 1000),
        ]
        assert _run_script(ops) == _run_script(ops, ReferenceBlockDevice)

    def test_inf_throttle_roundtrip_in_signature(self):
        """Setting and clearing a throttle restores the original rates and
        the original signature (inf cap)."""
        sim, device, a, b = _two_stream_setup()
        before = device.instantaneous_rate(a)
        a.set_throttle(device, "read", mb_per_s(20))
        assert device.instantaneous_rate(a) == pytest.approx(mb_per_s(20))
        a.set_throttle(device, "read", None)
        after = device.instantaneous_rate(a)
        assert after == before
        assert math.isinf(a.throttle_bps(device, "read"))
