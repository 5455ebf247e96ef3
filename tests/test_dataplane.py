"""Tests for the programmable QoS data plane (repro.dataplane).

Covers the policy objects (validation, the anchor-based token bucket and
its conservation/drift properties), the scenario config axes, and
end-to-end behaviour on small simulations: zero-overhead FIFO path,
one-shot weight enforcement, token-bucket shaping, priority admission
control (``max_inflight``), SLO scoring, composition with fault
campaigns, and a drained plane leaving no reference cycles behind.
"""

import gc
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataplane import DataPlane, QosPolicy, SloTarget, TokenBucket
from repro.engine.session import ScenarioSession
from repro.engine.sweep import SweepExecutor
from repro.experiments.config import ScenarioConfig
from repro.simkernel import Simulation, tick_time
from repro.storage.cgroup import CgroupController
from repro.storage.device import BlockDevice
from repro.util.units import mb_per_s, mb_to_bytes


def run_jobs(sim, device, jobs):
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


# -- token bucket -----------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_admits_burst(self):
        b = TokenBucket(100.0, 10.0)
        assert b.level(0.0) == 100.0
        assert b.reserve(100.0, 0.0) == 0.0
        assert b.level(0.0) == 0.0

    def test_refill_clips_at_capacity(self):
        b = TokenBucket(100.0, 10.0)
        b.reserve(100.0, 0.0)
        assert b.level(5.0) == 50.0
        assert b.level(1000.0) == 100.0

    def test_deficit_admission_delay_is_exact(self):
        b = TokenBucket(100.0, 10.0)
        b.reserve(100.0, 0.0)
        # 30 bytes with 0 tokens at rate 10/s -> admitted at t=3.
        assert b.reserve(30.0, 0.0) == pytest.approx(3.0)
        # The anchor moved to t=3 with 0 tokens; level before it holds.
        assert b.level(1.0) == 0.0
        assert b.level(4.0) == pytest.approx(10.0)

    def test_fifo_queueing_behind_outstanding_reservation(self):
        b = TokenBucket(100.0, 10.0)
        b.reserve(100.0, 0.0)
        d1 = b.reserve(50.0, 0.0)
        d2 = b.reserve(50.0, 0.0)
        assert d1 == pytest.approx(5.0)
        assert d2 == pytest.approx(10.0)

    def test_zero_byte_reservation_is_free(self):
        b = TokenBucket(10.0, 1.0)
        assert b.reserve(0.0, 0.0) == 0.0
        assert b.level(0.0) == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0.0, "rate": 1.0},
            {"capacity": 10.0, "rate": 0.0},
            {"capacity": 10.0, "rate": 1.0, "tokens": -1.0},
            {"capacity": 10.0, "rate": 1.0, "tokens": 11.0},
        ],
    )
    def test_constructor_validation(self, kwargs):
        with pytest.raises(ValueError):
            TokenBucket(**kwargs)

    def test_negative_reserve_rejected(self):
        with pytest.raises(ValueError, match="nbytes must be >= 0"):
            TokenBucket(10.0, 1.0).reserve(-1.0, 0.0)


class TestTokenBucketProperties:
    """Hypothesis properties: the bucket's written-down invariants."""

    @given(
        reservations=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=50.0),  # dt to next submit
                st.floats(min_value=0.0, max_value=500.0),  # nbytes
            ),
            max_size=30,
        ),
        probes=st.lists(st.floats(min_value=0.0, max_value=2000.0), max_size=10),
    )
    @settings(max_examples=200, deadline=None)
    def test_level_never_negative_never_above_capacity(self, reservations, probes):
        b = TokenBucket(100.0, 7.0)
        now = 0.0
        for dt, nbytes in reservations:
            now += dt
            b.reserve(nbytes, now)
            for probe in probes:
                assert 0.0 <= b.level(probe) <= b.capacity

    @given(
        n_ticks=st.integers(min_value=1, max_value=10_000),
        period=st.floats(min_value=1e-6, max_value=1e3),
        reads_between=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_refill_is_drift_free_on_the_sim_clock(
        self, n_ticks, period, reads_between
    ):
        """Observing the level N times at tick instants changes nothing.

        An increment-per-observation bucket accumulates float error with
        every read; the anchor-based level is a pure function of (anchor,
        now), so after any number of intermediate reads the level at tick
        ``n`` is *bit-identical* to the closed-form value.
        """
        rate = 3.0
        b = TokenBucket(1e9, rate)
        b.reserve(1e9, 0.0)  # drain; anchor = (0.0, 0.0)
        for n in range(0, n_ticks, max(1, n_ticks // 10)):
            for k in range(reads_between):
                b.level(tick_time(0.0, n, period) / (k + 1))
            expected = min(b.capacity, rate * (tick_time(0.0, n, period) - 0.0))
            assert b.level(tick_time(0.0, n, period)) == expected

    @given(
        reservations=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=20.0),
                st.floats(min_value=0.0, max_value=400.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_fifo_ordering(self, reservations):
        """Admitted bytes never exceed burst + rate·window; FIFO holds."""
        capacity, rate = 150.0, 11.0
        b = TokenBucket(capacity, rate)
        now = 0.0
        total = 0.0
        last_admitted = 0.0
        for dt, nbytes in reservations:
            now += dt
            delay = b.reserve(nbytes, now)
            assert delay >= 0.0
            admitted_at = now + delay
            # FIFO: admission instants never go backwards.
            assert admitted_at >= last_admitted - 1e-9
            last_admitted = max(last_admitted, admitted_at)
            total += nbytes
            # Conservation over [0, admitted_at]: the bucket can have
            # released at most its initial burst plus the refill.
            assert total <= capacity + rate * admitted_at + 1e-6

    @given(
        tenants=st.integers(min_value=2, max_value=5),
        reservations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # tenant index
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=0.0, max_value=300.0),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_conservation_under_concurrent_tenants(self, tenants, reservations):
        """Per-tenant buckets are independent: interleaving submissions
        from other tenants never lets one tenant exceed its own budget."""
        capacity, rate = 120.0, 9.0
        buckets = [TokenBucket(capacity, rate) for _ in range(tenants)]
        totals = [0.0] * tenants
        horizons = [0.0] * tenants
        now = 0.0
        for idx, dt, nbytes in reservations:
            idx %= tenants
            now += dt
            delay = buckets[idx].reserve(nbytes, now)
            totals[idx] += nbytes
            horizons[idx] = max(horizons[idx], now + delay)
            assert totals[idx] <= capacity + rate * horizons[idx] + 1e-6


def _builtin_reserve(bucket, nbytes, now):
    """``TokenBucket.reserve`` written with the ``max``/``min`` builtins."""
    nbytes = float(nbytes)
    if nbytes < 0:
        raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
    start = max(now, bucket._anchor_time)
    lvl = min(
        bucket.capacity,
        bucket._anchor_tokens + bucket.rate * (start - bucket._anchor_time),
    )
    if lvl >= nbytes:
        bucket._anchor_time = start
        bucket._anchor_tokens = lvl - nbytes
        return start - now
    admitted_at = start + (nbytes - lvl) / bucket.rate
    bucket._anchor_time = admitted_at
    bucket._anchor_tokens = 0.0
    return admitted_at - now


_CAPACITY = 150.0

#: One call, ``(op, when, dt, value)``: ``when="anchor"`` calls at the
#: bucket's anchor instant, ``"after"`` ``dt`` after the previous call.
#: ``value`` is the reservation size (zero, exactly the capacity or
#: negative ones included) or, for ``set_rate``, sets the new rate.
_BUCKET_CALLS = st.tuples(
    st.sampled_from(["reserve", "set_rate"]),
    st.sampled_from(["after", "anchor"]),
    st.floats(min_value=0.0, max_value=40.0),
    st.one_of(
        st.just(0.0),
        st.just(_CAPACITY),
        st.floats(min_value=-5.0, max_value=400.0),
    ),
)


class TestReserveMatchesBuiltinForm:
    """``reserve`` picks ``max(now, anchor)`` and ``min(capacity, level)``
    with conditionals; over any call sequence it must return the delay
    and leave the anchor the builtin form does, bit for bit."""

    @given(
        calls=st.lists(_BUCKET_CALLS, max_size=40),
        rate=st.floats(min_value=0.5, max_value=50.0),
        tokens=st.one_of(st.just(_CAPACITY), st.floats(min_value=0.0, max_value=_CAPACITY)),
    )
    # At the anchor of a full bucket: now == anchor, the level is
    # exactly the capacity, and the request is zero bytes.
    @example(calls=[("reserve", "anchor", 0.0, 0.0)], rate=7.0, tokens=_CAPACITY)
    # Drain exactly, queue a deficit, then reserve zero bytes at the
    # anchor the deficit pushed into the future, and again past it.
    @example(
        calls=[
            ("reserve", "anchor", 0.0, _CAPACITY),
            ("reserve", "anchor", 0.0, 10.0),
            ("reserve", "anchor", 0.0, 0.0),
            ("reserve", "after", 30.0, 0.0),
        ],
        rate=7.0,
        tokens=_CAPACITY,
    )
    @settings(max_examples=300, deadline=None)
    def test_same_delay_and_anchor_as_the_builtins(self, calls, rate, tokens):
        real = TokenBucket(_CAPACITY, rate, tokens=tokens)
        ref = TokenBucket(_CAPACITY, rate, tokens=tokens)
        now = 0.0
        for op, when, dt, value in calls:
            now = real._anchor_time if when == "anchor" else now + dt
            if op == "set_rate":
                real.set_rate(abs(value) + 0.5, now)
                ref.set_rate(abs(value) + 0.5, now)
            elif value < 0:
                with pytest.raises(ValueError, match="nbytes must be >= 0"):
                    real.reserve(value, now)
                with pytest.raises(ValueError, match="nbytes must be >= 0"):
                    _builtin_reserve(ref, value, now)
            else:
                assert real.reserve(value, now) == _builtin_reserve(ref, value, now)
            assert real._anchor_time == ref._anchor_time
            assert real._anchor_tokens == ref._anchor_tokens


# -- policy objects ---------------------------------------------------------


class TestPolicyValidation:
    def test_empty_policy_is_valid(self):
        QosPolicy()

    def test_weight_uses_cgroup_rule(self):
        with pytest.raises(ValueError, match=r"blkio weight must be in \[100, 1000\]"):
            QosPolicy(weight=50)

    @pytest.mark.parametrize("field", ["read_cap_bps", "write_cap_bps", "rate_bps"])
    def test_caps_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"{field} must be > 0"):
            QosPolicy(**{field: -1.0})

    def test_burst_requires_rate(self):
        with pytest.raises(ValueError, match="burst_bytes requires rate_bps"):
            QosPolicy(burst_bytes=1024)

    def test_priority_class_checked(self):
        with pytest.raises(ValueError, match="priority must be one of"):
            QosPolicy(priority="urgent")

    def test_slo_type_checked(self):
        with pytest.raises(ValueError, match="slo must be a SloTarget"):
            QosPolicy(slo=("p99_latency", 1.0))

    def test_capacity_defaults_to_one_second_of_rate(self):
        assert QosPolicy(rate_bps=500.0).capacity_bytes == 500.0
        assert QosPolicy(rate_bps=500.0, burst_bytes=50).capacity_bytes == 50.0
        with pytest.raises(ValueError, match="no rate_bps"):
            QosPolicy().capacity_bytes

    def test_slo_target_validation(self):
        with pytest.raises(ValueError, match="slo kind must be one of"):
            SloTarget("p50_latency", 1.0)
        with pytest.raises(ValueError, match="slo value must be > 0"):
            SloTarget("p99_latency", 0.0)


# -- config axes ------------------------------------------------------------


class TestRegistriesAndConfig:
    def test_config_rejects_bad_policy_pairs(self):
        with pytest.raises(ValueError, match="qos_policies"):
            ScenarioConfig(qos_policies=(("prod",),))
        with pytest.raises(ValueError, match="QosPolicy"):
            ScenarioConfig(qos_policies=(("prod", {"weight": 100}),))
        with pytest.raises(ValueError, match="duplicate"):
            ScenarioConfig(
                qos_policies=(("prod", QosPolicy()), ("prod", QosPolicy()))
            )

    def test_config_rejects_bad_max_inflight(self):
        with pytest.raises(ValueError, match="max_inflight"):
            ScenarioConfig(max_inflight=0)

    def test_config_with_policies_pickles(self):
        """The sweep pool ships configs via pickle (spawn context)."""
        cfg = ScenarioConfig(
            max_steps=2,
            qos_policies=(
                ("prod", QosPolicy(priority="high", slo=SloTarget("p99_latency", 5.0))),
                ("batch", QosPolicy(rate_bps=mb_per_s(10))),
            ),
            max_inflight=4,
        )
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg
        assert dict(clone.qos_policies)["prod"].slo.value == 5.0


# -- end-to-end on a bare device --------------------------------------------


def make_plane(sim, device, policies=None, max_inflight=None):
    plane = DataPlane(sim, policies=policies, max_inflight=max_inflight)
    plane.attach(device)
    return plane


class TestDefaultPathIdentity:
    def test_no_policy_submit_matches_bare_device(self, simple_spec, cgroups):
        bare_sim = Simulation()
        bare = run_jobs(
            bare_sim,
            BlockDevice(bare_sim, simple_spec),
            [(cgroups.create("a"), 500, "read")],
        )

        plane_sim = Simulation()
        dev = BlockDevice(plane_sim, simple_spec)
        make_plane(plane_sim, dev)
        planed = run_jobs(plane_sim, dev, [(cgroups.create("b"), 500, "read")])

        assert planed[0] == bare[0]
        assert plane_sim.events_executed == bare_sim.events_executed

    def test_unshaped_request_returns_device_event_directly(
        self, sim, device, cgroups
    ):
        """FIFO + no delay: the caller gets the device event, no proxy."""
        plane = make_plane(sim, device)
        ev = device.submit(cgroups.create("a"), int(mb_to_bytes(10)), "read")
        sim.run()
        assert ev.ok and ev.value.nbytes == mb_to_bytes(10)
        assert plane.slo.trackers == {}  # no policy, no tracker

    def test_double_attach_to_other_plane_rejected(self, sim, device):
        make_plane(sim, device)
        with pytest.raises(RuntimeError, match="already attached"):
            DataPlane(sim).attach(device)


def test_drained_device_and_plane_leave_no_cyclic_garbage(simple_spec):
    """A drained device and its default plane are freed by reference
    counting alone: the device points at its plane, and nothing in the
    plane points back, so the cyclic collector finds nothing."""

    def drain():
        sim = Simulation()
        device = BlockDevice(sim, simple_spec)
        make_plane(sim, device)
        run_jobs(sim, device, [(CgroupController().create("a"), 10, "read")])

    gc.collect()
    gc.disable()
    try:
        drain()
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestEnforcement:
    def test_weight_written_once_then_controller_owns_it(
        self, sim, device, cgroups
    ):
        cg = cgroups.create("tenant-a")
        make_plane(sim, device, policies={"tenant-a": QosPolicy(weight=300)})
        run_jobs(sim, device, [(cg, 10, "read")])
        assert cg.blkio_weight == 300
        # A runtime controller adjusts the weight; the enforcer must not
        # fight it back on the next I/O.
        cg.set_blkio_weight(700, now=sim.now)
        run_jobs(sim, device, [(cg, 10, "read")])
        assert cg.blkio_weight == 700

    def test_caps_installed_per_device(self, sim, device, cgroups):
        cg = cgroups.create("capped")
        make_plane(
            sim,
            device,
            policies={"capped": QosPolicy(write_cap_bps=mb_per_s(50))},
        )
        res = run_jobs(sim, device, [(cg, 100, "write")])
        # 100 MB at min(200, 50) MB/s -> 2 s.
        assert res[0].elapsed == pytest.approx(2.0)
        assert cg.throttle_bps(device, "write") == mb_per_s(50)

    def test_token_shaping_paces_submissions(self, sim, device, cgroups):
        cg = cgroups.create("shaped")
        make_plane(
            sim,
            device,
            policies={
                "shaped": QosPolicy(
                    rate_bps=mb_per_s(10), burst_bytes=mb_to_bytes(10)
                )
            },
        )
        res = run_jobs(sim, device, [(cg, 10, "read")] * 3)
        # Burst admits the first instantly (10 MB at 200 MB/s = 0.05 s);
        # the next two wait 1 s and 2 s of refill, then run alone.
        assert res[0].elapsed == pytest.approx(0.05)
        assert res[1].elapsed == pytest.approx(1.05)
        assert res[2].elapsed == pytest.approx(2.05)

    def test_shaping_delay_counts_into_latency(self, sim, device, cgroups):
        """submitted_at is the original submission, not the release."""
        cg = cgroups.create("shaped")
        make_plane(
            sim,
            device,
            policies={"shaped": QosPolicy(rate_bps=mb_per_s(1))},
        )
        res = run_jobs(sim, device, [(cg, 10, "read")] * 2)
        assert res[1].submitted_at == 0.0
        assert res[1].started_at > 0.0

    def test_burst_within_budget_is_unshaped(self, sim, device, cgroups):
        cg = cgroups.create("bursty")
        make_plane(
            sim,
            device,
            policies={
                "bursty": QosPolicy(
                    rate_bps=mb_per_s(1), burst_bytes=mb_to_bytes(100)
                )
            },
        )
        res = run_jobs(sim, device, [(cg, 100, "read")])
        assert res[0].elapsed == pytest.approx(0.5)  # pure device time


class TestPriorityScheduling:
    def test_high_priority_jumps_the_queue(self, sim, device, cgroups):
        lo, mid, hi = (cgroups.create(n) for n in ("lo", "mid", "hi"))
        make_plane(
            sim,
            device,
            policies={
                "lo": QosPolicy(priority="low"),
                "hi": QosPolicy(priority="high"),
            },
            max_inflight=1,
        )
        res = run_jobs(
            sim,
            device,
            [(lo, 100, "read"), (mid, 10, "read"), (hi, 10, "read")],
        )
        # Slot 1 of 1 goes to the first arrival; when it frees, the
        # high-class request overtakes the earlier normal-class one.
        assert res[0].finished_at == pytest.approx(0.5)
        assert res[2].finished_at < res[1].finished_at
        assert res[2].finished_at == pytest.approx(0.55)
        assert res[1].finished_at == pytest.approx(0.60)

    def test_no_limit_degenerates_to_fifo(self, sim, device, cgroups):
        a, b = cgroups.create("a"), cgroups.create("b")
        make_plane(sim, device)
        res = run_jobs(sim, device, [(a, 100, "read"), (b, 100, "read")])
        # No max_inflight means FIFO dispatch: both share the device
        # immediately.
        assert res[0].elapsed == pytest.approx(1.0)
        assert res[1].elapsed == pytest.approx(1.0)

    def test_bad_max_inflight_rejected(self, sim):
        with pytest.raises(ValueError, match="max_inflight must be >= 1"):
            DataPlane(sim, max_inflight=0)


class TestSloScoring:
    def test_latency_violations_counted(self, sim, device, cgroups):
        cg = cgroups.create("prod")
        plane = make_plane(
            sim,
            device,
            policies={"prod": QosPolicy(slo=SloTarget("p99_latency", 0.001))},
        )
        run_jobs(sim, device, [(cg, 100, "read")] * 3)
        tracker = plane.slo.trackers["prod"]
        assert tracker.completions == 3
        assert tracker.violations == 3
        assert tracker.p99_latency() > 0.001

    def test_bandwidth_floor_scored(self, sim, device, cgroups):
        cg = cgroups.create("batch")
        plane = make_plane(
            sim,
            device,
            policies={"batch": QosPolicy(slo=SloTarget("bandwidth_floor", mb_per_s(500)))},
        )
        run_jobs(sim, device, [(cg, 100, "read")])
        # 200 MB/s effective < 500 MB/s floor -> violation.
        assert plane.slo.trackers["batch"].violations == 1
        report = plane.slo.report()
        assert report["batch"]["slo_kind"] == "bandwidth_floor"

    def test_failures_count_as_errors_not_violations(self, sim, device, cgroups):
        cg = cgroups.create("prod")
        plane = make_plane(
            sim,
            device,
            policies={"prod": QosPolicy(slo=SloTarget("p99_latency", 10.0))},
        )
        device.inject_failures(1)
        results = {}

        def waiter(ev):
            try:
                yield ev
            except IOError as exc:
                results["error"] = exc

        sim.process(waiter(device.submit(cg, int(mb_to_bytes(10)), "read")))
        sim.run()
        tracker = plane.slo.trackers["prod"]
        assert "error" in results
        assert tracker.errors == 1
        assert tracker.completions == 0 and tracker.violations == 0


# -- session / campaign composition -----------------------------------------


QOS_AXIS = (
    ("prod", QosPolicy(priority="high", slo=SloTarget("p99_latency", 5.0))),
    ("noise-6", QosPolicy(rate_bps=mb_per_s(20), priority="low")),
)


class TestSessionComposition:
    def test_session_routes_all_tiers_through_plane(self):
        session = ScenarioSession(ScenarioConfig(max_steps=2, qos_policies=QOS_AXIS))
        for tier in session.storage.tiers:
            assert tier.device.dataplane is session.dataplane
        assert dict(session.dataplane.policies)["prod"].priority == "high"

    def test_policies_compose_with_fault_campaigns(self):
        from repro.experiments.runner import run_scenario

        result = run_scenario(
            ScenarioConfig(
                max_steps=3,
                faults="error-bursts",
                qos_policies=QOS_AXIS,
                max_inflight=4,
                seed=1,
            )
        )
        assert len(result.records) > 0

    def test_sweep_over_policy_axis(self):
        """qos_policies is a sweepable config axis like any other."""
        configs = [
            ScenarioConfig(max_steps=2, seed=5),
            ScenarioConfig(max_steps=2, seed=5, qos_policies=QOS_AXIS),
        ]
        summaries = SweepExecutor(workers=1).run_scenarios(configs)
        assert len(summaries) == 2
        assert all(s is not None for s in summaries)
