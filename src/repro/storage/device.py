"""Block-device model with fluid-flow proportional sharing.

A :class:`BlockDevice` hosts concurrent I/O streams.  Whenever the stream
set, a weight, or a throttle changes, the device accrues every stream's
progress at the old rates, recomputes the allocation via
:func:`repro.storage.blkio.solve_rates_arrays`, and reschedules the next
completion.  Request setup cost (seeks) is charged up-front as a latency
phase of ``extents × seek_time`` before the stream joins the bandwidth
competition — this is what makes the paper's contiguous bucket layout
faster to retrieve than a fragmented one.

The reschedule path is the simulator's hottest loop, so it avoids
per-call rebuilding wherever the inputs allow (see "Vectorized epoch
execution" in ``docs/architecture.md``):

* per-stream numeric state lives in **persistent flat numpy arrays**
  (rate, remaining bytes, direction, effective weight, throttle cap —
  index-aligned with the stream list, capacity-doubled on growth, mask-
  compacted on completion), so progress accrual, the completion split,
  and the next-completion horizon are array passes instead of per-stream
  Python loops, and the solver consumes the arrays directly via
  :func:`~repro.storage.blkio.solve_rates_arrays` with zero per-call
  assembly;
* the solved rate vector is memoized on a demand signature (a bounded
  dict keyed on the array bytes), so a reschedule whose inputs did not
  change — or match any recently solved demand, e.g. membership
  oscillating while a stream restarts — skips the solver entirely;
* a cgroup weight/throttle change re-rates the device in place: it
  marks the weight/cap rows stale and reschedules at once, so every
  reader sees the new rates.  The rows are re-read off the cgroups only
  after such a change, and a write that leaves the demand signature
  unchanged (a weight written back to its current value) skips the
  solver;
* the event loop's grouped dispatch delivers a whole epoch of stream
  starts in one call (:meth:`_start_streams_batch`, registered via
  :func:`~repro.simkernel.batch_dispatch`): k same-instant submissions
  append k rows and trigger **one** solve, not k.  All of this is
  float-op-for-float-op identical to the per-stream path — the recorded
  stress fingerprints in ``tests/test_dataplane_guard.py`` hold under
  the per-entry dispatch oracle, and the test-only
  ``tests/blkio_oracle.py::ReferenceBlockDevice`` (per-change
  reschedules, dict-based solver) reproduces the pre-optimisation
  history.

Device presets approximate the paper's testbed: an Intel 400 GB SATA SSD
(fast tier) and a Seagate 2 TB 7200 RPM SAS HDD (capacity tier), plus the
Seagate 15 k RPM disk used in the Fig. 1 motivation experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np

from repro.obs import OBS
from repro.simkernel import Event, Simulation, batch_dispatch
from repro.storage.blkio import solve_rates_arrays
from repro.util.units import GiB, TiB, mb_per_s
from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.cgroup import BlkioCgroup

__all__ = ["DeviceSpec", "BlockDevice", "IOStats", "DEVICE_PRESETS"]

Direction = Literal["read", "write"]

#: Residual bytes below which a stream counts as complete (guards float drift).
_COMPLETION_EPS = 0.5

#: Initial SoA capacity (rows); doubled on demand, never shrunk.
_SOA_INITIAL = 16

#: Below this stream count the progress/horizon passes run as a Python
#: loop over the (list-converted) SoA rows: numpy's per-op dispatch
#: costs more than a short loop until the active set reaches a few
#: dozen.  Same expressions element for element, so the float results
#: are bit-identical either way.
_SYNC_SCALAR_MAX = 24

#: At or below this stream count, finishing rows are compacted out of
#: the SoA arrays by shifting the few surviving elements one by one:
#: seven boolean-mask indexing passes cost ~10 µs regardless of n,
#: which dominates lightly-loaded scenarios where most syncs see one
#: to five streams.  Scalar loads/stores copy float64 values exactly,
#: so the surviving rows are bit-identical to the masked path.
_COMPACT_SCALAR_MAX = 6

#: Solved-rate memo bound: the dict is cleared (not LRU-evicted) past
#: this size — signatures are cheap to recompute and real workloads
#: cycle through a small recurring demand set.
_SOLVE_MEMO_MAX = 1024


@dataclass(frozen=True)
class DeviceSpec:
    """Static hardware characteristics of a device.

    ``concurrency_thrash`` models the efficiency loss of rotational media
    serving several streams at once (the head alternates between stream
    positions, paying seeks every service quantum): with ``k`` active
    streams the device delivers ``1 / (1 + thrash·(k−1))`` of its peak.
    At 0.25 (HDD preset) three concurrent streams leave each ~22 % of
    peak — the ~75 % perceived-bandwidth drop of the paper's Fig. 1.
    SSDs have no moving head: thrash 0.
    """

    name: str
    read_bw: float
    write_bw: float
    seek_time: float
    capacity: int
    kind: Literal["ssd", "hdd"] = "hdd"
    concurrency_thrash: float = 0.0
    #: Extra efficiency penalty when reads and writes are in flight
    #: simultaneously (the head alternates between distant LBA regions and
    #: write settling; irrelevant for SSDs).  Effective capacity divides by
    #: ``1 + mixed_penalty``.
    mixed_penalty: float = 0.0
    #: cgroup-v1 buffered-writeback bypass: dirty pages are flushed by
    #: kernel writeback threads that are *not* charged to the writing
    #: container's cgroup, so blkio weights barely steer buffered writes.
    #: When set, write streams compete at this fixed system weight instead
    #: of their cgroup's.  ``None`` models direct I/O / cgroup-v2 writeback
    #: accounting (writes honour the cgroup weight).
    writeback_weight: float | None = None
    #: Guaranteed minimum rate per write stream (bytes/s): dirty-page
    #: pressure forces the kernel to keep flushing at some rate no matter
    #: how the blkio weights are set, so a reader cannot starve writers by
    #: raising its weight.  0 disables the floor.
    write_floor_bps: float = 0.0

    def __post_init__(self) -> None:
        check_positive("read_bw", self.read_bw)
        check_positive("write_bw", self.write_bw)
        check_non_negative("seek_time", self.seek_time)
        check_positive("capacity", self.capacity)
        check_non_negative("concurrency_thrash", self.concurrency_thrash)
        check_non_negative("mixed_penalty", self.mixed_penalty)
        if self.writeback_weight is not None:
            check_positive("writeback_weight", self.writeback_weight)
        check_non_negative("write_floor_bps", self.write_floor_bps)

    def peak(self, direction: Direction) -> float:
        return self.read_bw if direction == "read" else self.write_bw

    def efficiency(self, active_streams: int, *, mixed: bool = False) -> float:
        """Fraction of peak capacity available with ``k`` concurrent streams."""
        eff = 1.0
        if active_streams > 1:
            eff /= 1.0 + self.concurrency_thrash * (active_streams - 1)
        if mixed:
            eff /= 1.0 + self.mixed_penalty
        return eff


#: Approximations of the paper's testbed hardware.
DEVICE_PRESETS: dict[str, DeviceSpec] = {
    # Intel 400 GB SATA SSD (fast tier, Section IV-A).
    "intel-ssd-400": DeviceSpec(
        name="intel-ssd-400",
        read_bw=mb_per_s(500),
        write_bw=mb_per_s(460),
        seek_time=0.0001,
        capacity=400 * GiB,
        kind="ssd",
        concurrency_thrash=0.0,
    ),
    # Seagate 2 TB 7200 RPM SAS HDD (capacity tier, Section IV-A).  The
    # write bandwidth reflects effective ext4 checkpoint throughput
    # (journaling + metadata overhead), well below the platter's raw rate;
    # this reproduces the Fig. 7 regime where the shared disk oscillates
    # between ~20 and ~140 MB/s of available read bandwidth.
    "seagate-hdd-2t": DeviceSpec(
        name="seagate-hdd-2t",
        read_bw=mb_per_s(140),
        write_bw=mb_per_s(70),
        seek_time=0.008,
        capacity=2 * TiB,
        kind="hdd",
        concurrency_thrash=0.15,
        mixed_penalty=0.25,
        write_floor_bps=mb_per_s(10),
    ),
    # Intel P4510 NVMe SSD: the performance tier of the paper's Fig. 3
    # three-tier illustration (the three-tier extension experiment).
    "nvme-p4510": DeviceSpec(
        name="nvme-p4510",
        read_bw=mb_per_s(3000),
        write_bw=mb_per_s(2000),
        seek_time=0.00002,
        capacity=256 * GiB,
        kind="ssd",
    ),
    # Seagate 600 GB 15000 RPM SAS HDD (Fig. 1 motivation experiment).
    "seagate-hdd-15k": DeviceSpec(
        name="seagate-hdd-15k",
        read_bw=mb_per_s(200),
        write_bw=mb_per_s(190),
        seek_time=0.004,
        capacity=600 * GiB,
        kind="hdd",
        concurrency_thrash=0.25,
    ),
}


@dataclass(frozen=True)
class IOStats:
    """Completion record handed back through the request's event."""

    nbytes: int
    submitted_at: float
    started_at: float
    finished_at: float

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.submitted_at

    @property
    def service_time(self) -> float:
        return self.finished_at - self.started_at

    @property
    def effective_bandwidth(self) -> float:
        """Bytes/second including the latency phase."""
        if self.elapsed <= 0:
            return math.inf
        return self.nbytes / self.elapsed


@dataclass(slots=True)
class _Stream:
    """Per-stream identity and bookkeeping that stays in object form.

    The numeric hot state (remaining bytes, current rate, direction,
    effective weight, throttle cap) lives in the device's flat SoA
    arrays, index-aligned with the device's stream list.
    """

    key: int
    cgroup: "BlkioCgroup"
    direction: Direction
    nbytes: int
    submitted_at: float
    started_at: float
    event: Event


class BlockDevice:
    """A shared block device driven by the simulation clock."""

    def __init__(self, sim: Simulation, spec: DeviceSpec) -> None:
        self.sim = sim
        self.spec = spec
        self._streams: list[_Stream] = []
        #: Persistent SoA hot state, index-aligned with ``_streams``
        #: (rows [0:n] are live).  Grown by doubling, compacted in place
        #: when streams finish.
        self._soa_cap = _SOA_INITIAL
        self._arr_rate = np.zeros(_SOA_INITIAL)
        self._arr_rem = np.zeros(_SOA_INITIAL)
        self._arr_w = np.zeros(_SOA_INITIAL)
        self._arr_cap = np.zeros(_SOA_INITIAL)
        #: Direction-keyed solver rows that never go stale: unscaled peak
        #: (read_bw/write_bw) and absolute floor (0/write_floor_bps) — the
        #: solve scales the peaks by the current efficiency in one op.
        self._arr_pbase = np.zeros(_SOA_INITIAL)
        self._arr_floor = np.zeros(_SOA_INITIAL)
        self._arr_is_write = np.zeros(_SOA_INITIAL, dtype=bool)
        #: Count of live write rows (mixed-direction check in O(1)).
        self._n_write = 0
        #: True when a cgroup weight/throttle changed since the input
        #: rows were last (re)built — the next solve re-reads them.
        self._inputs_stale = False
        self._next_key = 0
        self._completion_handle = None
        self._speed_factor = 1.0
        #: The operator-requested health factor; differs from
        #: ``_speed_factor`` only while a stall pins the device (see
        #: :meth:`stall`).
        self._nominal_factor = 1.0
        self._stall_handle = None
        self._stall_until = 0.0
        self._pending_failures = 0
        #: Total bytes moved, by direction (for utilisation accounting).
        self.bytes_moved: dict[Direction, float] = {"read": 0.0, "write": 0.0}
        #: Simulated time progress was last accrued to.  Every mutation
        #: path syncs all streams to the same instant, so one device-level
        #: timestamp replaces per-stream ``last_update`` fields.
        self._last_sync = 0.0
        #: Active-stream count per cgroup: completions decide "last stream
        #: of this cgroup left" in O(1) instead of scanning every stream.
        self._cgroup_refs: dict["BlkioCgroup", int] = {}
        #: Streams split off by the last `_sync_progress` pass, awaiting
        #: their completion events (None when nothing finished), plus the
        #: residual bytes each carried at the completion instant.
        self._finished: list[_Stream] | None = None
        self._finished_res: list[float] | None = None
        #: Allocation-input generation counter: bumped whenever membership,
        #: a cgroup attribute, or the speed factor may have changed.
        self._demand_epoch = 0
        self._solved_epoch = -1
        self._solved_sig: tuple | None = None
        #: Last solved rate vector (list or float64 array, input order).
        self._solved_rates = []
        #: Bounded demand-signature -> rates memo (see module docstring).
        self._solve_memo: dict = {}
        self._obs_cache: tuple | None = None
        #: QoS data plane this device routes submissions through (set by
        #: :meth:`repro.dataplane.pipeline.DataPlane.attach`; None =
        #: direct submission, the legacy path).
        self.dataplane = None

    @property
    def speed_factor(self) -> float:
        """Runtime health multiplier on the device's peak rates (1.0 = nominal)."""
        return self._speed_factor

    def inject_failures(self, count: int) -> None:
        """Fail the next ``count`` submitted requests with :class:`IOError`.

        Deterministic fault injection for resilience testing: the failed
        request's event ``fail``s after its seek latency (a media error is
        only discovered once the head gets there).  Injection is a
        queue-level property: it consumes and fails *every* submitted
        request in order, including zero-byte requests that would
        otherwise complete without touching the medium.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._pending_failures += count

    @property
    def pending_failures(self) -> int:
        return self._pending_failures

    def set_speed_factor(self, factor: float) -> None:
        """Degrade (or restore) the device at runtime.

        Models media aging, SMR remapping storms, thermal throttling, or a
        failing drive: every stream's rate scales immediately — in-flight
        I/O is re-paced, the same way a real slowdown manifests.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"speed factor must be in (0, 1], got {factor!r}")
        self._nominal_factor = float(factor)
        if self.stalled:
            # The stall pins the effective factor; the new health level
            # takes over when the stall lifts.
            return
        self._speed_factor = self._nominal_factor
        self._demand_epoch += 1
        self.reschedule()

    @property
    def stalled(self) -> bool:
        """True while a :meth:`stall` is pinning the device."""
        return self._stall_handle is not None

    def stall(self, duration: float) -> None:
        """Freeze the device for ``duration`` simulated seconds.

        Models a firmware hiccup, an internal GC pause, or a bus reset:
        in-flight streams stop making progress (their rates collapse to a
        vanishing floor rather than exactly zero, so completion horizons
        stay finite) and recover automatically when the stall lifts.
        Overlapping stalls extend the outage rather than stacking.
        """
        check_positive("duration", duration)
        until = self.sim.now + duration
        if self._stall_handle is not None:
            if until <= self._stall_until:
                return
            self._stall_handle.cancel()
        else:
            # Entering the stall: pin the effective factor to a vanishing
            # floor (the nominal factor is restored by _unstall).
            self._speed_factor = 1e-9
            self._demand_epoch += 1
        self._stall_until = until
        self._stall_handle = self.sim.schedule_at(until, self._unstall)
        self.reschedule()

    def _unstall(self) -> None:
        self._stall_handle = None
        self._speed_factor = self._nominal_factor
        self._demand_epoch += 1
        self.reschedule()

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def active_stream_count(self) -> int:
        return len(self._streams)

    # -- request API -----------------------------------------------------

    def submit(
        self,
        cgroup: "BlkioCgroup",
        nbytes: int,
        direction: Direction = "read",
        *,
        extents: int = 1,
    ) -> Event:
        """Submit a request; the returned event succeeds with :class:`IOStats`.

        ``extents`` is the number of discontiguous runs the request touches
        on the medium: each run costs one ``seek_time`` before the stream
        joins bandwidth competition.  Zero-byte requests complete
        immediately without seeking — unless fault injection is armed, in
        which case they consume an injected failure like any other request
        (see :meth:`inject_failures`).

        When a :class:`~repro.dataplane.pipeline.DataPlane` is attached,
        the request routes through its enforce and schedule stages
        instead of reaching the medium directly; the FIFO scheduler hands
        unshaped requests straight back to :meth:`_submit_direct`,
        preserving the legacy event sequence.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if direction not in ("read", "write"):
            raise ValueError(f"direction must be 'read' or 'write', got {direction!r}")
        if extents < 1:
            raise ValueError(f"extents must be >= 1, got {extents}")
        plane = self.dataplane
        if plane is not None:
            return plane.submit(self, cgroup, nbytes, direction, extents)
        return self._submit_direct(cgroup, nbytes, direction, extents, self.sim.now)

    def _submit_direct(
        self,
        cgroup: "BlkioCgroup",
        nbytes: int,
        direction: Direction,
        extents: int,
        submitted: float,
    ) -> Event:
        """Inject a validated request into the device, bypassing any plane.

        ``submitted`` is the original submission timestamp: a data-plane
        scheduler that delayed the request passes the time the caller
        submitted it, so queueing/shaping delay counts into the
        completion's :attr:`IOStats.elapsed` (and thus into SLO latency).
        """
        ev = self.sim.event()
        latency = extents * self.spec.seek_time
        if self._pending_failures > 0:
            # Checked before the zero-byte shortcut: injected failures hit
            # every submitted request in order, empty ones included.
            self._pending_failures -= 1
            if OBS.enabled:
                self._device_obs()[7].inc(device=self.name, direction=direction)
            self.sim.schedule(
                latency, ev.fail, IOError(f"{self.name}: injected media error")
            )
            return ev
        if nbytes == 0:
            now = self.sim.now
            stats = IOStats(0, submitted, now, now)
            self.sim.schedule(0.0, ev.succeed, stats)
            return ev
        self.sim.schedule(latency, self._start_stream, cgroup, nbytes, direction, submitted, ev)
        return ev

    # -- engine ------------------------------------------------------------

    def _grow(self, need: int) -> None:
        cap = self._soa_cap
        while cap < need:
            cap *= 2
        for name in ("_arr_rate", "_arr_rem", "_arr_w", "_arr_cap", "_arr_pbase", "_arr_floor"):
            old = getattr(self, name)
            new = np.zeros(cap)
            new[: old.shape[0]] = old
            setattr(self, name, new)
        old = self._arr_is_write
        new = np.zeros(cap, dtype=bool)
        new[: old.shape[0]] = old
        self._arr_is_write = new
        self._soa_cap = cap

    def _add_stream(
        self,
        cgroup: "BlkioCgroup",
        nbytes: int,
        direction: Direction,
        submitted_at: float,
        ev: Event,
    ) -> None:
        """Append one stream (object row + SoA rows) without rescheduling."""
        key = self._next_key
        self._next_key += 1
        stream = _Stream(
            key=key,
            cgroup=cgroup,
            direction=direction,
            nbytes=nbytes,
            submitted_at=submitted_at,
            started_at=self.sim.now,
            event=ev,
        )
        n = len(self._streams)
        if n == self._soa_cap:
            self._grow(n + 1)
        self._streams.append(stream)
        is_write = direction == "write"
        spec = self.spec
        self._arr_rate[n] = 0.0
        self._arr_rem[n] = float(nbytes)
        self._arr_is_write[n] = is_write
        if is_write:
            self._n_write += 1
            writeback = spec.writeback_weight
            self._arr_w[n] = (
                writeback if writeback is not None else cgroup.blkio_weight
            )
            self._arr_pbase[n] = spec.write_bw
            self._arr_floor[n] = spec.write_floor_bps
        else:
            self._arr_w[n] = cgroup.blkio_weight
            self._arr_pbase[n] = spec.read_bw
            self._arr_floor[n] = 0.0
        self._arr_cap[n] = cgroup.throttle_bps(self, direction)
        refs = self._cgroup_refs
        count = refs.get(cgroup, 0)
        refs[cgroup] = count + 1
        if count == 0:
            cgroup._register_active_device(self)
        self._demand_epoch += 1

    def _start_stream(
        self,
        cgroup: "BlkioCgroup",
        nbytes: int,
        direction: Direction,
        submitted_at: float,
        ev: Event,
    ) -> None:
        self._add_stream(cgroup, nbytes, direction, submitted_at, ev)
        self.reschedule()

    def _start_streams_batch(self, entries) -> None:
        """Epoch-batched form of :meth:`_start_stream`.

        The event loop hands over every consecutive same-instant start
        for this device in one call; k rows are appended and a single
        reschedule solves once.  Observationally identical to k scalar
        starts: the intermediate solves the scalar path runs accrue no
        progress (dt = 0) and their rates are overwritten before any
        simulated time passes.
        """
        add = self._add_stream
        for entry in entries:
            add(*entry.args)
        self.reschedule()

    def _sync_progress(self) -> None:
        """Accrue progress since the last sync and partition out finishers.

        One array pass does the accrual (``min(rate·dt, remaining)`` per
        row), the per-direction ``bytes_moved`` accounting, and the
        completion split (``_finished``/``_finished_res`` hold the result
        for :meth:`_complete_finished`); finishing rows are mask-compacted
        out of the SoA arrays.  This runs on every reschedule — the
        hottest device path — and most calls find nothing finished.
        Float results are identical to the historical per-stream loop:
        the elementwise ops match expression for expression, and the
        ``bytes_moved`` accumulators advance in stream order from their
        running values (interleaved adds to two independent accumulators
        are exactly the per-direction subsequence sums).
        """
        now = self.sim.now
        dt = now - self._last_sync
        if dt <= 0:
            # Zero elapsed time moves zero bytes, and every surviving
            # stream had remaining > _COMPLETION_EPS after the previous
            # reschedule, so there is nothing to accrue or complete.
            self._finished = None
            return
        self._last_sync = now
        streams = self._streams
        n = len(streams)
        if n == 0:
            self._finished = None
            return
        bytes_moved = self.bytes_moved
        if n == 1:
            # Single-stream fast path: lightly-loaded scenarios spend most
            # syncs here, where even the length-1 slice/tolist round trip
            # below costs several times the arithmetic.  Expressions match
            # the scalar loop exactly, so the float results are identical.
            ri = self._arr_rem.item(0)
            moved = self._arr_rate.item(0) * dt
            if moved > ri:
                moved = ri
            ri -= moved
            s = streams[0]
            if s.direction == "write":
                bytes_moved["write"] += moved
            else:
                bytes_moved["read"] += moved
            if ri <= _COMPLETION_EPS:
                self._streams = []
                self._finished = [s]
                self._finished_res = [ri]
                self._n_write = 0
            else:
                self._arr_rem[0] = ri
                self._finished = None
            return
        rate = self._arr_rate[:n]
        rem = self._arr_rem[:n]
        isw = self._arr_is_write[:n]
        n_write = self._n_write
        if n <= _SYNC_SCALAR_MAX:
            acc_read = bytes_moved["read"]
            acc_write = bytes_moved["write"]
            n_fin = 0
            rem_l = []
            fin_l = []
            append = rem_l.append
            fappend = fin_l.append
            for r, ri, w in zip(rate.tolist(), rem.tolist(), isw.tolist()):
                moved = r * dt
                if moved > ri:
                    moved = ri
                ri -= moved
                append(ri)
                if w:
                    acc_write += moved
                else:
                    acc_read += moved
                if ri <= _COMPLETION_EPS:
                    fappend(True)
                    n_fin += 1
                else:
                    fappend(False)
            bytes_moved["read"] = acc_read
            bytes_moved["write"] = acc_write
            if n_fin == 0:
                rem[:] = rem_l
                self._finished = None
                return
            if n <= _COMPACT_SCALAR_MAX:
                # Shift the few survivors down in place instead of running
                # seven mask-indexing passes (see _COMPACT_SCALAR_MAX).
                finished = []
                alive = []
                res = []
                arr_rate = self._arr_rate
                arr_rem = self._arr_rem
                arr_isw = self._arr_is_write
                arr_w = self._arr_w
                arr_cap = self._arr_cap
                arr_pbase = self._arr_pbase
                arr_floor = self._arr_floor
                nw_fin = 0
                j = 0
                for i in range(n):
                    s = streams[i]
                    if fin_l[i]:
                        finished.append(s)
                        res.append(rem_l[i])
                        if s.direction == "write":
                            nw_fin += 1
                        continue
                    alive.append(s)
                    arr_rem[j] = rem_l[i]
                    if j != i:
                        arr_rate[j] = arr_rate[i]
                        arr_isw[j] = arr_isw[i]
                        arr_w[j] = arr_w[i]
                        arr_cap[j] = arr_cap[i]
                        arr_pbase[j] = arr_pbase[i]
                        arr_floor[j] = arr_floor[i]
                    j += 1
                self._streams = alive
                self._finished = finished
                self._finished_res = res
                if n_write:
                    self._n_write = n_write - nw_fin
                return
            rem[:] = rem_l
        else:
            moved = rate * dt
            np.minimum(moved, rem, out=moved)
            rem -= moved
            if n_write == 0:
                acc = bytes_moved["read"]
                for v in moved.tolist():
                    acc += v
                bytes_moved["read"] = acc
            elif n_write == n:
                acc = bytes_moved["write"]
                for v in moved.tolist():
                    acc += v
                bytes_moved["write"] = acc
            else:
                acc_read = bytes_moved["read"]
                acc_write = bytes_moved["write"]
                for v, w in zip(moved.tolist(), isw.tolist()):
                    if w:
                        acc_write += v
                    else:
                        acc_read += v
                bytes_moved["read"] = acc_read
                bytes_moved["write"] = acc_write
            n_fin = int(np.count_nonzero(rem <= _COMPLETION_EPS))
        if n_fin == 0:
            self._finished = None
            return
        fin = rem <= _COMPLETION_EPS
        finished: list[_Stream] = []
        alive: list[_Stream] = []
        for s, f in zip(streams, fin.tolist()):
            (finished if f else alive).append(s)
        self._streams = alive
        self._finished = finished
        self._finished_res = rem[fin].tolist()
        if n_write:
            self._n_write -= int(np.count_nonzero(fin & isw))
        keep = ~fin
        k = n - n_fin
        self._arr_rate[:k] = rate[keep]
        self._arr_rem[:k] = rem[keep]
        self._arr_is_write[:k] = isw[keep]
        self._arr_w[:k] = self._arr_w[:n][keep]
        self._arr_cap[:k] = self._arr_cap[:n][keep]
        self._arr_pbase[:k] = self._arr_pbase[:n][keep]
        self._arr_floor[:k] = self._arr_floor[:n][keep]

    # -- cgroup-change handling -------------------------------------------

    def notify_demand_change(self) -> None:
        """A cgroup's weight or throttle changed: re-rate the device now.

        The weight/cap rows are re-read at the next solve; with streams
        in flight that solve happens here, so the new rates hold from
        this instant and every reader sees them.
        """
        self._demand_epoch += 1
        self._inputs_stale = True
        if self._streams:
            self.reschedule()

    def reschedule(self) -> None:
        """Accrue progress, recompute rates, schedule the next completion.

        Called on stream start/finish, on device health changes, and on
        cgroup weight/throttle changes.
        """
        self._sync_progress()
        self._complete_finished()
        handle = self._completion_handle
        if handle is not None:
            handle.cancel()
            self._completion_handle = None
        streams = self._streams
        if not streams:
            return
        n = len(streams)
        if n == 1:
            # Single-stream fast path: skip the length-1 slice/tolist round
            # trips (same arithmetic as the scalar loop below).
            if self._demand_epoch != self._solved_epoch:
                self._arr_rate[0] = self._solve_fast()[0]
            r = self._arr_rate.item(0)
            horizon = self._arr_rem.item(0) / r if r > 0.0 else math.inf
            horizon = float(horizon)
            if OBS.enabled:
                handles = self._device_obs()
                handles[2].inc(device=self.name)
                handles[3].set(1, device=self.name)
            if math.isfinite(horizon):
                self._completion_handle = self.sim.schedule(
                    max(horizon, 0.0), self.reschedule
                )
            return
        rate = self._arr_rate[:n]
        # Epoch-hit check inlined: most reschedules after a pure completion
        # horizon expiry re-solve with unchanged demand inputs — the rate
        # rows are already current, so nothing is even copied.
        if self._demand_epoch != self._solved_epoch:
            rate[:] = self._solve_fast()
        rem = self._arr_rem[:n]
        if n <= _SYNC_SCALAR_MAX:
            horizon = math.inf
            for r, ri in zip(rate.tolist(), rem.tolist()):
                if r > 0.0:
                    t = ri / r
                    if t < horizon:
                        horizon = t
        else:
            pos = rate > 0.0
            if pos.all():
                horizon = (rem / rate).min()
            elif pos.any():
                horizon = (rem[pos] / rate[pos]).min()
            else:
                horizon = math.inf
        # Plain float: this feeds the event queue (and thus ``sim.now``),
        # which recorded fingerprints serialise with json.
        horizon = float(horizon)
        if OBS.enabled:
            handles = self._device_obs()
            handles[2].inc(device=self.name)
            handles[3].set(n, device=self.name)
        if math.isfinite(horizon):
            self._completion_handle = self.sim.schedule(max(horizon, 0.0), self.reschedule)

    def _rebuild_inputs(self) -> None:
        """Re-read weight/cap rows off the cgroups after a change.

        Built as Python lists and bulk-assigned: element-indexed numpy
        stores cost several times a list append.
        """
        writeback = self.spec.writeback_weight
        weights = []
        caps = []
        for s in self._streams:
            direction = s.direction
            if direction == "write" and writeback is not None:
                weights.append(writeback)
            else:
                weights.append(s.cgroup.blkio_weight)
            caps.append(s.cgroup.throttle_bps(self, direction))
        n = len(weights)
        self._arr_w[:n] = weights
        self._arr_cap[:n] = caps
        self._inputs_stale = False

    def _solve_fast(self):
        """Solve off the persistent SoA rows, memoized on a demand signature.

        The epoch check (inlined in :meth:`reschedule`) skips the call
        entirely when nothing that feeds the allocation has changed since
        the last solve; the signature checks catch changes that turn out
        to be no-ops — a weight written back to its current value busts
        the epoch but not the signature, and membership oscillating
        through a recurring demand set (a stream finishing and an
        identical one restarting) hits the bounded memo dict.
        """
        if self._inputs_stale:
            self._rebuild_inputs()
        n = len(self._streams)
        spec = self.spec
        mixed = 0 < self._n_write < n
        efficiency = self._speed_factor * spec.efficiency(n, mixed=mixed)
        isw = self._arr_is_write[:n]
        weights = self._arr_w[:n]
        caps = self._arr_cap[:n]
        # Directional peaks/floors are functions of (efficiency, isw), so
        # the signature only needs the independent inputs.
        sig = (efficiency, isw.tobytes(), weights.tobytes(), caps.tobytes())
        if sig == self._solved_sig:
            self._solved_epoch = self._demand_epoch
            return self._solved_rates
        memo = self._solve_memo
        rates = memo.get(sig)
        if rates is None:
            rates = solve_rates_arrays(
                weights, self._arr_pbase[:n] * efficiency, caps, self._arr_floor[:n]
            )
            if len(memo) >= _SOLVE_MEMO_MAX:
                memo.clear()
            memo[sig] = rates
        self._solved_sig = sig
        self._solved_epoch = self._demand_epoch
        self._solved_rates = rates
        return rates

    def _complete_finished(self) -> None:
        """Fire completion events for the streams `_sync_progress` split off.

        Observability counters are aggregated per (device, direction):
        an epoch completing k streams costs one ``completions`` and one
        ``bytes_completed`` increment per direction instead of 2k label
        lookups.  Final counter values are unchanged (the service-time
        histogram still observes each stream — its bucket counts are not
        aggregatable).
        """
        finished = self._finished
        if finished is None:
            return
        residuals = self._finished_res
        self._finished = None
        self._finished_res = None
        self._demand_epoch += 1
        refs = self._cgroup_refs
        bytes_moved = self.bytes_moved
        now = self.sim.now
        obs_enabled = OBS.enabled
        if len(finished) == 1 and not obs_enabled:
            # Common case: one stream finished, telemetry off — skip the
            # zip/aggregation scaffolding (same accrual and event order).
            s = finished[0]
            bytes_moved[s.direction] += residuals[0]
            count = refs[s.cgroup] - 1
            if count:
                refs[s.cgroup] = count
            else:
                del refs[s.cgroup]
                s.cgroup._unregister_active_device(self)
            s.event.succeed(
                IOStats(
                    nbytes=s.nbytes,
                    submitted_at=s.submitted_at,
                    started_at=s.started_at,
                    finished_at=now,
                )
            )
            return
        handles = self._device_obs() if obs_enabled else None
        agg: dict[Direction, list] = {}
        for s, residual in zip(finished, residuals):
            # The sub-eps residual still counts as moved bytes (the
            # stream is complete), accrued in completion order exactly as
            # the historical per-stream loop did.
            bytes_moved[s.direction] += residual
            count = refs[s.cgroup] - 1
            if count:
                refs[s.cgroup] = count
            else:
                del refs[s.cgroup]
                s.cgroup._unregister_active_device(self)
            stats = IOStats(
                nbytes=s.nbytes,
                submitted_at=s.submitted_at,
                started_at=s.started_at,
                finished_at=now,
            )
            if obs_enabled:
                entry = agg.get(s.direction)
                if entry is None:
                    agg[s.direction] = entry = [0, 0]
                entry[0] += 1
                entry[1] += s.nbytes
                handles[6].observe(
                    stats.service_time, device=self.name, direction=s.direction
                )
            s.event.succeed(stats)
        if obs_enabled:
            for direction, (count, nbytes) in agg.items():
                handles[4].inc(count, device=self.name, direction=direction)
                handles[5].inc(nbytes, device=self.name, direction=direction)

    def _device_obs(self) -> tuple:
        """Bound metric instruments, cached against the live registry.

        ``reg.counter(name)`` costs a registry lookup per event; the
        handles are rebuilt only when the registry object is swapped or
        cleared (tracked via ``Registry.epoch``).
        """
        reg = OBS.registry
        cache = self._obs_cache
        if cache is None or cache[0] is not reg or cache[1] != reg.epoch:
            cache = (
                reg,
                reg.epoch,
                reg.counter("device.reschedules"),
                reg.gauge("device.active_streams"),
                reg.counter("device.completions"),
                reg.counter("device.bytes_completed"),
                reg.histogram("device.service_time"),
                reg.counter("device.injected_failures"),
            )
            self._obs_cache = cache
        return cache

    # -- introspection -----------------------------------------------------

    def instantaneous_rate(self, cgroup: "BlkioCgroup") -> float:
        """Current aggregate service rate of a cgroup's streams (bytes/s)."""
        streams = self._streams
        if not streams:
            return 0.0
        total = 0.0
        for s, rate in zip(streams, self._arr_rate[: len(streams)].tolist()):
            if s.cgroup is cgroup:
                total += rate
        return total

    def rates_by_direction(self) -> tuple[float, float]:
        """Aggregate instantaneous (read, write) service rates (bytes/s)."""
        n = len(self._streams)
        if n == 0:
            return 0.0, 0.0
        read_rate = 0.0
        write_rate = 0.0
        for is_write, rate in zip(
            self._arr_is_write[:n].tolist(), self._arr_rate[:n].tolist()
        ):
            if is_write:
                write_rate += rate
            else:
                read_rate += rate
        return read_rate, write_rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BlockDevice {self.name} streams={len(self._streams)}>"


# Epoch-grouped dispatch: consecutive same-instant _start_stream entries
# bound to the same device collapse into one _start_streams_batch call
# (see repro.simkernel.batch_dispatch for the contract).
batch_dispatch(BlockDevice._start_stream, BlockDevice._start_streams_batch)
