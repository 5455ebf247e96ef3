"""Zero-overhead guard: the data plane must not change the default path.

Every session now routes device submissions through a FIFO
:class:`~repro.dataplane.DataPlane`, so these guards pin the claim that
with *no policy configured* the plane is invisible: bit-identical
results, event counts, and byte accounting.

Two oracles, chosen for coverage of both regimes:

* **fig07** (noise + analytics on the capacity tier, 12 steps): the
  scenario engine path, i.e. every submission goes through
  ``ScenarioSession``'s plane.
* **stress16** (the blkio stress recipe ``_run_stress`` at 16 streams
  and a 30 s horizon, on :class:`BlockDevice` and on the test-only
  :class:`~tests.blkio_oracle.ReferenceBlockDevice`): the raw device
  path, run twice — bare, and with a default plane attached — asserting
  the *same* fingerprint for both.

Two larger device shapes pin the grouped-dispatch regime (architecture
§1.2) with the same two checks:

* **stress64** (the stress recipe at 64 streams, 40 s): the array
  sync/solve path under weight churn.
* **soak256** (``_run_soak``: 256 uniform-weight streams, 10 s, no
  churn): hundreds of same-instant starts and completions per epoch.

Each device shape is pinned twice, results apart from mechanism:

* a *result digest* over every request's completion time and byte count,
  per stream (the workers record them as each request completes), plus
  the device's ``bytes_moved`` — what a user of the device observes;
* an *event count*, ``sim.events_executed == N``, asserted separately,
  so a change that cuts kernel events shows as a moved count with every
  result digest unchanged.

If a refactor legitimately changes results these digests move together
with the ones in ``tests/test_engine.py`` and must be re-recorded in the
same commit, with the diff explained; a moved event count needs only
the reason it moved.
"""

import hashlib
import json

from repro.dataplane import DataPlane
from repro.simkernel import Simulation, Timeout
from repro.storage.cgroup import CgroupController
from repro.storage.device import DEVICE_PRESETS, BlockDevice
from repro.util.units import MiB
from tests.blkio_oracle import ReferenceBlockDevice
from tests.scalar_oracle import ScalarSimulation

# Recorded on the seed tree (commit 8be0c54), before repro.dataplane
# existed.
FIG07_SEED_HASH = "95a1ac632f4d86427362c2e64cc0828da41a8b7ae66840c9f63d68de8f451c28"

# Result digests and event counts of the device shapes, recorded on
# commit 0a31dd9.  The fast device and ReferenceBlockDevice complete
# every request at the same instant, so each shape has one digest for
# both.  Event counts were re-pinned when a cgroup weight write began
# re-rating the device in place: each 8-write churn burst used to cost
# one delay-0 flush event on the fast device (120 bursts in 30 s, 160 in
# 40 s), so stress16 went from 522 to 402 events, the count the
# reference device already had, and stress64 from 515 to 355.  No
# digest moved.
STRESS16_DIGEST = "e6af19c578b5d00bb35a34bc1bdbaed2d94dc3c5417fe6196251cb46eae2e783"
STRESS16_EVENTS = 402
STRESS64_DIGEST = "e3bce6828ad3f86a049733cfdde8583b01f48c8eaeebc26b451c8e57256f1d4c"
STRESS64_EVENTS = 355
SOAK256_DIGEST = "0db498daed022e857f45fd9844f2a770f7bfa7beda60d3619b6dff57ead54511"
SOAK256_EVENTS = 9_591


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def test_fig07_fingerprint_unchanged_by_dataplane():
    from repro.experiments.fig07 import run_fig07

    res = run_fig07(max_steps=12, seed=0)
    payload = json.dumps(
        [[r.thresh, r.kept_components, r.mae_mb, r.rmse_mb, r.corr] for r in res.rows]
        + [res.measured_mb.tolist()]
    )
    assert _sha(payload) == FIG07_SEED_HASH


def _digest(done: list[list[tuple[float, int]]], device: BlockDevice) -> str:
    """Result digest: per-stream ``(completion time, bytes)`` + bytes moved."""
    return _sha(json.dumps([done, device.bytes_moved]))


def _run_stress(
    device_cls: type[BlockDevice] = BlockDevice,
    *,
    n_streams: int = 16,
    with_plane: bool = False,
    horizon: float = 30.0,
    sim_cls: type[Simulation] = Simulation,
) -> tuple[str, int]:
    """The blkio stress recipe (n streams + weight churn).

    Perpetual mixed read/write workers resubmit multi-MiB requests on one
    shared HDD while a churn process rewrites eight blkio weights every
    250 ms.  Returns the result digest and the kernel event count.
    """
    sim = sim_cls()
    device = device_cls(sim, DEVICE_PRESETS["seagate-hdd-2t"])
    if with_plane:
        DataPlane(sim).attach(device)
    groups = CgroupController()
    cgroups = [
        groups.create(f"stress-{i}", weight=100 + (i % 9) * 100)
        for i in range(n_streams)
    ]

    done: list[list[tuple[float, int]]] = [[] for _ in range(n_streams)]

    def worker(idx, cgroup):
        direction = "read" if idx % 3 else "write"
        nbytes = (4 + (idx % 4) * 2) * MiB
        while True:
            stats = yield device.submit(cgroup, nbytes, direction)
            done[idx].append((sim.now, stats.nbytes))

    for idx, cgroup in enumerate(cgroups):
        sim.process(worker(idx, cgroup))

    def churn():
        burst = 0
        while True:
            yield Timeout(0.25)
            for j in range(8):
                cgroups[(burst + j) % n_streams].set_blkio_weight(
                    100 + ((burst + j) * 37) % 900, now=sim.now
                )
            burst += 8

    sim.process(churn())
    sim.run(until=horizon)
    return _digest(done, device), sim.events_executed


def _run_soak(
    device_cls: type[BlockDevice] = BlockDevice,
    *,
    sim_cls: type[Simulation] = Simulation,
) -> tuple[str, int]:
    """The 256-stream soak at a 10 s horizon: (result digest, events).

    Identical workers (weight 500, 1 MiB requests, 2:1 read/write, no
    churn) hammer one shared SSD, so every epoch carries large groups of
    same-instant starts and completions.
    """
    sim = sim_cls()
    device = device_cls(sim, DEVICE_PRESETS["intel-ssd-400"])
    groups = CgroupController()
    done: list[list[tuple[float, int]]] = [[] for _ in range(256)]

    def worker(idx, cgroup, direction):
        while True:
            stats = yield device.submit(cgroup, MiB, direction)
            done[idx].append((sim.now, stats.nbytes))

    for i in range(256):
        cgroup = groups.create(f"soak-{i}", weight=500)
        sim.process(worker(i, cgroup, "read" if i % 3 else "write"))

    sim.run(until=10.0)
    return _digest(done, device), sim.events_executed


def test_stress16_fast_path_fingerprint():
    digest, events = _run_stress()
    assert digest == STRESS16_DIGEST
    assert events == STRESS16_EVENTS


def test_stress16_reference_fingerprint():
    digest, events = _run_stress(ReferenceBlockDevice)
    assert digest == STRESS16_DIGEST
    assert events == STRESS16_EVENTS


def test_stress16_with_default_plane_is_bit_identical():
    """The strong form of zero overhead: attach a policy-free default
    plane to the stressed device and get the exact same results and
    event count."""
    assert _run_stress(with_plane=True) == (STRESS16_DIGEST, STRESS16_EVENTS)


def test_stress16_reference_with_plane_is_bit_identical():
    run = _run_stress(ReferenceBlockDevice, with_plane=True)
    assert run == (STRESS16_DIGEST, STRESS16_EVENTS)


def test_stress16_scalar_dispatch_is_bit_identical():
    """The pins were recorded under grouped dispatch; the per-entry
    scalar oracle must reproduce them exactly."""
    assert _run_stress(sim_cls=ScalarSimulation) == (
        STRESS16_DIGEST,
        STRESS16_EVENTS,
    )


def test_stress16_reference_scalar_dispatch_is_bit_identical():
    run = _run_stress(ReferenceBlockDevice, sim_cls=ScalarSimulation)
    assert run == (STRESS16_DIGEST, STRESS16_EVENTS)


def test_stress64_fingerprint():
    digest, events = _run_stress(n_streams=64, horizon=40.0)
    assert digest == STRESS64_DIGEST
    assert events == STRESS64_EVENTS


def test_stress64_scalar_dispatch_is_bit_identical():
    run = _run_stress(n_streams=64, horizon=40.0, sim_cls=ScalarSimulation)
    assert run == (STRESS64_DIGEST, STRESS64_EVENTS)


def test_soak256_fingerprint():
    digest, events = _run_soak()
    assert digest == SOAK256_DIGEST
    assert events == SOAK256_EVENTS


def test_soak256_scalar_dispatch_is_bit_identical():
    assert _run_soak(sim_cls=ScalarSimulation) == (SOAK256_DIGEST, SOAK256_EVENTS)


def test_soak256_reference_device_is_bit_identical():
    assert _run_soak(ReferenceBlockDevice) == (SOAK256_DIGEST, SOAK256_EVENTS)
