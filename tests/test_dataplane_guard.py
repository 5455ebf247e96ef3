"""Zero-overhead guard: the data plane must not change the default path.

Every session now routes device submissions through a
``("cgroup", "blkio", "fifo")`` :class:`~repro.dataplane.DataPlane`, so
these fingerprints — recorded on the pre-dataplane tree — pin the claim
that with *no policy configured* the plane is invisible: bit-identical
event sequences, event counts, and byte accounting.

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
§1.2) with the same fingerprint payload:

* **stress64** (the stress recipe at 64 streams, 40 s): the array
  sync/solve path under weight churn.
* **soak256** (``_run_soak``: 256 uniform-weight streams, 10 s, no
  churn): hundreds of same-instant starts and completions per epoch.

If a refactor legitimately changes behaviour these hashes move together
with the ones in ``tests/test_engine.py`` and must be re-recorded in the
same commit, with the diff explained.
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
STRESS16_FAST_HASH = "5e37dea7b88537779c15e3006a1f41b4b743318e840d0a8d85c1a8ad4637c3d8"
STRESS16_REFERENCE_HASH = (
    "91ad8ccf78999c2ca13521adbb896c538c4f94082a307565c50f43e2fbed557d"
)
# Recorded on commit f2fe524 (515 and 9,591 events).
STRESS64_HASH = "5b70f2214b9e328c95859acf9f653685bf0c750067a27463548c89b020387f76"
SOAK256_HASH = "047f05b183cccb60d07f36710a26806e2de4c43fb54274cb07d20fc620918d89"


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


def _fingerprint(sim: Simulation, device: BlockDevice) -> str:
    return _sha(json.dumps([sim.events_executed, sim.now, device.bytes_moved]))


def _run_stress(
    device_cls: type[BlockDevice] = BlockDevice,
    *,
    n_streams: int = 16,
    with_plane: bool = False,
    horizon: float = 30.0,
    sim_cls: type[Simulation] = Simulation,
) -> str:
    """The blkio stress recipe (n streams + weight churn), fingerprinted.

    Perpetual mixed read/write workers resubmit multi-MiB requests on one
    shared HDD while a churn process rewrites eight blkio weights every
    250 ms.
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

    def worker(idx, cgroup):
        direction = "read" if idx % 3 else "write"
        nbytes = (4 + (idx % 4) * 2) * MiB
        while True:
            yield device.submit(cgroup, nbytes, direction)

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
    return _fingerprint(sim, device)


def _run_soak(
    device_cls: type[BlockDevice] = BlockDevice,
    *,
    sim_cls: type[Simulation] = Simulation,
) -> str:
    """The 256-stream soak, fingerprinted at a 10 s horizon.

    Identical workers (weight 500, 1 MiB requests, 2:1 read/write, no
    churn) hammer one shared SSD, so every epoch carries large groups of
    same-instant starts and completions.
    """
    sim = sim_cls()
    device = device_cls(sim, DEVICE_PRESETS["intel-ssd-400"])
    groups = CgroupController()

    def worker(cgroup, direction):
        while True:
            yield device.submit(cgroup, MiB, direction)

    for i in range(256):
        cgroup = groups.create(f"soak-{i}", weight=500)
        sim.process(worker(cgroup, "read" if i % 3 else "write"))

    sim.run(until=10.0)
    return _fingerprint(sim, device)


def test_stress16_fast_path_fingerprint():
    assert _run_stress() == STRESS16_FAST_HASH


def test_stress16_reference_fingerprint():
    assert _run_stress(ReferenceBlockDevice) == STRESS16_REFERENCE_HASH


def test_stress16_with_default_plane_is_bit_identical():
    """The strong form of zero overhead: attach a policy-free default
    plane to the stressed device and get the exact same fingerprint."""
    assert _run_stress(with_plane=True) == STRESS16_FAST_HASH


def test_stress16_reference_with_plane_is_bit_identical():
    run = _run_stress(ReferenceBlockDevice, with_plane=True)
    assert run == STRESS16_REFERENCE_HASH


def test_stress16_scalar_dispatch_is_bit_identical():
    """The hashes were recorded under grouped dispatch; the per-entry
    scalar oracle must reproduce them exactly."""
    assert _run_stress(sim_cls=ScalarSimulation) == STRESS16_FAST_HASH


def test_stress16_reference_scalar_dispatch_is_bit_identical():
    run = _run_stress(ReferenceBlockDevice, sim_cls=ScalarSimulation)
    assert run == STRESS16_REFERENCE_HASH


def test_stress64_fingerprint():
    assert _run_stress(n_streams=64, horizon=40.0) == STRESS64_HASH


def test_stress64_scalar_dispatch_is_bit_identical():
    assert _run_stress(n_streams=64, horizon=40.0, sim_cls=ScalarSimulation) == STRESS64_HASH


def test_soak256_fingerprint():
    assert _run_soak() == SOAK256_HASH


def test_soak256_scalar_dispatch_is_bit_identical():
    assert _run_soak(sim_cls=ScalarSimulation) == SOAK256_HASH


def test_soak256_reference_device_is_bit_identical():
    assert _run_soak(ReferenceBlockDevice) == SOAK256_HASH
