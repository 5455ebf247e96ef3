"""Determinism guards for the cluster kernel.

Two properties the whole ``repro.cluster`` design exists to uphold:

* **Worker-count invariance** — a seeded cluster run produces
  byte-identical merged metrics and SLO boards whether the shards run
  serially in-process (``workers=1``) or on a spawn pool
  (``workers=4``), at every shard count.  The fingerprint covers the
  merged metrics snapshot, the SLO board, bus traffic by kind, event
  counts, and the per-round rate timeline, so any scheduling leak —
  delivery order, merge order, RNG placement — trips it.

* **Pinned 1-shard parity** — a 1-shard cluster is just a plain
  :class:`~repro.simkernel.Simulation` hosting every node, so its
  fingerprint is pinned to a recorded constant (the same style as
  ``test_dataplane_guard.py``).  A changed hash means node-level
  behaviour changed for *everyone*, not just a sharding bug.  The
  benchmark's ``cluster_rounds`` shape is pinned the same way, so a
  speed-up claimed there is checked against the results it produced.

Re-recording policy: the pinned hashes move together with any
intentional change to node demand generation, token-bucket semantics,
arbitration policies, or the fingerprint document itself.  Re-record by
running the printed config through ``ClusterResult.fingerprint()`` and
explain the behaviour change in the commit that moves them.
"""

import builtins

import pytest

from repro.cluster import ClusterConfig, make_shard_pool, run_cluster
from repro.util.units import KiB
from tests.float_sums import neumaier_sum

#: The pinned 1-shard scenario: every node on one plain Simulation.
PARITY_CONFIG = ClusterConfig(
    n_nodes=8, shards=1, tenants_per_node=2, rounds=10, seed=7
)
PARITY_FINGERPRINT = (
    "02093043c49915c141dc88cc7ceccbe80bff64bee5825599ca9644c20834a6fc"
)
#: Same scenario under decentralized token borrowing.
PARITY_FINGERPRINT_ADAPTBF = (
    "486a486fe8ac13234ee7f6620c2b7eeed96ea925714076a8cab0edb0e6bc22c6"
)


#: The shape of the benchmark's ``cluster_rounds`` units
#: (bench/workloads.py): 16 nodes x 8 tenants on 4 shards, 20 rounds.
BENCH_SHAPE = ClusterConfig(
    n_nodes=16,
    tenants_per_node=8,
    shards=4,
    rounds=20,
    request_bytes=256 * KiB,
    collect_round_stats=True,
)
#: Unit 0 at benchmark seed 0: centralized, cluster seed 0.
BENCH_UNIT0_FINGERPRINT = (
    "431eae36717f7b098b3bf0d7a55fc5157046043648fb8130b53871f9e53e3bf9"
)
#: Unit 1 at benchmark seed 0: adaptbf, cluster seed 1.
BENCH_UNIT1_FINGERPRINT = (
    "28d5b77abb97c59ed50cc3931db9071c944939e5491697240d2d51f1aeb5fcd1"
)


class TestPinnedParity:
    def test_one_shard_centralized(self):
        assert run_cluster(PARITY_CONFIG).fingerprint() == PARITY_FINGERPRINT

    def test_one_shard_adaptbf(self):
        cfg = PARITY_CONFIG.with_(arbitration="adaptbf")
        assert run_cluster(cfg).fingerprint() == PARITY_FINGERPRINT_ADAPTBF


class TestPinnedBenchmarkShape:
    def test_unit0_centralized(self):
        cfg = BENCH_SHAPE.with_(arbitration="centralized", seed=0)
        assert run_cluster(cfg).fingerprint() == BENCH_UNIT0_FINGERPRINT

    def test_unit1_adaptbf(self):
        cfg = BENCH_SHAPE.with_(arbitration="adaptbf", seed=1)
        assert run_cluster(cfg).fingerprint() == BENCH_UNIT1_FINGERPRINT


class TestSumOrder:
    """The parity pins hold on Python 3.12, whose ``sum()`` compensates.

    With ``builtins.sum`` swapped for a Neumaier sum, both parity
    configs must still read their pinned fingerprints: every float sum
    that reaches a fingerprint adds left to right in an explicit loop.
    """

    @pytest.mark.parametrize(
        "policy, pinned",
        [("centralized", PARITY_FINGERPRINT), ("adaptbf", PARITY_FINGERPRINT_ADAPTBF)],
        ids=["centralized", "adaptbf"],
    )
    def test_parity_under_a_compensated_sum(self, policy, pinned, monkeypatch):
        monkeypatch.setattr(builtins, "sum", neumaier_sum)
        cfg = PARITY_CONFIG.with_(arbitration=policy)
        assert run_cluster(cfg).fingerprint() == pinned


class TestWorkerCountInvariance:
    """workers=1 vs workers=4 must be byte-identical, per shard count.

    One warm process pool per shard count carries both policies (also
    exercising pool reuse on the parallel path); the serial arm rebuilds
    from scratch each run.  ``REPRO_WORKERS`` is cleared so an
    environment cap cannot quietly turn the parallel arm serial.
    """

    POLICIES = ("centralized", "adaptbf")

    @pytest.fixture(autouse=True)
    def _no_env_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)

    @pytest.mark.parametrize("shards", [1, 2, 8])
    def test_fingerprint_matches_serial(self, shards):
        base = ClusterConfig(
            n_nodes=8, shards=shards, tenants_per_node=2, rounds=6, seed=11
        )
        # Not capped by CPU count: oversubscribed spawn workers still
        # must produce identical bytes, that is the point of the guard.
        workers = min(4, shards)
        pool = make_shard_pool(base, workers) if workers > 1 else None
        try:
            for policy in self.POLICIES:
                cfg = base.with_(arbitration=policy)
                serial = run_cluster(cfg.with_(workers=1))
                parallel = (
                    run_cluster(cfg, pool=pool) if pool is not None else run_cluster(cfg)
                )
                assert serial.fingerprint() == parallel.fingerprint(), (
                    f"{policy} fingerprint differs at shards={shards} "
                    f"between workers=1 and workers={workers}"
                )
                # The board and reports are covered by the fingerprint;
                # compare them directly too so a failure names the field.
                assert serial.slo_board() == parallel.slo_board()
                assert serial.reports == parallel.reports
                assert serial.messages_by_kind == parallel.messages_by_kind
        finally:
            if pool is not None:
                pool.close()
