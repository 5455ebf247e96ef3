"""Tests for repro.cluster: bus, config, arbitration, pool, kernel.

Almost everything here runs serial (``workers=None`` → in-process
shards) and small; a few pool tests spawn two real workers.  The
determinism-vs-worker-count property tests live in
``test_cluster_guard.py``.
"""

import math
import multiprocessing as mp

import pytest

from repro.cluster import (
    ARBITRATION,
    AdaptiveTokenBorrowing,
    ClusterConfig,
    Message,
    Outbox,
    SerialShardPool,
    ShardPool,
    ShardWorkerError,
    ArbitrationPolicy,
    jain_index,
    make_shard_pool,
    route,
    run_cluster,
)
from repro.cluster import pool as shard_pool
from repro.experiments import cluster as cluster_experiment
from repro.experiments.cluster import run_cluster_compare


def _tiny(**overrides) -> ClusterConfig:
    base = dict(n_nodes=8, shards=2, tenants_per_node=2, rounds=6, seed=3)
    base.update(overrides)
    return ClusterConfig(**base)


class TestBus:
    def test_pack_and_get(self):
        msg = Message(time=1.0, src=0, seq=0, dst=1, kind="k",
                      payload=Message.pack(b=2.0, a=1.0))
        assert msg.payload == (("a", 1.0), ("b", 2.0))
        assert msg.get("a") == 1.0
        assert msg.get("missing") == 0.0
        assert msg.get("missing", 7.0) == 7.0

    def test_outbox_sequences_emissions(self):
        box = Outbox(src=3, time=2.0)
        m0 = box.emit(1, "borrow", amount=5.0)
        m1 = box.emit(2, "borrow", amount=5.0)
        assert (m0.seq, m1.seq) == (0, 1)
        assert m0.src == m1.src == 3
        assert m0.time == m1.time == 2.0
        assert box.messages == [m0, m1]

    def test_route_is_order_insensitive(self):
        box_a, box_b = Outbox(src=0, time=1.0), Outbox(src=1, time=1.0)
        msgs = [
            box_a.emit(2, "x"),
            box_b.emit(2, "x"),
            box_a.emit(3, "x"),
            box_b.emit(2, "x"),
        ]
        forward = route(list(msgs))
        backward = route(list(reversed(msgs)))
        assert forward == backward
        # Canonical inbox order: (time, src, seq).
        assert [(m.src, m.seq) for m in forward[2]] == [(0, 0), (1, 0), (1, 1)]


class TestConfig:
    def test_defaults_valid_and_derived(self):
        cfg = ClusterConfig()
        assert cfg.horizon == cfg.rounds * cfg.round_interval
        assert cfg.total_rate == pytest.approx(cfg.n_nodes * cfg.base_rate)
        assert cfg.n_hot == round(cfg.hot_fraction * cfg.n_nodes)

    def test_partition_round_robin(self):
        cfg = _tiny()
        assert cfg.nodes_of_shard(0) == (0, 2, 4, 6)
        assert cfg.nodes_of_shard(1) == (1, 3, 5, 7)
        assert all(cfg.shard_of(n) == n % cfg.shards for n in range(cfg.n_nodes))

    def test_hot_nodes_spread_evenly(self):
        cfg = ClusterConfig(n_nodes=16, hot_fraction=0.25)
        hot = [i for i in range(16) if cfg.demand_multiplier(i) == cfg.hot_demand]
        assert len(hot) == cfg.n_hot == 4
        # Evenly spaced around the ring — one hot node per stride-4 block.
        assert hot == [0, 4, 8, 12]

    def test_with_returns_modified_copy(self):
        cfg = _tiny()
        other = cfg.with_(arbitration="adaptbf")
        assert other.arbitration == "adaptbf"
        assert cfg.arbitration == "centralized"

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_nodes=0),
            dict(shards=0),
            dict(shards=9),  # > n_nodes=8
            dict(rounds=0),
            dict(round_interval=0.0),
            dict(tenants_per_node=0),
            dict(cluster_rate=-1.0),
            dict(hot_fraction=1.5),
            dict(lend_floor=1.0),
            dict(return_watermark=2.0),
            dict(borrow_neighbors=0),
            dict(burst_s=0.0),
            dict(hot_demand=0.0),
            dict(arbitration="anarchy"),
        ],
    )
    def test_validation_rejects(self, bad):
        with pytest.raises(ValueError):
            _tiny(**bad)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
    @pytest.mark.parametrize(
        "field",
        [
            "round_interval",
            "cluster_rate",
            "burst_s",
            "node_peak_bw",
            "request_bytes",
            "slo_latency_s",
            "hot_demand",
            "cold_demand",
        ],
    )
    def test_non_finite_values_rejected(self, field, value):
        """NaN passes an ``x <= 0`` check and infinity passes any
        positivity check; either stalls a run or leaves NaN results, so
        the constructor names the field instead.  Nothing runs here."""
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
            _tiny(**{field: value})


class TestArbitrationRegistry:
    def test_builtins_registered(self):
        assert "centralized" in ARBITRATION
        assert "adaptbf" in ARBITRATION
        assert ARBITRATION["adaptbf"] is AdaptiveTokenBorrowing

    def test_pluggable_policy_runs_end_to_end(self, monkeypatch):
        class StaticShares(ArbitrationPolicy):
            """No coordination at all: every node keeps its fair share."""

        with monkeypatch.context() as patch:
            patch.setitem(ARBITRATION, "static", StaticShares)
            res = run_cluster(_tiny(arbitration="static", rounds=4))
            assert res.messages_total == 0
            assert res.events_executed > 0
        with pytest.raises(ValueError, match="unknown arbitration policy 'static'"):
            _tiny(arbitration="static")

    def test_ring_neighbours_alternate_sides(self):
        pol = AdaptiveTokenBorrowing(ClusterConfig(n_nodes=8, borrow_neighbors=4), 0)
        assert pol.neighbours() == [1, 7, 2, 6]
        # Never more peers than other nodes exist.
        tiny = AdaptiveTokenBorrowing(
            ClusterConfig(n_nodes=2, shards=1, borrow_neighbors=4), 0
        )
        assert tiny.neighbours() == [1]


class TestJainIndex:
    def test_uniform_is_one(self):
        assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_known_value(self):
        # One active node out of four: index = 1/4.
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_is_nan_all_zero_is_one(self):
        assert math.isnan(jain_index([]))
        assert jain_index([0.0, 0.0]) == 1.0


class TestRunClusterSerial:
    @pytest.mark.parametrize("policy", ["centralized", "adaptbf"])
    def test_result_invariants(self, policy):
        cfg = _tiny(arbitration=policy)
        res = run_cluster(cfg)
        assert res.workers == 1
        assert res.sim_time == pytest.approx(cfg.horizon)
        assert res.events_executed > 0
        assert [r.node_id for r in res.reports] == list(range(cfg.n_nodes))
        assert 0.0 < res.jain_fairness <= 1.0
        assert res.p99_latency_s > 0.0
        board = res.slo_board()
        assert [row["node"] for row in board] == list(range(cfg.n_nodes))
        assert sum(r.completions for r in res.reports) > 0

    @pytest.mark.parametrize("policy", ["centralized", "adaptbf"])
    def test_rate_conservation(self, policy):
        # The arbitration invariant: Σ node rates + in-flight grant/return
        # traffic equals the cluster budget at every round boundary.
        res = run_cluster(_tiny(arbitration=policy, rounds=10))
        assert res.conservation_error is not None
        assert res.conservation_error < 1e-9

    def test_policies_speak_their_own_kinds(self):
        central = run_cluster(_tiny(arbitration="centralized"))
        assert set(central.messages_by_kind) <= {"report", "alloc"}
        assert central.messages_by_kind["report"] > 0
        adapt = run_cluster(_tiny(arbitration="adaptbf", rounds=10))
        assert set(adapt.messages_by_kind) <= {"borrow", "grant", "return"}
        assert adapt.messages_by_kind.get("borrow", 0) > 0

    def test_round_stats_optional(self):
        res = run_cluster(_tiny(collect_round_stats=False))
        assert res.round_rates is None
        assert res.conservation_error is None

    def test_fingerprint_repeatable(self):
        cfg = _tiny()
        assert run_cluster(cfg).fingerprint() == run_cluster(cfg).fingerprint()

    def test_seed_changes_fingerprint(self):
        cfg = _tiny()
        assert (
            run_cluster(cfg).fingerprint()
            != run_cluster(cfg.with_(seed=cfg.seed + 1)).fingerprint()
        )

    def test_workers_without_a_pool_stay_in_process(self, monkeypatch):
        # ``config.workers`` sizes make_shard_pool(config); run_cluster
        # on its own never starts a worker process.
        def no_workers(*args, **kwargs):
            raise AssertionError("run_cluster started shard workers")

        monkeypatch.setattr(shard_pool, "ShardPool", no_workers)
        res = run_cluster(_tiny(workers=2))
        assert res.workers == 1
        assert res.fingerprint() == run_cluster(_tiny()).fingerprint()


class TestShardPools:
    def test_factory_picks_serial_at_one(self):
        cfg = _tiny()
        pool = make_shard_pool(cfg, 1)
        try:
            assert isinstance(pool, SerialShardPool)
            assert pool.workers == 1
        finally:
            pool.close()

    def test_factory_sizes_from_config_capped_by_shards(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert isinstance(make_shard_pool(_tiny()), SerialShardPool)
        cfg = _tiny(workers=8)
        pool = make_shard_pool(cfg)
        try:
            assert isinstance(pool, ShardPool)
            assert pool.workers == cfg.shards
            res = run_cluster(cfg, pool=pool)
            assert res.workers == cfg.shards
            assert res.fingerprint() == run_cluster(_tiny()).fingerprint()
        finally:
            pool.close()
        assert mp.active_children() == []

    def test_serial_reset_rejects_shard_mismatch(self):
        pool = SerialShardPool(_tiny())
        try:
            with pytest.raises(ValueError, match="shards"):
                pool.reset(_tiny(shards=1))
        finally:
            pool.close()

    def test_warm_pool_reuse_across_runs(self):
        # One pool, three runs: a repeat (identical fingerprint), then a
        # different policy on the same topology (different fingerprint).
        cfg = _tiny()
        pool = make_shard_pool(cfg, 1)
        try:
            first = run_cluster(cfg, pool=pool)
            second = run_cluster(cfg, pool=pool)
            assert first.fingerprint() == second.fingerprint()
            other = run_cluster(cfg.with_(arbitration="adaptbf"), pool=pool)
            assert other.fingerprint() != first.fingerprint()
        finally:
            pool.close()

    def test_process_pool_reset_rejects_shard_mismatch(self):
        cfg = _tiny()
        pool = ShardPool(cfg, 2)
        try:
            assert pool.workers == 2
            with pytest.raises(ValueError, match="shards"):
                pool.reset(cfg.with_(shards=1, n_nodes=8))
        finally:
            pool.close()

    def test_dead_worker_raises_and_tears_the_pool_down(self):
        pool = ShardPool(_tiny(), 2)
        try:
            victim = pool._procs[0]
            victim.kill()
            victim.join(timeout=10)
            with pytest.raises(ShardWorkerError, match="died"):
                pool.round(0, {})
            assert mp.active_children() == []
        finally:
            pool.close()


class TestClusterCompare:
    def test_compare_scores_both_policies(self):
        res = run_cluster_compare(
            n_nodes=8, shards=2, tenants_per_node=2, rounds=8, seed=1, workers=1
        )
        assert [row.policy for row in res.rows] == ["centralized", "adaptbf"]
        central, adapt = res.rows
        assert central.messages_by_kind["report"] > 0
        assert adapt.messages_by_kind.get("borrow", 0) > 0
        # The centralized controller pays ~2 msgs/round/node always;
        # AdapTBF's traffic is demand-driven and strictly lower here.
        assert adapt.msgs_per_round_per_node < central.msgs_per_round_per_node
        for row in res.rows:
            assert 0.0 < row.jain_fairness <= 1.0
            assert row.conservation_error < 1e-9
        table = res.format_rows()
        assert "centralized" in table and "adaptbf" in table

    def test_compare_runs_every_policy_on_one_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        sizes = []
        real = cluster_experiment.make_shard_pool

        def recording(config, workers=None):
            pool = real(config, workers)
            sizes.append(pool.workers)
            return pool

        monkeypatch.setattr(cluster_experiment, "make_shard_pool", recording)
        shape = dict(n_nodes=8, shards=2, tenants_per_node=2, rounds=4, seed=1)
        pooled = run_cluster_compare(workers=2, **shape)
        serial = run_cluster_compare(workers=1, **shape)
        assert sizes == [2, 1]
        assert (pooled.workers, serial.workers) == (2, 1)
        assert pooled.rows == serial.rows
        assert mp.active_children() == []
