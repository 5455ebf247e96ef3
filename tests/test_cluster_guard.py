"""Determinism guards for the cluster kernel.

Two properties the whole ``repro.cluster`` design exists to uphold:

* **Worker-count invariance** — a seeded cluster run produces
  byte-identical merged metrics and SLO boards whether the shards run
  serially in-process (``workers=1``) or on a spawn pool
  (``workers=4``), at every shard count.  The fingerprint covers the
  merged metrics snapshot, the SLO board, bus traffic by kind, event
  counts, and the per-round rate timeline, so any scheduling leak —
  delivery order, merge order, RNG placement — trips it.

* **Pinned 1-shard parity** — a 1-shard cluster is one shard loop
  serving every node, so its fingerprint is pinned to a recorded
  constant (the same style as ``test_dataplane_guard.py``).  A changed
  hash means node-level behaviour changed for *everyone*, not just a
  sharding bug.  The benchmark's ``cluster_rounds`` shape is pinned the
  same way, so a speed-up claimed there is checked against the results
  it produced.

The fingerprints pin the order a shard serves simultaneous events in
only where events tie, which real draws almost never do, so stub
tenants with dyadic draws (``TestDyadicTies``) make them tie.  A
test-only policy (``TestHookObservations``) pins every node field the
round-boundary hooks see.

Re-recording policy: the pinned hashes move together with any
intentional change to node demand generation, token-bucket semantics,
arbitration policies, or the fingerprint document itself.  Re-record by
running the printed config through ``ClusterResult.fingerprint()`` and
explain the behaviour change in the commit that moves them.
"""

import ast
import builtins
import gc
import hashlib
import json
import math
from pathlib import Path

import pytest

import repro.cluster
from repro.cluster import (
    ARBITRATION,
    AdaptiveTokenBorrowing,
    ClusterConfig,
    make_shard_pool,
    register_arbitration,
    run_cluster,
)
from repro.cluster.node import NodeState
from repro.util.units import KiB, MiB
from tests.float_sums import neumaier_sum

#: The pinned 1-shard scenario: every node on one shard.
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


#: ``PARITY_CONFIG`` backlogged: hot nodes offer 6x their fair share for
#: 20 rounds, so most completions fall in a later round than the
#: arrival's (1364 of 1656 observed under centralized arbitration, 82 %;
#: 1063 of 1529 under token borrowing, 70 %).  On the shapes above most
#: complete in their own round (96 % and 72 % at ``BENCH_SHAPE``), so
#: these pins are the ones that lean on the carried completion heap.
BACKLOG_CONFIG = PARITY_CONFIG.with_(hot_demand=6.0, rounds=20)
BACKLOG_FINGERPRINTS = {
    "centralized": "77ce46054c42996a3bce56a513f8ac92c2c9c96f881c7bda8333bbc27dd4fbb8",
    "adaptbf": "d3438776a3548c0adf36ed8c845fbc8e83ec02294c2ed36a34f6e6b38efd0842",
}


class TestPinnedBacklog:
    @pytest.mark.parametrize("policy", sorted(BACKLOG_FINGERPRINTS))
    def test_fingerprint(self, policy):
        cfg = BACKLOG_CONFIG.with_(arbitration=policy)
        assert run_cluster(cfg).fingerprint() == BACKLOG_FINGERPRINTS[policy]

    @pytest.mark.parametrize("policy", sorted(BACKLOG_FINGERPRINTS))
    def test_most_completions_outlive_their_round(self, policy, monkeypatch):
        submit = NodeState.submit
        submitted = []  # (arrival, done)

        def recorded(node, nbytes, now):
            done = submit(node, nbytes, now)
            submitted.append((now, done))
            return done

        monkeypatch.setattr(NodeState, "submit", recorded)
        cfg = BACKLOG_CONFIG.with_(arbitration=policy)
        run_cluster(cfg)
        # An arrival at ``now`` is served in the round ending at
        # ``ceil(now)`` (1-s rounds, boundaries exact).
        assert cfg.round_interval == 1.0
        observed = [(now, done) for now, done in submitted if done <= cfg.horizon]
        outlived = sum(done > math.ceil(now) for now, done in observed)
        assert outlived > len(observed) / 2


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


# -- ties: stub tenants with dyadic draws -------------------------------

#: Draws the stub tenants cycle through.  Every one is a short binary
#: fraction, and so is every mean interarrival of ``DYADIC_CONFIG``, so
#: arrival times are exact: tenants and nodes arrive at the same instant
#: and land exactly on round ends.  A zero interarrival puts a tenant's
#: next arrival at the instant of the one just served.
_UNIFORMS = (0.0, 0.5, 0.25, 0.75)
_EXPONENTIALS = (0.5, 1.0, 0.0, 0.25, 2.0, 0.25)


class _DyadicTenant:
    """A tenant RNG stand-in: ``random`` and ``standard_exponential``
    cycle through fixed dyadic draws, starting at the tenant's phase."""

    def __init__(self, phase: int) -> None:
        self._u = phase
        self._e = phase

    def random(self) -> float:
        self._u += 1
        return _UNIFORMS[self._u % len(_UNIFORMS)]

    def standard_exponential(self) -> float:
        self._e += 1
        return _EXPONENTIALS[self._e % len(_EXPONENTIALS)]


def _dyadic_tenants(_rng, n: int) -> list[_DyadicTenant]:
    """Stands in for ``spawn_rngs`` at a node's tenant fan-out."""
    return [_DyadicTenant(i) for i in range(n)]


#: Fair share 1 MiB/s, 256 KiB requests and demand 2x (hot) or 0.5x
#: (cold) fair share: mean interarrivals are powers of two at 2 and 4
#: tenants per node, and so are service times at a 16 MiB/s device.
DYADIC_CONFIG = ClusterConfig(
    n_nodes=8,
    shards=1,
    tenants_per_node=2,
    rounds=10,
    cluster_rate=8 * MiB,
    request_bytes=256 * KiB,
    node_peak_bw=16 * MiB,
    hot_demand=2.0,
    cold_demand=0.5,
    slo_latency_s=1.0,
)
#: ``(policy, shards, tenants_per_node)`` -> fingerprint under the stub.
#: Where a 1- and a 2-shard pin differ, only the merged ``"all"`` latency
#: sum does: it adds the shards' partial sums in another order.
DYADIC_FINGERPRINTS = {
    ("centralized", 1, 2): "38c6be4e816f7bc363614f8dc24c6bbeca176b5ecd3cd87070e1e780b880ff76",
    ("centralized", 2, 2): "cd1f723452c4feb59c46aa54afb111c6fa85cfe8f430b734b2b36a5d6571caa0",
    ("centralized", 1, 4): "4c94617bd5471dbd65fc21a93219f3cf96bba4ede6bd22662ae65db99b2b88c7",
    ("centralized", 2, 4): "816f14e89bcc7a1a180f463deac8f232ba2b3a8f6159c185fc33ccf2449c1716",
    ("adaptbf", 1, 2): "37cad373dfe5dbac680ab16fd823ceda61a425efbb0f219bdfe6c18b450544f8",
    ("adaptbf", 2, 2): "37cad373dfe5dbac680ab16fd823ceda61a425efbb0f219bdfe6c18b450544f8",
    ("adaptbf", 1, 4): "132960674726d1d3b223dfaec96639e997c11195f319c73998e94d7d9fdcb793",
    ("adaptbf", 2, 4): "ca5eb07ff52ee6c8eb7b44abe5c2181c28b53419d2ef38375f9e59dbd69b09a9",
}


class TestDyadicTies:
    """Pins for the order a shard serves simultaneous events in.

    Real RNG draws almost never tie, so the pins above cannot see the
    order in which same-instant arrivals reserve from a node's bucket,
    nor whether an arrival exactly at a round end counts in that round.
    The stub tenants make both happen every round.  Completion-order
    ties are not covered here: dyadic latencies sum exactly in any
    order, so no pin here moves when completions due at one instant
    swap.  ``TestCompletionTies`` covers them.
    """

    @pytest.mark.parametrize("key", sorted(DYADIC_FINGERPRINTS), ids=str)
    def test_fingerprint(self, key, monkeypatch):
        policy, shards, tenants = key
        monkeypatch.setattr("repro.cluster.node.spawn_rngs", _dyadic_tenants)
        cfg = DYADIC_CONFIG.with_(
            arbitration=policy, shards=shards, tenants_per_node=tenants
        )
        assert run_cluster(cfg).fingerprint() == DYADIC_FINGERPRINTS[key]


class TestCompletionTies:
    """Completions due at one instant are observed in ``seq`` order.

    A stand-in device that finishes every request on the next 1/8-s tick
    makes completions tie.  Arrivals are real draws, so latencies are
    not dyadic, and the ``node="all"`` latency sum depends on the order
    in which tied completions are added.
    """

    def test_all_latency_sum_adds_ties_in_seq_order(self, monkeypatch):
        submit = NodeState.submit
        submitted = []  # (done, seq, arrival) in submission order

        def on_next_tick(node, nbytes, now):
            done = math.ceil(submit(node, nbytes, now) * 8) / 8
            submitted.append((done, len(submitted), now))
            return done

        monkeypatch.setattr(NodeState, "submit", on_next_tick)
        cfg = ClusterConfig(n_nodes=4, shards=1, tenants_per_node=2, rounds=10, seed=3)
        hist = run_cluster(cfg).registry.get("cluster.latency_s")
        observed = sorted(c for c in submitted if c[0] <= cfg.horizon)
        assert len({done for done, _, _ in observed}) < len(observed) / 2
        expected = 0.0
        for done, _, arrival in observed:
            expected += done - arrival
        assert hist.count(node="all") == len(observed)
        assert hist.sum(node="all") == expected


class TestCompletionOrder:
    """Each completion is observed in ``(done, seq)`` order, one by one.

    ``TestCompletionTies`` sees the order through a float sum, which a
    swap of two tied completions can leave unchanged.  On the same
    next-tick device this records every observation.  At 28 of its 75
    tied instants a completion carried from an earlier round ties with
    one submitted in the round it completes in; the carried one was
    submitted first, so it is observed first.
    """

    def test_observed_in_done_then_submit_order(self, monkeypatch):
        submit, complete = NodeState.submit, NodeState.complete
        submitted = {}  # (node id, arrival) -> (done, seq)
        observed = []

        def on_next_tick(node, nbytes, now):
            done = math.ceil(submit(node, nbytes, now) * 8) / 8
            submitted[node.id, now] = (done, len(submitted))
            return done

        def recorded(node, nbytes, arrival, done):
            observed.append(submitted[node.id, arrival])
            complete(node, nbytes, arrival, done)

        monkeypatch.setattr(NodeState, "submit", on_next_tick)
        monkeypatch.setattr(NodeState, "complete", recorded)
        cfg = ClusterConfig(n_nodes=4, shards=1, tenants_per_node=2, rounds=10, seed=3)
        run_cluster(cfg)
        assert observed == sorted(v for v in submitted.values() if v[0] <= cfg.horizon)
        # Both kinds meet at some tied instants (1-s rounds: an arrival
        # at ``now`` is served in the round ending at ``ceil(now)``).
        outlived_at = {}  # done -> {whether each completion outlived its round}
        for (_, arrival), (done, _) in submitted.items():
            if done <= cfg.horizon:
                outlived_at.setdefault(done, set()).add(done > math.ceil(arrival))
        assert sum(kinds == {True, False} for kinds in outlived_at.values()) == 28


# -- what the arbitration hooks see -------------------------------------


class TestPartitionInvariance:
    """A node's outcome does not depend on how nodes are sharded.

    The fingerprint does: the merged ``node="all"`` latency series adds
    the shards' partial sums in shard order (see the comment on
    ``DYADIC_FINGERPRINTS``), so that series is left out here.
    """

    @staticmethod
    def _per_node(result):
        metrics = {
            name: [row for row in m["series"] if row["labels"].get("node") != "all"]
            for name, m in result.registry.snapshot().items()
        }
        return {
            "metrics": metrics,
            "slo_board": result.slo_board(),
            "reports": result.reports,
            "round_rates": result.round_rates,
            "events_executed": result.events_executed,
            "messages_by_kind": result.messages_by_kind,
        }

    @pytest.mark.parametrize("policy", ["centralized", "adaptbf"])
    def test_per_node_outcomes_match_across_shard_counts(self, policy):
        cfg = PARITY_CONFIG.with_(arbitration=policy, collect_round_stats=True)
        one = self._per_node(run_cluster(cfg))
        assert len(one["metrics"]["cluster.latency_s"]) == cfg.n_nodes
        for shards in (2, 4):
            got = self._per_node(run_cluster(cfg.with_(shards=shards)))
            assert got == one, f"{shards} shards"


class _HookProbe(AdaptiveTokenBorrowing):
    """Token borrowing that records the node state each hook sees."""

    def __init__(self, config, node_id: int, seen: dict) -> None:
        super().__init__(config, node_id)
        self._seen = seen.setdefault(node_id, [])

    def _see(self, hook: str, node, now: float) -> None:
        self._seen.append(
            [
                hook,
                now,
                node.completions,
                node.served_bytes,
                node.violations,
                node.demand_bytes_round,
                node.bucket.backlog_bytes(now),
            ]
        )

    def on_round_start(self, node, inbox, now: float, emit) -> None:
        self._see("start", node, now)
        super().on_round_start(node, inbox, now, emit)

    def on_round_end(self, node, now: float, emit) -> None:
        self._see("end", node, now)
        super().on_round_end(node, now, emit)


@pytest.fixture
def hook_probe():
    """Register ``hook-probe`` for one test; yields the per-node records."""
    seen: dict[int, list] = {}
    register_arbitration(
        "hook-probe", lambda config, node_id: _HookProbe(config, node_id, seen)
    )
    try:
        yield seen
    finally:
        ARBITRATION.unregister("hook-probe")


def _seen_digest(seen: dict) -> str:
    blob = json.dumps(sorted(seen.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Every hook observation of ``PARITY_CONFIG`` under ``hook-probe``, per
#: node; a node's records do not depend on the shard layout.
HOOK_PROBE_DIGEST = (
    "de00d6291c67aff1bb40f8c26d7b04bf205bf497b1ab53e85924dd5cbdd920f8"
)


class TestHookObservations:
    """Hooks see the node state the round's events left, exactly.

    A custom policy may read any node field, not only the ones the two
    built-ins read, so this pins completion counts and served bytes at
    every boundary as well as demand and backlog.
    """

    @pytest.mark.parametrize("shards", [1, 2])
    def test_hooks_see_pinned_state(self, hook_probe, shards):
        run_cluster(PARITY_CONFIG.with_(arbitration="hook-probe", shards=shards))
        assert _seen_digest(hook_probe) == HOOK_PROBE_DIGEST


# -- round boundaries and leftovers ---------------------------------------


@pytest.mark.parametrize("interval", [0.1, 0.37])
def test_sim_time_lands_on_the_horizon(interval):
    """Round ``k`` ends at ``(k + 1) * round_interval`` exactly, so a
    round interval that floats cannot represent still ends on the
    horizon."""
    cfg = ClusterConfig(
        n_nodes=4, shards=2, tenants_per_node=1, round_interval=interval, rounds=6
    )
    assert run_cluster(cfg).sim_time == cfg.horizon


def test_round_start_hooks_see_the_round_start(hook_probe):
    cfg = PARITY_CONFIG.with_(arbitration="hook-probe", round_interval=0.1)
    run_cluster(cfg)
    for records in hook_probe.values():
        starts = [rec[1] for rec in records if rec[0] == "start"]
        ends = [rec[1] for rec in records if rec[0] == "end"]
        assert starts == [k * 0.1 for k in range(cfg.rounds)]
        assert ends == [(k + 1) * 0.1 for k in range(cfg.rounds)]


#: ``PARITY_CONFIG`` at a 0.1 s round interval (20 rounds), recorded
#: with boundaries at ``k * 0.1``.  Token borrowing re-rates buckets at
#: the round-start instant, so its digest moved when that instant stopped
#: drifting by an ulp from ``k * 0.1``; the centralized one did not.
SUBSECOND_FINGERPRINTS = {
    "centralized": "fa7a93372c86b4085312eaa9956324ed716e0ff56918b0b6c380a0d86d5002ad",
    "adaptbf": "8a81fe4e22bb90404ba590beac15de5c0acf3d5fdf717be04ebfc33a06ccba7c",
}


@pytest.mark.parametrize("policy", sorted(SUBSECOND_FINGERPRINTS))
def test_subsecond_rounds_pinned(policy):
    cfg = PARITY_CONFIG.with_(round_interval=0.1, rounds=20, arbitration=policy)
    assert run_cluster(cfg).fingerprint() == SUBSECOND_FINGERPRINTS[policy]


def test_finished_runs_leave_no_cyclic_garbage():
    """A finished shard is freed by reference counting alone: nothing
    in it links back to itself, so the cyclic collector finds nothing."""
    cfg = ClusterConfig(n_nodes=4, shards=2, tenants_per_node=2, rounds=3)
    gc.collect()
    gc.disable()
    try:
        run_cluster(cfg)
        run_cluster(cfg.with_(arbitration="adaptbf"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cluster_package_needs_no_event_kernel():
    """Shards drain their own arrival and completion heaps."""
    for path in Path(repro.cluster.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not any(n.startswith("repro.simkernel") for n in names), path.name
