"""The cluster kernel: bounded-lag rounds over a shard pool.

:func:`run_cluster` is the one entry point: it advances every shard in
lockstep rounds on a shard pool, ferries bus traffic between
boundaries, and folds the shard outcomes into one :class:`ClusterResult`.

Where the shards run is the caller's choice.  Without ``pool=`` every
shard runs in this process, whatever ``config.workers`` says:
``run_cluster`` never starts worker processes itself.  ``spawn``
workers cost roughly half a second before their first round, and on
the shapes measured on a 2-vCPU host a fresh pool at best broke even
(architecture §12).  A caller that wants workers builds them with
:func:`~repro.cluster.pool.make_shard_pool` (sized by
``config.workers``) and passes the pool in, which also lets
back-to-back runs share one start-up.

Determinism contract: the result — merged metrics, SLO board, node
reports, the :meth:`ClusterResult.fingerprint` over all of it — is a
pure function of ``(config, seed)``.  Worker count only changes where
shards execute; the cross-shard schedule (round boundaries + canonical
message order) and the merge order (shard 0..S−1) are fixed.  Wall-clock
timing starts *after* the pool is up, so throughput numbers measure
simulation, not process spawn.
"""

from __future__ import annotations

import hashlib
import json
import time as _time
from dataclasses import dataclass, field

from repro.cluster.bus import Message
from repro.cluster.config import ClusterConfig
from repro.cluster.pool import make_shard_pool
from repro.cluster.node import NodeReport
from repro.obs.metrics import Registry

__all__ = ["ClusterResult", "run_cluster", "jain_index"]

#: Message kinds whose payload ``amount`` is rate in flight between a
#: sender's debit (at emit) and the receiver's credit (at delivery).
_RATE_CARRIERS = ("grant", "return")


def jain_index(values) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)``; 1.0 is perfectly fair."""
    xs = [float(v) for v in values]
    if not xs:
        return float("nan")
    sq = sum(x * x for x in xs)
    if sq == 0.0:
        return 1.0
    total = sum(xs)
    return (total * total) / (len(xs) * sq)


@dataclass
class ClusterResult:
    """Everything a cluster run produced, merged in canonical order."""

    config: ClusterConfig
    #: Worker processes the shards ran on: the size of the pool passed
    #: to :func:`run_cluster`, 1 (in-process) without one.
    workers: int
    #: Per-node outcomes, ascending node id.
    reports: tuple[NodeReport, ...]
    #: Shard registries folded together (shard 0..S−1 order).
    registry: Registry
    #: The model's events, summed over shards: one start per tenant, one
    #: per arrival and one per completion by the horizon — the count an
    #: event kernel running the same model would execute.
    events_executed: int
    #: Simulated seconds covered (== config.horizon).
    sim_time: float
    #: Wall seconds for the round loop + finalize (pool spawn excluded).
    wall_s: float
    #: Bus traffic by message kind over the whole run.
    messages_by_kind: dict = field(default_factory=dict)
    #: Per-round ``(node_id, rate)`` rows (None when round stats are off).
    round_rates: tuple | None = None
    #: Worst |Σ rates + in-flight − budget| / budget over all boundaries
    #: (the rate-conservation audit; None when round stats are off).
    conservation_error: float | None = None

    # -- derived ----------------------------------------------------------

    @property
    def messages_total(self) -> int:
        return sum(self.messages_by_kind.values())

    @property
    def events_per_sec(self) -> float:
        """Aggregate model-event throughput across all shards."""
        return self.events_executed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def jain_fairness(self) -> float:
        """Jain index over per-node service ratios (served / demanded).

        Demand-normalised so heterogeneous offered load does not read as
        unfairness: a perfectly fair arbiter serves every node the same
        *fraction* of what it asked for.
        """
        ratios = [
            r.served_bytes / r.demand_bytes
            for r in self.reports
            if r.demand_bytes > 0
        ]
        return jain_index(ratios)

    @property
    def p99_latency_s(self) -> float:
        """Cluster-wide p99 request latency from the merged histogram."""
        hist = self.registry.get("cluster.latency_s")
        return hist.quantile(0.99, node="all")

    @property
    def slo_violation_rate(self) -> float:
        total = sum(r.completions for r in self.reports)
        if total == 0:
            return 0.0
        return sum(r.violations for r in self.reports) / total

    def slo_board(self) -> list[dict]:
        """Per-node SLO scoreboard (ascending node id; plain data)."""
        return [
            {
                "node": r.node_id,
                "completions": r.completions,
                "violations": r.violations,
                "violation_rate": (
                    r.violations / r.completions if r.completions else 0.0
                ),
                "served_bytes": r.served_bytes,
                "demand_bytes": r.demand_bytes,
                "rate": r.rate,
            }
            for r in self.reports
        ]

    def fingerprint(self) -> str:
        """sha256 over the canonical JSON of everything merged.

        Two runs of the same ``(config, seed)`` — at any worker count —
        must produce the same digest; the guard tests pin this.
        """
        doc = {
            "metrics": self.registry.snapshot(),
            "slo_board": self.slo_board(),
            "messages_by_kind": dict(sorted(self.messages_by_kind.items())),
            "events_executed": self.events_executed,
            "sim_time": self.sim_time,
            "round_rates": self.round_rates,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def run_cluster(config: ClusterConfig, *, pool=None) -> ClusterResult:
    """Run one cluster scenario to completion; see the module docstring.

    ``pool`` is a caller-owned shard pool — ``make_shard_pool(config)``
    for ``config.workers`` processes.  It is reset to ``config`` first
    and left open afterwards, so back-to-back runs (benchmark repeats,
    policy sweeps over one topology) pay worker spawn once.  Without it
    every shard runs in this process on a pool built and closed here.
    """
    external = pool is not None
    if external:
        pool.reset(config)
    else:
        pool = make_shard_pool(config, 1)
    workers = pool.workers
    try:
        t0 = _time.perf_counter()
        pending: list[Message] = []
        by_kind: dict[str, int] = {}
        round_rows: list[tuple] = []
        worst_err = 0.0
        for r in range(config.rounds):
            per_shard: dict[int, list[Message]] = {}
            for msg in pending:
                per_shard.setdefault(config.shard_of(msg.dst), []).append(msg)
            results = pool.round(r, per_shard)
            pending = []
            rates: list[tuple[int, float]] = []
            for sid in range(config.shards):
                emitted, rows = results[sid]
                pending.extend(emitted)
                if rows is not None:
                    rates.extend(rows)
            for msg in pending:
                by_kind[msg.kind] = by_kind.get(msg.kind, 0) + 1
            if config.collect_round_stats:
                rates.sort()
                round_rows.append(tuple(rates))
                in_flight = sum(
                    m.get("amount") for m in pending if m.kind in _RATE_CARRIERS
                )
                total = sum(rate for _, rate in rates) + in_flight
                worst_err = max(
                    worst_err, abs(total - config.total_rate) / config.total_rate
                )
        shard_results = pool.finalize()
        wall = _time.perf_counter() - t0
    finally:
        if not external:
            pool.close()

    registry = Registry()
    reports: list[NodeReport] = []
    events = 0
    sim_time = 0.0
    for sid in range(config.shards):
        res = shard_results[sid]
        registry.merge(res.registry)
        reports.extend(res.reports)
        events += res.events_executed
        sim_time = max(sim_time, res.sim_time)
    reports.sort(key=lambda rep: rep.node_id)

    return ClusterResult(
        config=config,
        workers=workers,
        reports=tuple(reports),
        registry=registry,
        events_executed=events,
        sim_time=sim_time,
        wall_s=wall,
        messages_by_kind=by_kind,
        round_rates=tuple(round_rows) if config.collect_round_stats else None,
        conservation_error=worst_err if config.collect_round_stats else None,
    )
