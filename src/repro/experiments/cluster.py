"""Centralized vs decentralized cluster arbitration, head to head.

The experiment the cluster kernel exists for: the same noisy-neighbor
cluster (hot nodes offering ``hot_demand`` × their fair share next to
mostly-idle cold nodes) is run once per arbitration policy and scored on
the three axes the paper's single-node controller never had to trade
off —

* **fairness** — Jain index over per-node service ratios (served bytes
  over demanded bytes, so heterogeneous offered load is not itself
  counted as unfairness);
* **tail latency** — cluster-wide p99 request latency from the merged
  per-shard histograms, plus the SLO violation rate;
* **coordination cost** — bus messages per round, the overhead a
  centralized controller pays always (2·N report/alloc messages each
  round) and AdapTBF pays only where demand is (borrow/grant/return
  between ring neighbours).

Exported end-to-end via ``repro cluster`` / ``repro figure cluster`` /
``repro export cluster``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster import ClusterConfig, ClusterResult, make_shard_pool, run_cluster
from repro.experiments.report import format_table

__all__ = [
    "ClusterCompareRow",
    "ClusterCompareResult",
    "run_cluster_compare",
    "format_rows",
]

#: Policies every comparison covers, in report order.
COMPARED_POLICIES = ("centralized", "adaptbf")


@dataclass(frozen=True)
class ClusterCompareRow:
    """One arbitration policy's scorecard over the shared scenario."""

    policy: str
    jain_fairness: float
    p99_latency_s: float
    slo_violation_rate: float
    completions: int
    messages_total: int
    messages_by_kind: dict
    #: Bus traffic normalised to the scenario size (msgs / round / node).
    msgs_per_round_per_node: float
    #: Worst relative rate-conservation error over all round boundaries.
    conservation_error: float
    events_executed: int


@dataclass
class ClusterCompareResult:
    """Scorecards plus the shared scenario shape, JSON-exportable."""

    n_nodes: int
    shards: int
    rounds: int
    tenants_per_node: int
    workers: int
    seed: int
    rows: list[ClusterCompareRow] = field(default_factory=list)

    def row(self, policy: str) -> ClusterCompareRow:
        for r in self.rows:
            if r.policy == policy:
                return r
        raise KeyError(f"no row for policy {policy!r}")

    def format_rows(self) -> str:
        return format_rows(self)


def _score(result: ClusterResult) -> ClusterCompareRow:
    cfg = result.config
    return ClusterCompareRow(
        policy=cfg.arbitration,
        jain_fairness=result.jain_fairness,
        p99_latency_s=result.p99_latency_s,
        slo_violation_rate=result.slo_violation_rate,
        completions=sum(r.completions for r in result.reports),
        messages_total=result.messages_total,
        messages_by_kind=dict(sorted(result.messages_by_kind.items())),
        msgs_per_round_per_node=result.messages_total / (cfg.rounds * cfg.n_nodes),
        conservation_error=result.conservation_error or 0.0,
        events_executed=result.events_executed,
    )


def run_cluster_compare(
    *,
    n_nodes: int = 32,
    shards: int = 4,
    tenants_per_node: int = 4,
    rounds: int = 40,
    seed: int = 0,
    workers: int | str | None = None,
    policies: tuple = COMPARED_POLICIES,
) -> ClusterCompareResult:
    """Run the same seeded cluster once per arbitration policy.

    Every policy runs on one shard pool of ``workers`` processes
    (in-process at ``None``/1), so workers start once per comparison.
    """
    base = ClusterConfig(
        n_nodes=n_nodes,
        shards=shards,
        tenants_per_node=tenants_per_node,
        rounds=rounds,
        seed=seed,
        workers=workers,
    )
    out = ClusterCompareResult(
        n_nodes=n_nodes,
        shards=shards,
        rounds=rounds,
        tenants_per_node=tenants_per_node,
        workers=0,
        seed=seed,
    )
    pool = make_shard_pool(base)  # one start-up serves every policy
    try:
        for policy in policies:
            result = run_cluster(base.with_(arbitration=policy), pool=pool)
            out.workers = result.workers
            out.rows.append(_score(result))
    finally:
        pool.close()
    return out


def format_rows(result: ClusterCompareResult) -> str:
    """Paper-style text table of the policy scorecards."""
    table = format_table(
        ["policy", "Jain", "p99 (s)", "SLO viol", "reqs", "msgs", "msgs/rd/node"],
        [
            (
                r.policy,
                f"{r.jain_fairness:.4f}",
                f"{r.p99_latency_s:.2f}",
                f"{r.slo_violation_rate * 100:.1f}%",
                r.completions,
                r.messages_total,
                f"{r.msgs_per_round_per_node:.2f}",
            )
            for r in result.rows
        ],
        title=(
            f"Cluster arbitration: {result.n_nodes} nodes x "
            f"{result.tenants_per_node} tenants, {result.shards} shards, "
            f"{result.rounds} rounds (workers={result.workers})"
        ),
    )
    lines = [table, "", "bus traffic by kind:"]
    for r in result.rows:
        kinds = ", ".join(f"{k}={v}" for k, v in r.messages_by_kind.items()) or "-"
        lines.append(f"  {r.policy:12s} {kinds}")
    return "\n".join(lines)
