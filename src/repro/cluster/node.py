"""One simulated node: a token-governed local device under tenant load.

A node stands in for one machine's local ephemeral storage: a
:class:`~repro.dataplane.policy.TokenBucket` whose rate is the node's
current share of the cluster bandwidth budget (the arbitration policy
moves it at round boundaries), serving ``tenants_per_node`` independent
demand streams.  A request reserves its bytes from the bucket (FIFO
shaping delay), then transfers at the device's peak bandwidth;
``latency = shaping delay + transfer time``, scored against the
config's latency SLO.

A node schedules nothing itself.  Its shard draws the tenants'
arrivals, :meth:`NodeState.submit` returns each request's completion
instant (the reservation fixes it), and the shard hands the completion
back through :meth:`NodeState.complete` at the end of the round it
falls in, before the round-end hooks run.  A completion records its
latency into the node's own series and the cluster-wide ``"all"``
series through one histogram handle, with one bucket search for both.

Nodes never touch each other's state inside a shard — all cross-node
coupling flows through the round-boundary message bus — so per-node
outcomes depend only on ``(config, node_id)`` and the node's inbox,
never on which shard or worker hosts it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataplane.policy import TokenBucket
from repro.obs.metrics import Registry
from repro.util.rng import spawn_rngs

__all__ = ["NodeState", "NodeReport", "LATENCY_BUCKETS"]

#: Histogram layout for request latency (seconds): geometric from 10 ms
#: to ~870 s, ~1.5× steps — fine enough that the bucketed p99 tracks the
#: true tail, coarse enough to stay cheap to merge.
LATENCY_BUCKETS = tuple(0.01 * 1.5**i for i in range(28))


@dataclass(frozen=True)
class NodeReport:
    """The picklable per-node outcome a shard ships back at finalize."""

    node_id: int
    demand_bytes: float
    served_bytes: float
    completions: int
    violations: int
    backlog_bytes: float
    rate: float
    msgs_sent: int
    msgs_received: int


class NodeState:
    """Live per-node state inside one shard.

    Holds the tenants' RNG streams (``tenant_rngs``) and their
    ``mean_interarrival`` for the shard's arrival loop.
    """

    def __init__(self, config, node_id: int, registry: Registry, rng) -> None:
        self.config = config
        self.id = node_id
        self.registry = registry
        self.base_rate = config.base_rate
        self.rate = config.base_rate
        # Burst capacity is pinned to the *fair-share* rate so borrowing
        # moves refill speed, not burst allowance — lent tokens cannot
        # inflate a neighbour's burst budget.
        self.bucket = TokenBucket(
            capacity=config.burst_s * config.base_rate,
            rate=config.base_rate,
            start=0.0,
        )
        # Read once: the request path runs per arrival and completion.
        self._peak_bw = config.node_peak_bw
        self._slo_latency_s = config.slo_latency_s
        self._label = f"{node_id:04d}"
        latency = registry.histogram(
            "cluster.latency_s",
            "request latency (shaping + transfer), seconds",
            buckets=LATENCY_BUCKETS,
        )
        # Two series per observation, through one handle and one bucket
        # search: the node's own (per-node tails, merged across shards by
        # label) and the cluster-wide "all" series (global p99 without a
        # second reduction pass).  Both are keyed once here and created
        # at the node's first observation.
        self._latency = latency.bind({"node": self._label}, {"node": "all"})
        # -- totals over the whole run -----------------------------------
        self.demand_bytes = 0.0
        self.served_bytes = 0.0
        self.completions = 0
        self.violations = 0
        self.msgs_sent = 0
        self.msgs_received = 0
        # -- per-round accounting (reset by begin_round) ------------------
        self.demand_bytes_round = 0.0
        # Per-tenant demand: the node offers ``demand_multiplier × fair
        # share`` split evenly over its tenants; request sizes jitter
        # ±50 % and interarrivals are exponential, all from this node's
        # spawned RNG streams — deterministic per (seed, node_id).
        demand_rate = config.demand_multiplier(node_id) * config.base_rate
        per_tenant = demand_rate / config.tenants_per_node
        self.mean_interarrival = config.request_bytes / per_tenant
        self.tenant_rngs = spawn_rngs(rng, config.tenants_per_node)
        self.arbiter = None  # set by the shard right after construction

    # -- workload ---------------------------------------------------------

    def submit(self, nbytes: float, now: float) -> float:
        """Admit one request at ``now``; returns its completion instant.

        The bucket reservation fixes the shaping delay at submit (FIFO,
        and a reservation always succeeds), so the instant is known here.
        """
        self.demand_bytes += nbytes
        self.demand_bytes_round += nbytes
        delay = self.bucket.reserve(nbytes, now)
        return now + (delay + nbytes / self._peak_bw)

    def complete(self, nbytes: float, arrival: float, done: float) -> None:
        """Observe one completion: served bytes, SLO score, latency."""
        latency = done - arrival
        self.served_bytes += nbytes
        self.completions += 1
        if latency > self._slo_latency_s:
            self.violations += 1
        self._latency.observe(latency)

    # -- round protocol ---------------------------------------------------

    def begin_round(self) -> None:
        """Reset per-round accounting (called at each round start)."""
        self.demand_bytes_round = 0.0

    def utilisation(self) -> float:
        """Tokens drawn this round over the round's refill budget.

        Can exceed 1 while a backlog builds (reservations always succeed
        by pushing the bucket anchor into the future).
        """
        budget = self.rate * self.config.round_interval
        return self.demand_bytes_round / budget if budget > 0 else 0.0

    def set_rate(self, rate: float, now: float) -> None:
        """Move this node's bandwidth share (arbitration's only lever)."""
        self.rate = float(rate)
        self.bucket.set_rate(self.rate, now)

    # -- finalize ---------------------------------------------------------

    def report(self, now: float) -> NodeReport:
        return NodeReport(
            node_id=self.id,
            demand_bytes=self.demand_bytes,
            served_bytes=self.served_bytes,
            completions=self.completions,
            violations=self.violations,
            backlog_bytes=self.bucket.backlog_bytes(now),
            rate=self.rate,
            msgs_sent=self.msgs_sent,
            msgs_received=self.msgs_received,
        )

    def fold_metrics(self) -> None:
        """Fold run totals into the shard registry (one shot, at finalize)."""
        reg = self.registry
        label = self._label
        reg.counter("cluster.node.demand_bytes").inc(self.demand_bytes, node=label)
        reg.counter("cluster.node.served_bytes").inc(self.served_bytes, node=label)
        reg.counter("cluster.node.completions").inc(self.completions, node=label)
        if self.violations:
            reg.counter("cluster.node.slo_violations").inc(self.violations, node=label)
        reg.gauge("cluster.node.rate").set(self.rate, node=label)
