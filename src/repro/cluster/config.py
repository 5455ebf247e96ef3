"""``ClusterConfig``: one frozen, picklable description of a cluster run.

A cluster run is ``n_nodes`` simulated nodes partitioned over ``shards``
shard simulations, advanced in bounded-lag rounds of ``round_interval``
simulated seconds (see :mod:`repro.cluster.kernel`).  Every knob lives
here so a config can cross a ``spawn`` process boundary and rebuild the
exact same cluster in a worker — determinism is a function of
``(config, seed)`` alone, never of where a shard executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.util.units import MiB, mb_per_s

__all__ = ["ClusterConfig"]

#: Fields that must be finite and > 0 (``cluster_rate`` may also be None).
_POSITIVE_FINITE = (
    "round_interval",
    "cluster_rate",
    "burst_s",
    "node_peak_bw",
    "request_bytes",
    "slo_latency_s",
    "hot_demand",
    "cold_demand",
)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to run one multi-node cluster scenario."""

    #: Cluster shape: nodes in the cluster and shard simulations they are
    #: partitioned over (node ``i`` lives on shard ``i % shards``).
    n_nodes: int = 16
    shards: int = 4
    #: Tenants per node, each an independent demand stream against the
    #: node's local ephemeral storage.
    tenants_per_node: int = 4
    #: Bounded-lag window: shards advance in lockstep rounds of this many
    #: simulated seconds; cross-shard messages emitted during round ``k``
    #: are delivered at the start of round ``k + 1``.
    round_interval: float = 1.0
    rounds: int = 30
    #: Cross-node bandwidth arbitration policy, a name from the
    #: :data:`repro.cluster.arbitration.ARBITRATION` registry
    #: ("centralized" mirrors the paper's global weight controller,
    #: "adaptbf" is decentralized adaptive token borrowing).
    arbitration: str = "centralized"
    #: Aggregate cluster bandwidth budget (bytes/s) the arbitration
    #: policy distributes; ``None`` derives ``n_nodes * 40 MB/s``.
    cluster_rate: float | None = None
    #: Token-bucket burst allowance, in seconds of a node's current rate.
    burst_s: float = 2.0
    #: Peak service bandwidth of a node's local device (bytes/s); the
    #: post-admission transfer time of a request is ``nbytes / peak``.
    node_peak_bw: float = mb_per_s(400)
    #: Demand skew (the noisy-neighbor campaign): a ``hot_fraction`` of
    #: nodes — spaced evenly around the node ring, so hot nodes land in
    #: every shard and next to cold ring neighbours — offer
    #: ``hot_demand`` × their fair share, the rest ``cold_demand`` ×.
    #: Defaults keep aggregate demand *feasible but tight* (0.25·2.5 +
    #: 0.75·0.4 ≈ 92.5 % of the budget): hot nodes can only meet their
    #: SLOs if arbitration actually moves the cold nodes' headroom.
    hot_fraction: float = 0.25
    hot_demand: float = 2.5
    cold_demand: float = 0.4
    #: Mean request size (bytes); actual sizes jitter ±50 % per request.
    request_bytes: float = 4 * MiB
    #: Per-request latency SLO (seconds) scored on the cluster SLO board.
    slo_latency_s: float = 2.0
    # -- adaptbf knobs ----------------------------------------------------
    #: Ring neighbors a starving node asks for tokens (split evenly).
    #: The default (±1, ±2) gives a hot node enough cold peers to cover
    #: ``hot_demand`` − 1 fair shares under the default skew.
    borrow_neighbors: int = 4
    #: Fraction of the *base* rate a lender never gives away.
    lend_floor: float = 0.25
    #: Utilisation below which a borrower starts returning tokens.
    return_watermark: float = 0.5
    # -- substrate passthrough -------------------------------------------
    #: Worker processes ``make_shard_pool(config)`` starts: ``None``/1 →
    #: none (every shard in-process), ``"auto"`` → CPUs; always capped by
    #: ``min(shards, REPRO_WORKERS)``.  ``run_cluster`` never starts them
    #: itself: without ``pool=`` it runs every shard in-process.
    workers: int | str | None = None
    #: Collect per-round per-node rate snapshots (timelines + invariant
    #: checks; off for soak benchmarks).
    collect_round_stats: bool = True
    seed: int = 0

    def with_(self, **changes) -> "ClusterConfig":
        """A modified copy (sugar over :func:`dataclasses.replace`)."""
        return replace(self, **changes)

    # -- derived ----------------------------------------------------------

    @property
    def horizon(self) -> float:
        """Total simulated time: ``rounds * round_interval``."""
        return self.rounds * self.round_interval

    @property
    def total_rate(self) -> float:
        """The aggregate budget with the ``cluster_rate=None`` default."""
        return self.cluster_rate if self.cluster_rate is not None else self.n_nodes * mb_per_s(40)

    @property
    def base_rate(self) -> float:
        """The fair-share per-node rate every policy starts from."""
        return self.total_rate / self.n_nodes

    @property
    def n_hot(self) -> int:
        """Number of hot (noisy) nodes; at least one when the fraction is > 0."""
        if self.hot_fraction <= 0:
            return 0
        return max(1, int(round(self.hot_fraction * self.n_nodes)))

    def demand_multiplier(self, node_id: int) -> float:
        """Offered demand of ``node_id`` as a multiple of its fair share.

        Hot nodes are spaced evenly around the ring (the classic
        scattered-noisy-neighbor layout): id ``i`` is hot when
        ``(i · n_hot) mod n_nodes < n_hot``, which picks ``n_hot`` ids at
        stride ``n_nodes / n_hot``.
        """
        if self.n_hot and (node_id * self.n_hot) % self.n_nodes < self.n_hot:
            return self.hot_demand
        return self.cold_demand

    def shard_of(self, node_id: int) -> int:
        """The shard hosting ``node_id`` (round-robin partition)."""
        return node_id % self.shards

    def nodes_of_shard(self, shard_id: int) -> tuple[int, ...]:
        """Node ids hosted by ``shard_id``, ascending."""
        return tuple(range(shard_id, self.n_nodes, self.shards))

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if not 1 <= self.shards <= self.n_nodes:
            raise ValueError(
                f"shards must be in [1, n_nodes={self.n_nodes}], got {self.shards}"
            )
        if self.tenants_per_node < 1:
            raise ValueError(
                f"tenants_per_node must be >= 1, got {self.tenants_per_node}"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        # ``not 0 < x < inf`` also rejects NaN, which every comparison
        # fails: a NaN or infinite size, rate or interval stalls a run or
        # turns its results to NaN.
        for name in _POSITIVE_FINITE:
            value = getattr(self, name)
            if value is None and name == "cluster_rate":
                continue
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in [0, 1], got {self.hot_fraction}")
        if self.borrow_neighbors < 1:
            raise ValueError(
                f"borrow_neighbors must be >= 1, got {self.borrow_neighbors}"
            )
        if not 0.0 <= self.lend_floor < 1.0:
            raise ValueError(f"lend_floor must be in [0, 1), got {self.lend_floor}")
        if not 0.0 <= self.return_watermark <= 1.0:
            raise ValueError(
                f"return_watermark must be in [0, 1], got {self.return_watermark}"
            )
        # Validated lazily against the registry so plugged-in policies
        # (registered before the config is built) are accepted.
        from repro.cluster.arbitration import ARBITRATION

        if self.arbitration not in ARBITRATION:
            raise ValueError(
                f"unknown arbitration policy {self.arbitration!r}; "
                f"expected one of {ARBITRATION.names()}"
            )
