"""Node-sharded cluster kernel with pluggable bandwidth arbitration.

One :class:`ClusterConfig` describes ``n_nodes`` token-governed nodes
partitioned over ``shards`` independent shards, advanced in bounded-lag
rounds by :func:`run_cluster` — serially or on a pool of ``spawn``
workers, with bit-identical results either way.  A shard needs no event
kernel: it drains its tenants' arrivals from one heap and observes the
completions due at each round end (:mod:`repro.cluster.shard`).  Cross-node
bandwidth arbitration is a registry axis (:data:`ARBITRATION`):
``centralized`` mirrors the paper's global weight controller,
``adaptbf`` trades tokens between ring neighbours with no coordinator.
"""

from repro.cluster.arbitration import (
    ARBITRATION,
    AdaptiveTokenBorrowing,
    ArbitrationPolicy,
    CentralizedWeights,
    register_arbitration,
)
from repro.cluster.bus import Message, Outbox, route
from repro.cluster.config import ClusterConfig
from repro.cluster.kernel import ClusterResult, jain_index, run_cluster
from repro.cluster.node import LATENCY_BUCKETS, NodeReport, NodeState
from repro.cluster.pool import (
    SerialShardPool,
    ShardPool,
    ShardWorkerError,
    make_shard_pool,
)
from repro.cluster.shard import ShardResult, ShardRuntime

__all__ = [
    "ARBITRATION",
    "register_arbitration",
    "ArbitrationPolicy",
    "CentralizedWeights",
    "AdaptiveTokenBorrowing",
    "Message",
    "Outbox",
    "route",
    "ClusterConfig",
    "ClusterResult",
    "run_cluster",
    "jain_index",
    "NodeState",
    "NodeReport",
    "LATENCY_BUCKETS",
    "ShardRuntime",
    "ShardResult",
    "ShardPool",
    "SerialShardPool",
    "ShardWorkerError",
    "make_shard_pool",
]
