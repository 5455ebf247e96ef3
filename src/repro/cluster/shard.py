"""One shard: a self-contained :class:`Simulation` over a node subset.

A shard owns the nodes ``{i : i % shards == shard_id}`` and advances
them through bounded-lag rounds::

    advance_round(k, inbound):
        deliver inbound messages (canonical order), run arbitration
        round-start hooks, simulate ``round_interval`` seconds, run
        round-end hooks; return everything the nodes emitted.

Nothing in a shard references another shard — node RNG streams are
spawned for the *whole cluster* and indexed by node id, metrics are
node-labelled in a private registry, and all coupling rides the returned
message batch — so the same node partitioned differently (or hosted by a
different worker process) produces bit-identical outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.arbitration import ARBITRATION
from repro.cluster.bus import Message, Outbox, route
from repro.cluster.node import NodeReport, NodeState
from repro.obs.metrics import Registry
from repro.simkernel import Simulation
from repro.util.rng import spawn_rngs

__all__ = ["ShardRuntime", "ShardResult"]


@dataclass(frozen=True)
class ShardResult:
    """The picklable outcome a shard ships home at finalize."""

    shard_id: int
    reports: tuple[NodeReport, ...]
    registry: Registry
    events_executed: int
    sim_time: float


class ShardRuntime:
    """Live shard state (lives inside one worker for the whole run)."""

    def __init__(self, config, shard_id: int) -> None:
        self.config = config
        self.shard_id = shard_id
        self.sim = Simulation()
        self.registry = Registry()
        # Spawn the full cluster's RNG fan-out and keep only this shard's
        # streams: node i's randomness is a function of (seed, i), never
        # of the shard layout — repartitioning cannot move anyone's dice.
        rngs = spawn_rngs(config.seed, config.n_nodes)
        self.nodes: list[NodeState] = []
        for node_id in config.nodes_of_shard(shard_id):
            node = NodeState(config, node_id, self.sim, self.registry, rngs[node_id])
            node.arbiter = ARBITRATION.create(config.arbitration, config, node_id)
            self.nodes.append(node)

    def advance_round(
        self, round_idx: int, inbound: list[Message]
    ) -> tuple[list[Message], tuple[tuple[int, float], ...] | None]:
        """Run one bounded-lag round; returns (emitted messages, rate rows).

        ``inbound`` is last round's traffic addressed to this shard's
        nodes; emitted messages carry the boundary timestamps of *this*
        round and are due for delivery at the next one.  Rate rows
        (``(node_id, rate)`` after the round-end hooks) feed the
        kernel's conservation audit; ``None`` when round stats are off.
        """
        start = round_idx * self.config.round_interval
        end = start + self.config.round_interval
        inboxes = route(inbound)
        outboxes: list[Outbox] = []
        for node in self.nodes:
            node.begin_round()
            inbox = inboxes.get(node.id, [])
            node.msgs_received += len(inbox)
            outbox = Outbox(src=node.id, time=start)
            outboxes.append(outbox)
            node.arbiter.on_round_start(node, inbox, self.sim.now, outbox.emit)
        self.sim.run(until=end)
        for node, outbox in zip(self.nodes, outboxes):
            outbox.time = end
            node.arbiter.on_round_end(node, self.sim.now, outbox.emit)
        emitted: list[Message] = []
        for node, outbox in zip(self.nodes, outboxes):
            node.msgs_sent += len(outbox.messages)
            emitted.extend(outbox.messages)
        if not self.config.collect_round_stats:
            return emitted, None
        return emitted, tuple((node.id, node.rate) for node in self.nodes)

    def finalize(self) -> ShardResult:
        """Fold node totals into the registry and ship the shard outcome."""
        now = self.sim.now
        for node in self.nodes:
            node.fold_metrics()
        return ShardResult(
            shard_id=self.shard_id,
            reports=tuple(node.report(now) for node in self.nodes),
            registry=self.registry,
            events_executed=self.sim.events_executed,
            sim_time=now,
        )
