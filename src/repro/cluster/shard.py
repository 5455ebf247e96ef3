"""One shard: a node subset advanced by its own arrival loop.

A shard owns the nodes ``{i : i % shards == shard_id}`` and advances
them through bounded-lag rounds::

    advance_round(k, inbound):
        deliver inbound messages (canonical order), run arbitration
        round-start hooks, serve every arrival due by the round's end,
        observe every completion due by then, run round-end hooks;
        return everything the nodes emitted.

The shard needs no event kernel.  Token-bucket rates move only in the
hooks, and a request's completion instant is fixed when it is submitted,
so a round drains the arrival heap in ``(time, seq)`` order, each
arrival submitted and its tenant's next arrival drawn, then observes
the completions due by the round's end in ``(time, seq)`` order.  A
completion due in its own round never touches a heap: it waits on the
round's list, which the carried heap's due entries join and one sort
orders.  Only a request that outlives its round is carried on the heap.
That is the order an event kernel would run them in, and the hooks see
the same node state.

Nothing in a shard references another shard — node RNG streams are
spawned for the *whole cluster* and indexed by node id, metrics are
node-labelled in a private registry, and all coupling rides the returned
message batch — so the same node partitioned differently (or hosted by a
different worker process) produces a bit-identical outcome: its metric
series, SLO counts, report and rate timeline.  Cluster-wide series are
another matter: ``run_cluster`` folds the shards' ``node="all"`` latency
sums in shard order, so their last bits, and with them
``ClusterResult.fingerprint()``, move with the shard count (never with
the worker count).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush, heapreplace
from operator import itemgetter

from repro.cluster.arbitration import ARBITRATION
from repro.cluster.bus import Message, Outbox, route
from repro.cluster.node import NodeReport, NodeState
from repro.obs.metrics import Registry
from repro.util.rng import spawn_rngs

__all__ = ["ShardRuntime", "ShardResult"]

_completion_time = itemgetter(0)


@dataclass(frozen=True)
class ShardResult:
    """The picklable outcome a shard ships home at finalize."""

    shard_id: int
    reports: tuple[NodeReport, ...]
    registry: Registry
    #: The model's events: one start per tenant, one per arrival served
    #: and one per completion observed by the shard's last round end.
    events_executed: int
    sim_time: float


class ShardRuntime:
    """Live shard state (lives inside one worker for the whole run)."""

    def __init__(self, config, shard_id: int) -> None:
        self.config = config
        self.shard_id = shard_id
        self.registry = Registry()
        self.now = 0.0
        self._request_bytes = float(config.request_bytes)
        # Spawn the full cluster's RNG fan-out and keep only this shard's
        # streams: node i's randomness is a function of (seed, i), never
        # of the shard layout — repartitioning cannot move anyone's dice.
        rngs = spawn_rngs(config.seed, config.n_nodes)
        self.nodes: list[NodeState] = []
        # Each tenant's next arrival, ``(time, seq, node, rng, mean)``.
        # ``seq`` is unique, so heap comparisons never reach ``node``;
        # it grows in the order arrivals are drawn, which breaks ties
        # first-drawn first.  The first draws run in node order, then
        # tenant order.  ``mean * standard_exponential()`` and ``0.5 +
        # random()`` are the IEEE operations numpy's ``exponential(mean)``
        # and ``uniform(0.5, 1.5)`` perform on the same draws
        # (tests/test_util_rng.py pins the identity).
        self._arrivals: list[tuple] = []
        arbiter = ARBITRATION[config.arbitration]
        for node_id in config.nodes_of_shard(shard_id):
            node = NodeState(config, node_id, self.registry, rngs[node_id])
            node.arbiter = arbiter(config, node_id)
            self.nodes.append(node)
            mean = node.mean_interarrival
            for rng in node.tenant_rngs:
                self._arrivals.append(
                    (mean * rng.standard_exponential(), len(self._arrivals), node, rng, mean)
                )
        heapify(self._arrivals)
        self._seq = len(self._arrivals)
        # Submitted requests not yet observed, ``(done, seq, node,
        # nbytes, arrival)`` with ``seq`` from the same counter.
        self._completions: list[tuple] = []
        self.events_executed = len(self._arrivals)  # one start per tenant

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
        # Both boundaries are ``k * round_interval`` evaluated fresh, so
        # this round starts exactly where the last one ended and the
        # last one ends exactly on ``config.horizon``.
        start = round_idx * self.config.round_interval
        end = (round_idx + 1) * self.config.round_interval
        inboxes = route(inbound)
        outboxes: list[Outbox] = []
        for node in self.nodes:
            node.begin_round()
            inbox = inboxes.get(node.id, [])
            node.msgs_received += len(inbox)
            outbox = Outbox(src=node.id, time=start)
            outboxes.append(outbox)
            node.arbiter.on_round_start(node, inbox, start, outbox.emit)
        self._serve(end)
        self.now = end
        for node, outbox in zip(self.nodes, outboxes):
            outbox.time = end
            node.arbiter.on_round_end(node, end, outbox.emit)
        emitted: list[Message] = []
        for node, outbox in zip(self.nodes, outboxes):
            node.msgs_sent += len(outbox.messages)
            emitted.extend(outbox.messages)
        if not self.config.collect_round_stats:
            return emitted, None
        return emitted, tuple((node.id, node.rate) for node in self.nodes)

    def _serve(self, end: float) -> None:
        """Serve every arrival due by ``end``, then observe every
        completion due by ``end`` in ``(time, seq)`` order.

        The carried heap holds requests that outlived an earlier round;
        its entries due by ``end`` open this round's list, in ``(time,
        seq)`` order.  A request submitted now joins the list when it
        completes by ``end`` and goes on the heap only when it outlives
        the round.  Every carried ``seq`` precedes every new one, so one
        stable sort on the completion time alone puts the whole list in
        ``(time, seq)`` order, ties included.
        """
        arrivals = self._arrivals
        carried = self._completions
        due: list[tuple] = []
        while carried and carried[0][0] <= end:
            due.append(heappop(carried))
        request_bytes = self._request_bytes
        seq = seq0 = self._seq
        while arrivals[0][0] <= end:
            now, _, node, rng, mean = arrivals[0]
            nbytes = request_bytes * (0.5 + rng.random())
            done = node.submit(nbytes, now)
            if done <= end:
                due.append((done, seq, node, nbytes, now))
            else:
                heappush(carried, (done, seq, node, nbytes, now))
            heapreplace(
                arrivals, (now + mean * rng.standard_exponential(), seq, node, rng, mean)
            )
            seq += 1
        self._seq = seq
        due.sort(key=_completion_time)
        for done, _, node, nbytes, arrival in due:
            node.complete(nbytes, arrival, done)
        self.events_executed += seq - seq0 + len(due)

    def finalize(self) -> ShardResult:
        """Fold node totals into the registry and ship the shard outcome."""
        now = self.now
        for node in self.nodes:
            node.fold_metrics()
        return ShardResult(
            shard_id=self.shard_id,
            reports=tuple(node.report(now) for node in self.nodes),
            registry=self.registry,
            events_executed=self.events_executed,
            sim_time=now,
        )
