"""Cross-node bandwidth arbitration policies (the ``ARBITRATION`` axis).

Each node carries one policy instance; the shard calls its two hooks at
every round boundary:

* ``on_round_start(node, inbox, now, emit)`` — consume last round's bus
  traffic and act (apply allocations, grant/absorb loans);
* ``on_round_end(node, now, emit)`` — observe the round just simulated
  and speak (report demand, ask to borrow, return surplus).

``emit(dst, kind, **payload)`` queues a :class:`~repro.cluster.bus.Message`
for delivery at the *next* round start — one bounded-lag hop.  Policies
are deterministic functions of ``(local node state, inbox)``; they hold
no references outside their node, so a policy behaves identically
wherever its shard executes.

Two built-ins frame the comparison the paper invites:

* ``centralized`` mirrors Tango's global weight controller over the bus:
  every node reports demand + backlog to node 0, which water-fills the
  cluster budget and broadcasts allocations — 2·N messages per round and
  a two-hop control lag.
* ``adaptbf`` is AdapTBF-style adaptive token borrowing: every node
  keeps its fair-share token bucket and trades *rate* with its ring
  neighbours — a starving node asks ``borrow_neighbors`` peers for the
  rate its backlog needs, lenders grant only measured idle headroom, and
  borrowers return loans once their utilisation drops.  Traffic is
  demand-proportional (an idle cluster is silent) and rate is conserved:
  every unit leaves the sender when a grant/return is emitted and lands
  at delivery, so ``Σ rates + in-flight == cluster_rate`` at every
  boundary.
"""

from __future__ import annotations

__all__ = [
    "ARBITRATION",
    "ArbitrationPolicy",
    "CentralizedWeights",
    "AdaptiveTokenBorrowing",
]


class ArbitrationPolicy:
    """Base hooks; subclasses override what they need."""

    def __init__(self, config, node_id: int) -> None:
        self.config = config
        self.node_id = node_id

    def on_round_start(self, node, inbox, now: float, emit) -> None:  # noqa: ARG002
        return None

    def on_round_end(self, node, now: float, emit) -> None:  # noqa: ARG002
        return None


class CentralizedWeights(ArbitrationPolicy):
    """The paper's global weight controller, hosted on node 0.

    Every node (the controller included) reports ``(demand, backlog)`` at
    round end; the controller water-fills the cluster budget over the
    latest reports at round start and broadcasts one allocation per node.
    Nodes apply allocations on delivery.  Control lag is two rounds:
    demand observed in round *r* shapes rates from round *r + 2* on.
    """

    CONTROLLER = 0
    #: Guaranteed minimum share (fraction of fair share) so a node that
    #: went idle can always ramp back without a starvation round.
    FLOOR = 0.05

    def __init__(self, config, node_id: int) -> None:
        super().__init__(config, node_id)
        #: Latest report per node (controller only): node -> want-rate.
        self._wants: dict[int, float] = {}

    def on_round_end(self, node, now: float, emit) -> None:
        emit(
            self.CONTROLLER,
            "report",
            demand=node.demand_bytes_round,
            backlog=node.bucket.backlog_bytes(now),
        )

    def on_round_start(self, node, inbox, now: float, emit) -> None:
        for msg in inbox:
            if msg.kind == "report":
                self._wants[msg.src] = (
                    msg.get("demand") + msg.get("backlog")
                ) / self.config.round_interval
            elif msg.kind == "alloc":
                node.set_rate(msg.get("rate"), now)
        if self.node_id == self.CONTROLLER and self._wants:
            for dst, rate in self._allocate():
                emit(dst, "alloc", rate=rate)

    def _allocate(self) -> list[tuple[int, float]]:
        """Floor-then-water-fill the budget over the latest want-rates."""
        cfg = self.config
        n = cfg.n_nodes
        floor = self.FLOOR * cfg.base_rate
        spare = cfg.total_rate - n * floor
        # Unreported nodes (first rounds) count at fair share so early
        # allocations stay near-uniform instead of starving latecomers.
        wants = [self._wants.get(i, cfg.base_rate) for i in range(n)]
        # Left to right on every Python: 3.12's sum() compensates float
        # sums, which would move the allocations' last bits.
        total_want = 0.0
        for want in wants:
            total_want += want
        if total_want <= 0.0:
            return [(i, cfg.base_rate) for i in range(n)]
        return [(i, floor + spare * wants[i] / total_want) for i in range(n)]


class AdaptiveTokenBorrowing(ArbitrationPolicy):
    """Decentralized adaptive token borrowing over a node ring.

    Round end: a node whose bucket carries a backlog asks its
    ``borrow_neighbors`` nearest ring peers for the extra rate one round
    of draining needs (split evenly, total rate capped at ``MAX_RATE_X``
    × fair share); a node whose smoothed utilisation fell below
    ``return_watermark`` hands half of each outstanding loan back.
    Round start: a lender grants the ask up to half its measured idle
    headroom, never cutting itself below ``lend_floor`` × fair share.
    """

    #: Hard ceiling on any node's rate, in fair shares.
    MAX_RATE_X = 4.0
    #: EWMA weight of the newest utilisation sample.
    ALPHA = 0.5

    def __init__(self, config, node_id: int) -> None:
        super().__init__(config, node_id)
        self.borrowed: dict[int, float] = {}
        self.lent: dict[int, float] = {}
        #: Smoothed utilisation; starts pessimistic (fully busy) so no
        #: node lends before it has actually observed idle rounds.
        self.util_ewma = 1.0
        self._eps = 1e-9 * config.base_rate

    # -- helpers ----------------------------------------------------------

    def neighbours(self) -> list[int]:
        """The ``borrow_neighbors`` nearest ring peers, alternating sides."""
        n = self.config.n_nodes
        out: list[int] = []
        d = 1
        while len(out) < min(self.config.borrow_neighbors, n - 1):
            for cand in ((self.node_id + d) % n, (self.node_id - d) % n):
                if cand != self.node_id and cand not in out:
                    out.append(cand)
                if len(out) >= min(self.config.borrow_neighbors, n - 1):
                    break
            d += 1
        return out

    @property
    def borrowed_total(self) -> float:
        return sum(self.borrowed.values())

    @property
    def lent_total(self) -> float:
        return sum(self.lent.values())

    # -- hooks ------------------------------------------------------------

    def on_round_end(self, node, now: float, emit) -> None:
        self.util_ewma = (
            self.ALPHA * node.utilisation() + (1.0 - self.ALPHA) * self.util_ewma
        )
        backlog = node.bucket.backlog_bytes(now)
        if backlog > 0.0:
            need = backlog / self.config.round_interval
            headroom = self.MAX_RATE_X * node.base_rate - node.rate
            need = min(need, headroom)
            peers = self.neighbours()
            if need > self._eps and peers:
                share = need / len(peers)
                for dst in peers:
                    emit(dst, "borrow", amount=share)
            return
        if self.borrowed and self.util_ewma < self.config.return_watermark:
            # A node can have lent away rate it borrowed earlier, so cap
            # total returns by the same floor grants respect — never push
            # our own rate below ``lend_floor`` × fair share.
            headroom = node.rate - self.config.lend_floor * node.base_rate
            for lender in sorted(self.borrowed):
                loan = self.borrowed[lender]
                back = loan if loan <= 2.0 * self._eps else 0.5 * loan
                back = min(back, headroom)
                if back <= self._eps:
                    break
                headroom -= back
                self.borrowed[lender] = loan - back
                if self.borrowed[lender] <= self._eps:
                    del self.borrowed[lender]
                node.set_rate(node.rate - back, now)
                emit(lender, "return", amount=back)

    def on_round_start(self, node, inbox, now: float, emit) -> None:
        for msg in inbox:
            amount = msg.get("amount")
            if msg.kind == "grant":
                node.set_rate(node.rate + amount, now)
                self.borrowed[msg.src] = self.borrowed.get(msg.src, 0.0) + amount
            elif msg.kind == "return":
                node.set_rate(node.rate + amount, now)
                left = self.lent.get(msg.src, 0.0) - amount
                if left <= self._eps:
                    self.lent.pop(msg.src, None)
                else:
                    self.lent[msg.src] = left
            elif msg.kind == "borrow":
                grant = self._grantable(node, amount)
                if grant > self._eps:
                    node.set_rate(node.rate - grant, now)
                    self.lent[msg.src] = self.lent.get(msg.src, 0.0) + grant
                    emit(msg.src, "grant", amount=grant)

    def _grantable(self, node, ask: float) -> float:
        """Idle headroom this node can part with for one ask."""
        idle = node.rate * max(0.0, 1.0 - self.util_ewma)
        keep = self.config.lend_floor * node.base_rate
        return max(0.0, min(ask, 0.5 * idle, node.rate - keep))


#: Cross-node arbitration policies: ``factory(config, node_id) -> policy``.
ARBITRATION = {"centralized": CentralizedWeights, "adaptbf": AdaptiveTokenBorrowing}
