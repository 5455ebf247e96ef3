"""Declarative per-tenant QoS policy objects.

A :class:`QosPolicy` is what used to be scattered imperative calls —
``set_blkio_weight``, ``set_throttle``, hand-rolled pacing — expressed as
one frozen value object a config can carry, a sweep can expand, and the
plane's enforcer can apply mechanically:

* ``weight`` — proportional blkio weight pushed at the tenant's cgroup;
* ``read_cap_bps`` / ``write_cap_bps`` — hard per-direction throttles
  (cgroup ``blkio.throttle.*_bps_device``);
* ``rate_bps`` + ``burst_bytes`` — token-bucket traffic shaping: admit
  up to ``burst_bytes`` instantly, then pace at ``rate_bps``;
* ``priority`` — class used by priority admission control (a plane
  with ``max_inflight`` set) for admission ordering;
* ``slo`` — a :class:`SloTarget` the plane scores completions against
  (violations are counted, never enforced — an SLO is an observation).

The token bucket is anchor-based: the level is a *pure function* of the
anchor state and the current sim time, so observing it never mutates and
refill accrues drift-free no matter how often (or unevenly) it is read —
the same discipline as :func:`repro.simkernel.tick_time`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.limits import normalize_throttle, normalize_weight

__all__ = ["PRIORITY_CLASSES", "QosPolicy", "SloTarget", "TokenBucket"]

#: Admission-ordering classes for priority admission control, lowest to
#: highest service preference.
PRIORITY_CLASSES = ("low", "normal", "high")

#: SLO kinds: p99 completion latency ceiling (seconds) or effective
#: per-request bandwidth floor (bytes/s).
SLO_KINDS = ("p99_latency", "bandwidth_floor")


@dataclass(frozen=True)
class SloTarget:
    """A service-level objective scored per completed request.

    ``kind="p99_latency"``: a completion whose submit-to-finish latency
    exceeds ``value`` seconds is a violation (and the tracker reports the
    realised p99 for the run).  ``kind="bandwidth_floor"``: a completion
    whose effective bandwidth (bytes over elapsed, latency phase
    included) lands below ``value`` bytes/s is a violation.
    """

    kind: str
    value: float

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(
                f"slo kind must be one of {SLO_KINDS}, got {self.kind!r}"
            )
        value = float(self.value)
        if not value > 0:
            raise ValueError(f"slo value must be > 0, got {self.value!r}")


@dataclass(frozen=True)
class QosPolicy:
    """Per-tenant QoS contract consumed by the data-plane stages.

    All fields are optional: an empty policy classifies the tenant (so it
    shows up in per-tenant accounting) without changing anything.  Field
    validation reuses the hoisted cgroup rules in
    :mod:`repro.storage.limits`, so an illegal weight or cap fails at
    config-build time with the same message a runtime write would raise.
    """

    weight: int | None = None
    read_cap_bps: float | None = None
    write_cap_bps: float | None = None
    #: Token-bucket refill rate (bytes/s); None disables shaping.
    rate_bps: float | None = None
    #: Token-bucket capacity (bytes); defaults to one second of
    #: ``rate_bps`` when shaping is on.
    burst_bytes: float | None = None
    priority: str = "normal"
    slo: SloTarget | None = None

    def __post_init__(self) -> None:
        if self.weight is not None:
            normalize_weight(self.weight)
        for label, bps in (
            ("read_cap_bps", self.read_cap_bps),
            ("write_cap_bps", self.write_cap_bps),
            ("rate_bps", self.rate_bps),
        ):
            if bps is not None:
                try:
                    normalize_throttle(bps)
                except ValueError:
                    raise ValueError(
                        f"{label} must be > 0, got {bps!r}"
                    ) from None
        if self.burst_bytes is not None:
            if self.rate_bps is None:
                raise ValueError("burst_bytes requires rate_bps")
            if not float(self.burst_bytes) > 0:
                raise ValueError(
                    f"burst_bytes must be > 0, got {self.burst_bytes!r}"
                )
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"priority must be one of {PRIORITY_CLASSES}, got {self.priority!r}"
            )
        if self.slo is not None and not isinstance(self.slo, SloTarget):
            raise ValueError(f"slo must be a SloTarget, got {self.slo!r}")

    @property
    def capacity_bytes(self) -> float:
        """Effective bucket capacity (burst, or one second of rate)."""
        if self.rate_bps is None:
            raise ValueError("policy has no rate_bps; no bucket capacity")
        if self.burst_bytes is not None:
            return float(self.burst_bytes)
        return float(self.rate_bps)


class TokenBucket:
    """Anchor-based token bucket on the simulation clock.

    State is one ``(anchor_time, anchor_tokens)`` pair; the level at any
    instant is computed fresh from it::

        level(now) = min(capacity, anchor_tokens + rate · (now − anchor))

    Pure observation — :meth:`level` never mutates — so repeated reads at
    periodic instants (``tick_time``) accumulate zero float drift.
    :meth:`reserve` implements deficit admission: a request larger than
    the current level is admitted after exactly the time the deficit
    takes to refill, and *keeps accruing while it waits* (the clip at
    ``capacity`` applies to idle credit, not to a reservation in
    progress), so bytes admitted over any window never exceed
    ``capacity + rate · window`` — exact conservation.
    """

    __slots__ = ("capacity", "rate", "_anchor_time", "_anchor_tokens")

    def __init__(
        self,
        capacity: float,
        rate: float,
        *,
        start: float = 0.0,
        tokens: float | None = None,
    ) -> None:
        capacity = float(capacity)
        rate = float(rate)
        if not capacity > 0:
            raise ValueError(f"capacity must be > 0, got {capacity!r}")
        if not rate > 0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        self.capacity = capacity
        self.rate = rate
        self._anchor_time = float(start)
        tokens = capacity if tokens is None else float(tokens)
        if not 0.0 <= tokens <= capacity:
            raise ValueError(
                f"tokens must be in [0, {capacity!r}], got {tokens!r}"
            )
        self._anchor_tokens = tokens

    def level(self, now: float) -> float:
        """Tokens available at ``now`` (clipped to [0, capacity]).

        A ``now`` before the anchor (an outstanding reservation extends
        the anchor into the future) reads as the anchored residual —
        never negative.
        """
        elapsed = now - self._anchor_time
        if elapsed <= 0.0:
            return self._anchor_tokens
        return min(self.capacity, self._anchor_tokens + self.rate * elapsed)

    def backlog_bytes(self, now: float) -> float:
        """Bytes already admitted but still refilling (the queued deficit).

        A reservation larger than the level pushes the anchor into the
        future; the distance from ``now`` to that anchor, times the rate,
        is exactly the work the bucket still owes — the signal adaptive
        token borrowing acts on.  Zero when no reservation is pending.
        """
        return max(0.0, self._anchor_time - now) * self.rate

    def set_rate(self, rate: float, now: float) -> None:
        """Re-rate the bucket at ``now`` without disturbing its level.

        Credit accrued so far is folded into the anchor at the old rate,
        then the new rate applies from ``now`` on — so a rate change at a
        round boundary never mints or destroys tokens.  With a
        reservation still refilling (anchor in the future) the anchor is
        re-derived so the *outstanding deficit in bytes* is preserved:
        the queued work drains at the new rate from ``now`` on.
        Admission delays already handed out are not revisited.
        """
        rate = float(rate)
        if not rate > 0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        if self._anchor_time >= now:
            deficit = (self._anchor_time - now) * self.rate
            self._anchor_time = now + deficit / rate
            self._anchor_tokens = 0.0 if deficit > 0.0 else self._anchor_tokens
        else:
            self._anchor_tokens = self.level(now)
            self._anchor_time = now
        self.rate = rate

    def reserve(self, nbytes: float, now: float) -> float:
        """Admit ``nbytes``; returns the shaping delay (0.0 = immediate).

        Consumes the tokens and re-anchors at the admission instant, so
        back-to-back reservations queue behind each other in FIFO order
        (the anchor moves into the future while a deficit refills).
        """
        nbytes = float(nbytes)
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes!r}")
        # ``max(now, anchor)`` and ``min(capacity, level)`` without the
        # builtin calls: each conditional returns what the builtin does,
        # the first argument on ties and when either side is NaN.
        anchor = self._anchor_time
        start = anchor if anchor > now else now
        level = self._anchor_tokens + self.rate * (start - anchor)
        capacity = self.capacity
        lvl = level if level < capacity else capacity
        if lvl >= nbytes:
            self._anchor_time = start
            self._anchor_tokens = lvl - nbytes
            return start - now
        admitted_at = start + (nbytes - lvl) / self.rate
        self._anchor_time = admitted_at
        self._anchor_tokens = 0.0
        return admitted_at - now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TokenBucket cap={self.capacity:g} rate={self.rate:g} "
            f"anchor=({self._anchor_time:g}, {self._anchor_tokens:g})>"
        )
