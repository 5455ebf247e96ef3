"""Proportional-weight bandwidth allocation (the blkio CFQ model).

The kernel's blkio controller shares a device's bandwidth among active
cgroups proportionally to their weights (range 100–1000), optionally
capped by ``blkio.throttle.*_bps_device`` limits.  We reproduce that
allocation with a **progressive-filling** fluid model:

* each active stream demands capacity proportional to its weight;
* a stream may be capped (throttle, or its direction's peak rate);
* capped streams release their surplus, which is re-shared among the
  remaining streams by weight, until all capacity is assigned or every
  stream is capped.

Mixed read/write contention is handled in *normalised utilisation* space:
a stream running at rate ``r`` on a device whose peak for its direction is
``bw_d`` consumes ``r / bw_d`` of the device; the scheduler assigns
utilisations summing to ≤ 1.  This reproduces the paper's arithmetic —
e.g. two weight-100 streams on a 200 MB/s device get 100 MB/s each, and
raising one weight to 200 shifts the split to 133/67 MB/s.

:func:`solve_rates_arrays` is the one solver entry point: four parallel
float64 arrays (weights, peaks, caps, floors) in, the rates in input
order out.  Small stream sets run a plain-Python loop, larger ones a
vectorised waterfill (each round classifies every still-active stream in
one elementwise comparison).  Both keep every sum and surplus
subtraction in demand order, so they are **bit-identical** to each
other and to the dict-based oracle in ``tests/blkio_oracle.py`` — the
pinned scenario fingerprints and the parity property tests in
``tests/test_blkio.py`` enforce it.  Those sums are explicit loops, not
``sum()``, which compensates float sums since Python 3.12.
:func:`compute_rates` keeps the ``list[StreamDemand] → dict`` signature
as a validated wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs import OBS
from repro.storage.limits import (
    CAP_SLACK,
    EPS_REMAINING,
    MAX_FLOOR_UTILISATION,
    validate_demand,
)

__all__ = [
    "StreamDemand",
    "compute_rates",
    "solve_rates_arrays",
    "MAX_FLOOR_UTILISATION",
]


@dataclass(frozen=True)
class StreamDemand:
    """One active stream's allocation inputs.

    ``peak_rate`` is the device's peak bandwidth for the stream's direction
    (bytes/s); ``cap`` an optional throttle limit (bytes/s, ``inf`` when
    unthrottled); ``floor`` a guaranteed minimum rate (bytes/s) reserved
    before weight-proportional sharing — the dirty-page writeback pressure
    that no reader weight can squeeze out (floors are scaled down
    proportionally if they oversubscribe the device).
    """

    key: int
    weight: float
    peak_rate: float
    cap: float = math.inf
    floor: float = 0.0

    def __post_init__(self) -> None:
        validate_demand(self.weight, self.peak_rate, self.cap, self.floor)


# -- cached observability handles -----------------------------------------

#: (registry, registry.epoch, calls, rounds, capped_streams, streams_hist).
#: ``reg.counter(name)`` is a registry dict lookup; the solver runs once
#: per reschedule, so the bound instruments are hoisted here and refreshed
#: only when the registry is swapped or cleared.
_OBS_HANDLES: tuple | None = None


def _obs_handles() -> tuple:
    global _OBS_HANDLES
    reg = OBS.registry
    handles = _OBS_HANDLES
    if handles is None or handles[0] is not reg or handles[1] != reg.epoch:
        handles = (
            reg,
            reg.epoch,
            reg.counter("blkio.compute_rates.calls"),
            reg.counter("blkio.compute_rates.rounds"),
            reg.counter("blkio.compute_rates.capped_streams"),
            reg.histogram(
                "blkio.compute_rates.streams", buckets=(1, 2, 4, 8, 16, 32, 64)
            ),
        )
        _OBS_HANDLES = handles
    return handles


# -- waterfill ---------------------------------------------------------------


def _solve_n_arrays(
    w: np.ndarray,
    p: np.ndarray,
    c: np.ndarray,
    f: np.ndarray,
):
    """Vectorised waterfill over float64 arrays; returns a float64 array.

    The first round runs without any index bookkeeping: in the common
    case nothing saturates and the round-1 proportional shares are the
    answer, so the ``arange``/fancy-indexing scaffolding of the general
    loop is built only when a stream actually caps.  Bit-identical to the
    general loop (``extra[arange(n)] = share`` is elementwise identity,
    and ``x + 0.0`` preserves every non-negative float), which is itself
    bit-identical to :func:`_solve_scalar`.
    """
    m = np.minimum(c, p)
    fu = np.minimum(f, m) / p
    # Every sum is an explicit left-to-right loop in demand order: float
    # addition is not associative, so bit-parity with the reference needs
    # the same reduction order — neither np.sum (pairwise) nor sum()
    # (compensated since Python 3.12).
    total_floor = 0.0
    for u in fu.tolist():
        total_floor += u
    if total_floor > MAX_FLOOR_UTILISATION:
        fu = fu * (MAX_FLOOR_UTILISATION / total_floor)
        total_floor = MAX_FLOOR_UTILISATION
    remaining = 1.0 - total_floor
    if remaining <= EPS_REMAINING:
        return fu * p, 0, 0
    headroom = np.maximum(m / p - fu, 0.0)

    total_w = 0.0
    for x in w.tolist():
        total_w += x
    share = remaining * w / total_w
    capped_mask = headroom <= share * CAP_SLACK
    if not capped_mask.any():
        return (fu + share) * p, 1, 0

    capped_total = int(capped_mask.sum())
    rounds = 1
    n = w.shape[0]
    extra = np.zeros(n)
    idx = np.arange(n)
    capped_idx = idx[capped_mask]
    extra[capped_idx] = headroom[capped_idx]
    for h in headroom[capped_idx].tolist():
        remaining -= h
    remaining = max(remaining, 0.0)
    idx = idx[~capped_mask]
    while idx.size and remaining > EPS_REMAINING:
        rounds += 1
        w_act = w[idx]
        total_w = 0.0
        for x in w_act.tolist():
            total_w += x
        share = remaining * w_act / total_w
        capped_mask = headroom[idx] <= share * CAP_SLACK
        if not capped_mask.any():
            extra[idx] = share
            break
        capped_total += int(capped_mask.sum())
        capped_idx = idx[capped_mask]
        extra[capped_idx] = headroom[capped_idx]
        for h in headroom[capped_idx].tolist():
            remaining -= h
        remaining = max(remaining, 0.0)
        idx = idx[~capped_mask]

    return (fu + extra) * p, rounds, capped_total


def _solve_scalar(
    weights: Sequence[float],
    peaks: Sequence[float],
    caps: Sequence[float],
    floors: Sequence[float],
):
    """Plain-Python waterfill for small stream sets.

    Operation-for-operation the same arithmetic as :func:`_solve_n_arrays`
    — every elementwise numpy op maps to the identical scalar expression
    and every reduction stays in demand order — so the result is
    bit-identical (enforced by the parity tests in ``tests/test_blkio.py``).
    """
    n = len(weights)
    m = [c if c < p else p for c, p in zip(caps, peaks)]
    fu = [(f if f < mi else mi) / p for f, mi, p in zip(floors, m, peaks)]
    total_floor = 0.0
    for u in fu:
        total_floor += u
    if total_floor > MAX_FLOOR_UTILISATION:
        ratio = MAX_FLOOR_UTILISATION / total_floor
        fu = [u * ratio for u in fu]
        total_floor = MAX_FLOOR_UTILISATION
    remaining = 1.0 - total_floor
    headroom = [max(mi / p - u, 0.0) for mi, p, u in zip(m, peaks, fu)]

    extra = [0.0] * n
    active = list(range(n))
    rounds = 0
    capped_total = 0
    while active and remaining > EPS_REMAINING:
        rounds += 1
        total_w = 0.0
        for i in active:
            total_w += weights[i]
        capped = [i for i in active if headroom[i] <= remaining * weights[i] / total_w * CAP_SLACK]
        if not capped:
            for i in active:
                extra[i] = remaining * weights[i] / total_w
            break
        capped_total += len(capped)
        for i in capped:
            extra[i] = headroom[i]
        for i in capped:
            remaining -= headroom[i]
        remaining = max(remaining, 0.0)
        capped_set = set(capped)
        active = [i for i in active if i not in capped_set]

    return [(u + e) * p for u, e, p in zip(fu, extra, peaks)], rounds, capped_total


#: Stream count up to which :func:`solve_rates_arrays` runs the
#: plain-Python waterfill: tiny active sets pay more for numpy dispatch
#: (array temporaries, fancy indexing) than for a short loop.
_ARRAY_SCALAR_MAX = 8


def solve_rates_arrays(
    weights: np.ndarray,
    peaks: np.ndarray,
    caps: np.ndarray,
    floors: np.ndarray,
) -> Sequence[float]:
    """Assign a service rate (bytes/s) to every stream.

    Four parallel 1-D float64 arrays, one row per stream: blkio weight,
    the device's peak rate for the stream's direction, throttle cap
    (``inf`` = uncapped) and guaranteed floor.  Inputs are pre-validated
    by the caller (the device layer's invariants already guarantee
    positive weights and peaks, positive caps, non-negative finite
    floors; :func:`compute_rates` validates through
    :class:`StreamDemand`).  The device passes its persistent SoA rows
    directly, so a call assembles nothing.

    Returns the rates in input order: a list of floats up to
    ``_ARRAY_SCALAR_MAX`` streams, a float64 array above it.
    """
    n = weights.shape[0]
    if n <= _ARRAY_SCALAR_MAX:
        rates, rounds, capped = _solve_scalar(
            weights.tolist(), peaks.tolist(), caps.tolist(), floors.tolist()
        )
    else:
        rates, rounds, capped = _solve_n_arrays(weights, peaks, caps, floors)
    if OBS.enabled:
        _, _, calls, rounds_c, capped_c, streams_h = _obs_handles()
        calls.inc()
        rounds_c.inc(rounds)
        capped_c.inc(capped)
        streams_h.observe(n)
    return rates


def compute_rates(demands: list[StreamDemand]) -> dict[int, float]:
    """Assign a service rate (bytes/s) to every stream, keyed by stream key.

    Validates key uniqueness, packs the demand dataclasses into float64
    arrays and delegates to :func:`solve_rates_arrays`.
    """
    if not demands:
        return {}
    keys = [d.key for d in demands]
    if len(set(keys)) != len(keys):
        raise ValueError("stream keys must be unique")
    rates = solve_rates_arrays(
        np.array([d.weight for d in demands], dtype=np.float64),
        np.array([d.peak_rate for d in demands], dtype=np.float64),
        np.array([d.cap for d in demands], dtype=np.float64),
        np.array([d.floor for d in demands], dtype=np.float64),
    )
    if isinstance(rates, np.ndarray):
        rates = rates.tolist()
    return dict(zip(keys, rates))
