"""Test-only oracles for the blkio solver and the device's solve path.

:func:`compute_rates_reference` is the original dict-based O(n²)
progressive filling, and :class:`ReferenceBlockDevice` is a
:class:`~repro.storage.device.BlockDevice` with the pre-optimisation
cost model built on it.  The solver and the device must be
bit-identical to these, so parity tests compare allocations, completion
histories and recorded fingerprints against them with ``==``.
"""

from repro.storage.blkio import StreamDemand
from repro.storage.device import BlockDevice
from repro.storage.limits import CAP_SLACK, EPS_REMAINING, MAX_FLOOR_UTILISATION


def compute_rates_reference(demands: list[StreamDemand]) -> dict[int, float]:
    """Progressive filling over normalised utilisation, in plain dicts.

    Weights share the single unit of device utilisation; a stream's
    utilisation cap is ``min(cap, peak_rate) / peak_rate``.
    """
    if not demands:
        return {}
    keys = [d.key for d in demands]
    if len(set(keys)) != len(keys):
        raise ValueError("stream keys must be unique")

    # Phase 0: reserve floors (in utilisation space), scaling down
    # proportionally when they oversubscribe the reservable fraction.
    floor_utils = {
        d.key: min(d.floor, min(d.cap, d.peak_rate)) / d.peak_rate for d in demands
    }
    # Sums are left-to-right loops: sum() compensates float sums since
    # Python 3.12, so it would not add in demand order there.
    total_floor = 0.0
    for u in floor_utils.values():
        total_floor += u
    if total_floor > MAX_FLOOR_UTILISATION:
        scale = MAX_FLOOR_UTILISATION / total_floor
        floor_utils = {k: u * scale for k, u in floor_utils.items()}
        total_floor = MAX_FLOOR_UTILISATION

    # Phase 1: progressive filling of the remaining utilisation by weight.
    # Each stream's additional utilisation (on top of its floor) is capped
    # by its throttle/peak headroom.
    extra: dict[int, float] = {d.key: 0.0 for d in demands}
    active = list(demands)
    remaining_util = 1.0 - total_floor
    while active and remaining_util > EPS_REMAINING:
        total_w = 0.0
        for d in active:
            total_w += d.weight
        capped = []
        uncapped = []
        for d in active:
            share = remaining_util * d.weight / total_w
            headroom = min(d.cap, d.peak_rate) / d.peak_rate - floor_utils[d.key]
            headroom = max(headroom, 0.0)
            if headroom <= share * CAP_SLACK:
                capped.append((d, headroom))
            else:
                uncapped.append(d)
        if not capped:
            for d in active:
                extra[d.key] = remaining_util * d.weight / total_w
            break
        for d, headroom in capped:
            extra[d.key] = headroom
            remaining_util -= headroom
        remaining_util = max(remaining_util, 0.0)
        active = uncapped
    return {
        d.key: (floor_utils[d.key] + extra[d.key]) * d.peak_rate for d in demands
    }


class ReferenceBlockDevice(BlockDevice):
    """A :class:`BlockDevice` with the pre-optimisation cost model.

    Every reschedule rebuilds validated :class:`StreamDemand` rows off
    the stream objects and runs the dict solver (no epoch skip,
    signature check or memo: ``_solved_epoch`` never advances).
    """

    def _solve_fast(self) -> list[float]:
        streams = self._streams
        spec = self.spec
        directions = {s.direction for s in streams}
        efficiency = self._speed_factor * spec.efficiency(
            len(streams), mixed=len(directions) > 1
        )
        writeback = spec.writeback_weight
        demands = [
            StreamDemand(
                key=s.key,
                weight=(
                    writeback
                    if (writeback is not None and s.direction == "write")
                    else s.cgroup.blkio_weight
                ),
                peak_rate=spec.peak(s.direction) * efficiency,
                cap=s.cgroup.throttle_bps(self, s.direction),
                floor=(spec.write_floor_bps if s.direction == "write" else 0.0),
            )
            for s in streams
        ]
        rates = compute_rates_reference(demands)
        return [rates[s.key] for s in streams]
