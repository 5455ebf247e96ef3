"""Metric primitives: Counter, Gauge, Histogram, and their Registry.

A deliberately small, dependency-free metrics model in the Prometheus
style: named instruments with optional labels, aggregated in-process and
snapshotted on demand.  Instruments are cheap enough to update from the
simulator's hot paths (a dict lookup and a float add), and the process
registry can be snapshotted as plain data for JSON/CSV export (see
:mod:`repro.obs.export`).

Label values are keyed by a sorted ``(key, value)`` tuple so that
``inc(device="hdd")`` and the same call with keyword order permuted hit
the same series.
"""

from __future__ import annotations

import bisect
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "DEFAULT_BUCKETS",
    "MetricError",
]

#: Default histogram bucket upper bounds (seconds-ish scale; +inf implicit).
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
)

LabelKey = tuple[tuple[str, str], ...]


class MetricError(RuntimeError):
    """Raised on metric misuse (type clash, bad bucket spec, ...)."""


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """Common shell: a name, a help string, and per-label-set series."""

    kind = "abstract"

    def __init__(self, name: str, help: str = "") -> None:
        if not name:
            raise MetricError("metric name must be non-empty")
        self.name = name
        self.help = help

    def series(self) -> dict[LabelKey, object]:
        raise NotImplementedError

    def snapshot(self) -> list[dict]:
        """Plain-data rows, one per label set."""
        rows = []
        for key, value in sorted(self.series().items()):
            rows.append({"labels": dict(key), "value": value})
        return rows


class Counter(_Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease (inc {amount})")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def series(self) -> dict[LabelKey, float]:
        return dict(self._values)

    def merge(self, other: "Counter") -> None:
        """Fold another counter in: per-series sums (cross-process fold)."""
        for key, value in other._values.items():
            self._values[key] = self._values.get(key, 0.0) + value


class Gauge(_Metric):
    """A settable last-observed value per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._values.get(_label_key(labels), 0.0)

    def series(self) -> dict[LabelKey, float]:
        return dict(self._values)

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in: last write wins (``other`` is newer)."""
        self._values.update(other._values)


class Histogram(_Metric):
    """Cumulative bucket counts plus sum/count per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError(f"histogram {self.name!r} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise MetricError(f"histogram {self.name!r} has duplicate bucket bounds")
        self.bounds = bounds
        # per label set: [counts per bound + overflow], sum, count
        self._series: dict[LabelKey, tuple[list[int], list[float]]] = {}

    def _series_for(self, key: LabelKey) -> tuple[list[int], list[float]]:
        """The series for ``key``, created empty on first use."""
        entry = self._series.get(key)
        if entry is None:
            entry = ([0] * (len(self.bounds) + 1), [0.0, 0.0])
            self._series[key] = entry
        return entry

    def observe(self, value: float, **labels: object) -> None:
        counts, agg = self._series_for(_label_key(labels))
        counts[bisect.bisect_left(self.bounds, value)] += 1
        agg[0] += value
        agg[1] += 1.0

    def bind(
        self, *label_sets: dict[str, object], **labels: object
    ) -> "_BoundHistogram":
        """A handle that observes into one or more label sets, keyed once.

        ``h.bind(**labels).observe(v)`` records exactly what
        ``h.observe(v, **labels)`` records, without keying the labels on
        every call.  ``h.bind(a, b).observe(v)``, with ``a`` and ``b``
        label dicts, records exactly what ``h.observe(v, **a)`` then
        ``h.observe(v, **b)`` record, with one bucket search for both.
        The series are created at the handle's first observation, in
        label-set order, as :meth:`observe` creates them, so a handle
        that never observes adds nothing to the snapshot.  Handles and
        keyword observations of one label set share one series.
        """
        if label_sets and labels:
            raise MetricError(
                f"histogram {self.name!r}: bind takes label dicts or keyword "
                "labels, not both"
            )
        if not label_sets:
            label_sets = (labels,)
        return _BoundHistogram(self, tuple(_label_key(s) for s in label_sets))

    def count(self, **labels: object) -> int:
        entry = self._series.get(_label_key(labels))
        return int(entry[1][1]) if entry else 0

    def quantile(self, q: float, **labels: object) -> float:
        """Upper-bound estimate of the ``q``-quantile from bucket counts.

        Returns the smallest bucket bound whose cumulative count covers a
        ``q`` fraction of the observations (``inf`` when the quantile
        falls in the overflow bucket, ``nan`` with no observations).
        Deterministic and merge-stable: the answer depends only on the
        bucket layout and counts, never on observation order.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q!r}")
        entry = self._series.get(_label_key(labels))
        if entry is None or entry[1][1] <= 0:
            return float("nan")
        counts = entry[0]
        need = q * entry[1][1]
        running = 0
        for bound, c in zip(self.bounds, counts):
            running += c
            if running >= need:
                return bound
        return float("inf")

    def sum(self, **labels: object) -> float:
        entry = self._series.get(_label_key(labels))
        return entry[1][0] if entry else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in: the union of both observation sets.

        Bucket counts add element-wise and sum/count accumulate, so the
        merged series is exactly what observing both processes' samples
        into one histogram would have produced.  Requires identical
        bucket bounds (merging mismatched layouts would silently corrupt
        percentile estimates).
        """
        if other.bounds != self.bounds:
            raise MetricError(
                f"histogram {self.name!r} bucket bounds differ "
                f"({self.bounds} vs {other.bounds}); cannot merge"
            )
        for key, (counts, agg) in other._series.items():
            entry = self._series.get(key)
            if entry is None:
                self._series[key] = (list(counts), list(agg))
                continue
            mine, my_agg = entry
            for i, c in enumerate(counts):
                mine[i] += c
            my_agg[0] += agg[0]
            my_agg[1] += agg[1]

    def series(self) -> dict[LabelKey, dict]:
        out: dict[LabelKey, dict] = {}
        for key, (counts, agg) in self._series.items():
            cumulative: dict[str, int] = {}
            running = 0
            for bound, c in zip(self.bounds, counts):
                running += c
                cumulative[repr(bound)] = running
            cumulative["+Inf"] = running + counts[-1]
            out[key] = {"buckets": cumulative, "sum": agg[0], "count": int(agg[1])}
        return out


class _BoundHistogram:
    """Label sets of a :class:`Histogram` (see :meth:`Histogram.bind`)."""

    __slots__ = ("_hist", "_keys", "_bounds", "_entries")

    def __init__(self, hist: Histogram, keys: tuple[LabelKey, ...]) -> None:
        self._hist = hist
        self._keys = keys
        self._bounds = hist.bounds
        self._entries: tuple[tuple[list[int], list[float]], ...] | None = None

    def observe(self, value: float) -> None:
        entries = self._entries
        if entries is None:
            # Looked up only now: another handle or a keyword observation
            # may have created a series since this handle was bound.
            series_for = self._hist._series_for
            entries = self._entries = tuple(series_for(key) for key in self._keys)
        i = bisect.bisect_left(self._bounds, value)
        for counts, agg in entries:
            counts[i] += 1
            agg[0] += value
            agg[1] += 1.0


class Registry:
    """A process-wide registry: get-or-create instruments by name.

    Re-requesting a name returns the existing instrument; requesting it
    as a different kind is an error (silently returning the wrong type
    is how telemetry bugs hide).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Generation counter, bumped by :meth:`clear`.

        Hot paths cache bound instruments keyed on ``(registry identity,
        epoch)``; without the epoch a cleared registry would leave cached
        handles silently writing to orphaned instruments that no snapshot
        ever sees.
        """
        return self._epoch

    def _get_or_create(self, cls: type[_Metric], name: str, help: str, **kwargs) -> _Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise MetricError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested as {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)  # type: ignore[return-value]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> _Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(f"no metric named {name!r}") from None

    def clear(self) -> None:
        self._metrics.clear()
        self._epoch += 1

    def merge(self, other: "Registry") -> "Registry":
        """Fold another registry's instruments into this one; returns self.

        The cross-process reduction: each worker records into a private
        registry and the coordinator folds the snapshots together.
        Semantics per kind — counters sum, gauges last-write (``other``
        wins), histograms combine bucket-by-bucket.  Instruments only in
        ``other`` are adopted via a fresh instrument plus a merge (never
        shared, so later merges cannot alias a worker's live state);
        same-name instruments of different kinds (or histograms with
        different bucket layouts) raise :class:`MetricError`.
        """
        for name, theirs in sorted(other._metrics.items()):
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(theirs, Histogram):
                    mine = Histogram(name, theirs.help, buckets=theirs.bounds)
                else:
                    mine = type(theirs)(name, theirs.help)
                self._metrics[name] = mine
            elif not isinstance(theirs, type(mine)):
                raise MetricError(
                    f"metric {name!r} is a {mine.kind} here but a "
                    f"{theirs.kind} in the registry being merged"
                )
            mine.merge(theirs)
        return self

    def snapshot(self) -> dict:
        """All instruments as plain data (JSON-serialisable)."""
        return {
            name: {
                "kind": metric.kind,
                "help": metric.help,
                "series": metric.snapshot(),
            }
            for name, metric in sorted(self._metrics.items())
        }
