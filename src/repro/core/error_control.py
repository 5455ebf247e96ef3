"""Error-bounded coefficient ordering and bucketing (Section III-B, step 3).

After decomposition, every augmentation coefficient is sorted by absolute
magnitude — larger coefficients contribute more to the reconstruction error
and must be retrieved first.  The sorted stream is then *cut* into buckets
``Aug_{ε_i}``: the set of coefficients that elevates the accuracy from
``ε_{i-1}`` to ``ε_i``.  Buckets are contiguous in the stream, which models
the paper's shuffle-and-tag layout that keeps each bucket contiguous on
disk.

Retrieval order across levels is coarsest-augmentation first (``Aug^{L-2}``
down to ``Aug^0``): a coarse correction is a prerequisite for the finer
levels to be meaningful, and the paper's ladder of accuracies
``ε_0 < ε_1 < …`` walks down the hierarchy the same way.

Cut positions are found by *measured* reconstruction error, so a
bucket's error bound is guaranteed against the actual reconstruction,
not an analytic proxy.  The search is seeded from a residual-energy
estimate and driven by the incremental probe engine in
:mod:`repro.core.fastladder` (per-level boundary caching +
O(Δcut · stencil) SSE updates); the final cut of every rung is
re-measured with the exact reconstruction, with a monotonicity fix-up.
That re-measurement resumes from the engine's level-boundary snapshots
rather than walking up from the base, with bit-identical results.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as _dc_field

import numpy as np

from repro.core import metrics as _metrics
from repro.core.refactor import Decomposition, recompose_full

__all__ = [
    "ErrorMetric",
    "ErrorBudget",
    "AugmentationBucket",
    "AccuracyLadder",
    "build_ladder",
    "release_ladder_scratch",
    "BYTES_PER_COEFFICIENT",
    "COEFFICIENT_TAG_BYTES",
]

#: Position-tag bytes stored with every coefficient (the paper's
#: "properly tagged" shuffled layout).
COEFFICIENT_TAG_BYTES = 4

#: Stored size of one float64 augmentation coefficient: 8-byte value +
#: 4-byte position tag.  Ladders built from a float32 decomposition
#: (``decompose(..., dtype=np.float32)``) store 4 + 4 = 8 bytes per
#: coefficient instead — see :attr:`AccuracyLadder.bytes_per_coefficient`.
BYTES_PER_COEFFICIENT = 12


class ErrorMetric(enum.Enum):
    """Error metrics supported by the error control (NRMSE and PSNR)."""

    NRMSE = "nrmse"
    PSNR = "psnr"

    def evaluate(self, original: np.ndarray, approx: np.ndarray) -> float:
        if self is ErrorMetric.NRMSE:
            return _metrics.nrmse(original, approx)
        return _metrics.psnr(original, approx)

    def satisfied(self, measured: float, bound: float) -> bool:
        """True when a measured error meets the bound.

        NRMSE bounds are upper bounds; PSNR bounds are lower bounds.
        """
        if self is ErrorMetric.NRMSE:
            return measured <= bound
        return measured >= bound

    def is_tighter(self, a: float, b: float) -> bool:
        """True when bound ``a`` demands more accuracy than bound ``b``."""
        if self is ErrorMetric.NRMSE:
            return a < b
        return a > b

    def sort_loosest_first(self, bounds: list[float]) -> list[float]:
        """Order bounds from loosest to tightest (the paper's ε_1 … ε_b)."""
        return sorted(bounds, reverse=(self is ErrorMetric.NRMSE))


@dataclass(frozen=True)
class ErrorBudget:
    """A metric together with its ladder of bounds, loosest first."""

    metric: ErrorMetric
    bounds: tuple[float, ...]

    @staticmethod
    def create(metric: ErrorMetric, bounds: list[float]) -> "ErrorBudget":
        if not bounds:
            raise ValueError("at least one error bound is required")
        for b in bounds:
            if not np.isfinite(b):
                raise ValueError(f"error bounds must be finite, got {b!r}")
            if metric is ErrorMetric.NRMSE and b < 0:
                raise ValueError(f"NRMSE bounds must be >= 0, got {b!r}")
        ordered = metric.sort_loosest_first(list(bounds))
        return ErrorBudget(metric=metric, bounds=tuple(ordered))

    @property
    def num_bounds(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class AugmentationBucket:
    """``Aug_{ε_m}``: the coefficients elevating accuracy ε_{m-1} → ε_m.

    Attributes
    ----------
    index:
        1-based bucket index ``m``.
    bound:
        The error bound this bucket achieves once applied.
    start, stop:
        Half-open range into the global sorted coefficient stream.
    finest_level:
        ``L(ε_m)`` — the finest decomposition level the bucket touches;
        determines the storage tier the bucket is staged on.
    achieved_error:
        The measured reconstruction error after applying this bucket.
    """

    index: int
    bound: float
    start: int
    stop: int
    finest_level: int
    achieved_error: float
    #: Stored bytes per coefficient (value + position tag); follows the
    #: decomposition's dtype, default float64.
    bytes_per_coefficient: int = _dc_field(default=BYTES_PER_COEFFICIENT, compare=False)

    @property
    def cardinality(self) -> int:
        """|Aug_{ε_m}| — the number of coefficients in the bucket."""
        return self.stop - self.start

    @property
    def nbytes(self) -> int:
        return self.cardinality * self.bytes_per_coefficient


class AccuracyLadder:
    """A decomposition plus its error-bound buckets, ready for staged retrieval.

    The ladder owns the global coefficient stream (coarsest augmentation
    first, each level's coefficients sorted by |value| descending) and the
    cut positions realising each error bound.  It can reconstruct the data
    at any rung, report per-rung cardinalities/bytes for the storage layer,
    and compute the retrieved degree-of-freedom fraction (Fig. 11).
    """

    def __init__(
        self,
        decomposition: Decomposition,
        budget: ErrorBudget,
        stream_levels: np.ndarray,
        stream_positions: np.ndarray,
        stream_values: np.ndarray,
        level_offsets: np.ndarray,
        buckets: list[AugmentationBucket],
        base_error: float,
    ) -> None:
        self.decomposition = decomposition
        self.budget = budget
        self._stream_levels = stream_levels
        self._stream_positions = stream_positions
        self._stream_values = stream_values
        self._level_offsets = level_offsets
        self.buckets = buckets
        self.base_error = base_error

    # -- sizes ---------------------------------------------------------

    @property
    def metric(self) -> ErrorMetric:
        return self.budget.metric

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    @property
    def stream_length(self) -> int:
        return int(self._stream_values.size)

    @property
    def base_nbytes(self) -> int:
        return int(self.decomposition.base.size * self.decomposition.dtype_nbytes)

    @property
    def bytes_per_coefficient(self) -> int:
        """Stored bytes per stream coefficient: value (the decomposition's
        dtype) + position tag."""
        return self.decomposition.dtype_nbytes + COEFFICIENT_TAG_BYTES

    def bucket(self, m: int) -> AugmentationBucket:
        """Bucket ``m`` (1-based, matching the paper's Aug_{ε_m})."""
        if not 1 <= m <= self.num_buckets:
            raise IndexError(f"bucket index must be in [1, {self.num_buckets}], got {m}")
        return self.buckets[m - 1]

    def level_of(self, m: int) -> int:
        """``L(ε_m)``: the decomposition level achieving bound ε_m."""
        return self.bucket(m).finest_level

    def dof_fraction(self, upto: int) -> float:
        """Fraction of original degrees of freedom retrieved through rung
        ``upto`` (0 = base representation only)."""
        taken = self.decomposition.base_size
        if upto > 0:
            taken += self.bucket(upto).stop
        return taken / self.decomposition.original_size

    def bytes_through(self, upto: int) -> int:
        """Total bytes retrieved for base + buckets 1..upto."""
        total = self.base_nbytes
        if upto > 0:
            total += self.bucket(upto).stop * self.bytes_per_coefficient
        return total

    # -- reconstruction --------------------------------------------------

    def reconstruct(self, upto: int) -> np.ndarray:
        """Reconstruct at full resolution using base + buckets 1..``upto``.

        ``upto = 0`` prolongates the bare base representation;
        ``upto = num_buckets`` applies every bucket (but note only the full
        coefficient stream — all buckets and any tail — is bit-exact).
        """
        cut = 0 if upto == 0 else self.bucket(upto).stop
        return self.reconstruct_at_cut(cut)

    def reconstruct_at_cut(self, cut: int) -> np.ndarray:
        """Reconstruct using the first ``cut`` coefficients of the stream."""
        if not 0 <= cut <= self.stream_length:
            raise ValueError(f"cut must be in [0, {self.stream_length}], got {cut}")
        return _reconstruct_stream_at_cut(
            self.decomposition,
            self._stream_positions,
            self._stream_values,
            self._level_offsets,
            cut,
        )

    def find_bucket_for_bound(self, bound: float) -> int:
        """Smallest rung whose achieved error satisfies ``bound``.

        Returns 0 when the base representation alone already satisfies it.
        Raises ``ValueError`` for bounds tighter than the tightest rung.
        """
        if self.metric.satisfied(self.base_error, bound):
            return 0
        for bkt in self.buckets:
            if self.metric.satisfied(bkt.achieved_error, bound):
                return bkt.index
        raise ValueError(
            f"bound {bound!r} is tighter than the ladder's tightest rung "
            f"(achieved {self.buckets[-1].achieved_error if self.buckets else self.base_error!r})"
        )


def _reconstruct_stream_at_cut(
    dec: Decomposition,
    stream_positions: np.ndarray,
    stream_values: np.ndarray,
    level_offsets: np.ndarray,
    cut: int,
    boundary_states: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Exact reconstruction from the first ``cut`` stream coefficients.

    The reference (slow) reconstruction path; shared by
    :meth:`AccuracyLadder.reconstruct_at_cut` and the exact re-measurement
    inside :func:`build_ladder`.

    ``boundary_states`` are the probe engine's level-boundary snapshots
    (:attr:`~repro.core.fastladder.LadderProbeEngine.boundary_states`):
    entry ``k`` is this walk's state right after order ``k``'s
    prolongation.  With them the walk resumes at the last order that
    starts at or before ``cut`` instead of at the base; every remaining
    operation, and so the result, is bit-identical.
    """
    tr = dec.transform_obj
    num_orders = dec.num_levels - 1
    first = 0
    if boundary_states:
        first = int(np.searchsorted(level_offsets[:num_orders], cut, side="right")) - 1
        current = boundary_states[first].copy()
    else:
        current = dec.base.astype(np.float64, copy=True)
    # Walk levels coarsest-to-finest, applying whatever part of each
    # level's coefficients falls below the cut.
    for order in range(first, num_orders):
        level = num_orders - 1 - order
        lo = int(level_offsets[order])
        hi = int(level_offsets[order + 1])
        take = min(max(cut - lo, 0), hi - lo)
        if order > first or not boundary_states:
            # ascontiguousarray guarantees reshape(-1) below is a *view*:
            # a non-contiguous prolongation would make reshape silently
            # copy, and the scatter-add would be lost.
            current = np.ascontiguousarray(
                tr.prolongate(current, dec.shapes[level], dec.stride(level))
            )
        if take > 0:
            sl = slice(lo, lo + take)
            flat = current.reshape(-1)
            flat[stream_positions[sl]] += stream_values[sl]
    return current


def _magnitude_order(vals: np.ndarray) -> np.ndarray:
    """``np.argsort(-np.abs(vals), kind="stable")``, mostly at the cost of
    the default sort.

    Strictly increasing sorted keys have exactly one sorting permutation,
    so the default sort's answer is kept when its keys check strictly
    increasing.  Only tied keys (equal magnitudes, a ``0.0``/``-0.0``
    pair, a NaN) pay for the stable sort, which orders ties by index.
    """
    keys = -np.abs(vals)
    order = np.argsort(keys)
    ranked = keys[order]
    if not np.all(ranked[1:] > ranked[:-1]):
        order = np.argsort(keys, kind="stable")
    return order


def _build_stream(
    dec: Decomposition,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort each level's non-shared coefficients by |value| descending and
    concatenate coarsest-level-first.

    Returns (levels, flat_positions, values, level_offsets); positions index
    into the *fine* grid of each augmentation's own level.
    """
    levels_parts: list[np.ndarray] = []
    pos_parts: list[np.ndarray] = []
    val_parts: list[np.ndarray] = []
    offsets = [0]
    has_shared = dec.transform_obj.has_shared_points
    for level in range(dec.num_levels - 2, -1, -1):
        aug = dec.augmentations[level]
        shared = np.zeros(aug.shape, dtype=bool)
        if has_shared:
            stride = dec.stride(level)
            slices = tuple(
                slice(None, None, stride) if s > 1 else slice(None) for s in aug.shape
            )
            shared[slices] = True
        flat_idx = np.flatnonzero(~shared.reshape(-1))
        vals = aug.reshape(-1)[flat_idx]
        order = _magnitude_order(vals)
        pos_parts.append(flat_idx[order].astype(np.int64))
        val_parts.append(vals[order])
        levels_parts.append(np.full(vals.size, level, dtype=np.int32))
        offsets.append(offsets[-1] + vals.size)
    if pos_parts:
        return (
            np.concatenate(levels_parts),
            np.concatenate(pos_parts),
            np.concatenate(val_parts),
            np.asarray(offsets, dtype=np.int64),
        )
    empty = np.asarray([], dtype=np.int64)
    return (
        empty.astype(np.int32),
        empty,
        empty.astype(np.float64),
        np.asarray([0], dtype=np.int64),
    )


def _ladder_scratch(dec: Decomposition, original: np.ndarray | None) -> dict:
    """Per-decomposition ladder-construction scratch, cached on ``dec``.

    Holds everything :func:`build_ladder` derives purely from the
    decomposition: the sorted stream, the recomposed ``original`` tensor,
    its range/peak, the lazily-built probe engine, and exact per-cut
    errors.  Fig. 11 and the benchmarks rebuild ladders for the *same*
    decomposition under different bound sets, so the O(n log n) stream
    sort and O(n·levels) recomposition are paid once per decomposition
    rather than once per call.

    When the caller supplies ``original``, it is checked against the
    cached tensor (the hierarchy recomposes bit-exactly, so a caller
    passing the true uncompressed data matches the recomposed cache);
    a mismatch rebuilds the scratch for the supplied tensor.
    """
    scratch = getattr(dec, "_ladder_scratch", None)
    if scratch is not None:
        if original is None:
            if scratch["from_recompose"]:
                return scratch
            original = recompose_full(dec)
            from_recompose = True
        else:
            from_recompose = False
        if np.array_equal(original, scratch["original"]):
            scratch["from_recompose"] = scratch["from_recompose"] or from_recompose
            return scratch
    else:
        from_recompose = original is None
        if original is None:
            original = recompose_full(dec)
    scratch = {
        "stream": _build_stream(dec),
        "original": original,
        "from_recompose": from_recompose,
        "range": float(original.max() - original.min()),
        "peak": float(np.max(np.abs(original))),
        "engine": None,
        "exact": {},
    }
    dec._ladder_scratch = scratch
    return scratch


def release_ladder_scratch(dec: Decomposition) -> None:
    """Drop ``dec``'s ladder-construction scratch, if it has any.

    A built ladder keeps its own stream arrays, so the scratch only
    matters to later :func:`build_ladder` calls on the same
    decomposition.  Callers that build one ladder per decomposition (the
    engine memo) release it to keep just what the ladder reads;
    benchmarks release it to time a cold build.
    """
    vars(dec).pop("_ladder_scratch", None)


#: Ladder-construction methods accepted by :func:`build_ladder`.
LADDER_METHODS = ("hybrid", "analytic")

#: The exact fix-up strides forward ``stream length // _FIXUP_GRID``
#: coefficients at a time.
_FIXUP_GRID = 192


def build_ladder(
    dec: Decomposition,
    error_bounds: list[float],
    metric: ErrorMetric = ErrorMetric.NRMSE,
    *,
    method: str = "hybrid",
    original: np.ndarray | None = None,
) -> AccuracyLadder:
    """Construct an :class:`AccuracyLadder` realising each error bound.

    For every bound (loosest first) the ladder cuts the stream where the
    *measured* reconstruction error satisfies the bound.

    ``method="hybrid"`` (default): the analytic residual-energy proxy
    seeds each rung's cut, and a galloping + binary search around the
    seed finds the minimal cut that satisfies the bound.  Probes are answered by the
    incremental :class:`~repro.core.fastladder.LadderProbeEngine` (probe
    errors agree with exact reconstruction to ~1e-12 relative); the
    landing cut is re-measured exactly and a forward fix-up guards
    against the rare non-monotonic step (cross-level prolongation
    effects), so every recorded rung error is exact.

    ``method="analytic"``: cut positions come from the closed-form proxy
    ``error ≈ f(Σ dropped coefficient²)`` computed with one cumulative sum
    over the stream — no search probes — after which each rung's true
    error is measured once and a forward fix-up enforces the bound.  This
    is the DESIGN.md ablation point: near-identical cuts at a fraction of
    the construction cost.

    ``original`` optionally supplies the uncompressed tensor the caller
    already holds, skipping the :func:`~repro.core.refactor.recompose_full`
    pass (the recomposed tensor reproduces it bit-for-bit; the hierarchy
    is exact).

    Construction scratch — the sorted stream, the recomposed tensor, the
    probe engine, and exact per-cut errors — is cached on the
    decomposition (:func:`_ladder_scratch`), because Fig. 11 rebuilds
    ladders for the same decomposition under many bound sets.
    :func:`release_ladder_scratch` drops it once no further build is
    coming.
    """
    if method not in LADDER_METHODS:
        raise ValueError(
            f"method must be one of {LADDER_METHODS}, got {method!r}"
        )
    if original is not None:
        original = np.asarray(original, dtype=np.float64)
        if original.shape != tuple(dec.shapes[0]):
            raise ValueError(
                f"original shape {original.shape} != decomposition shape "
                f"{tuple(dec.shapes[0])}"
            )
    budget = ErrorBudget.create(metric, error_bounds)
    scratch = _ladder_scratch(dec, original)
    stream_levels, stream_positions, stream_values, level_offsets = scratch["stream"]
    original = scratch["original"]
    n = int(stream_values.size)
    stride = max(1, n // _FIXUP_GRID)

    boundary_states = None
    if method == "hybrid":
        from repro.core.fastladder import LadderProbeEngine

        engine = scratch["engine"]
        if engine is None:
            engine = scratch["engine"] = LadderProbeEngine(
                dec, stream_positions, stream_values, level_offsets, original
            )
        boundary_states = engine.boundary_states

    # Exact error evaluator: full reconstruction + metric.  Deduplicated
    # per (metric, cut) — every recorded rung error comes from here, so
    # results are bit-identical to a search that probes exactly.
    exact_cache: dict[tuple[ErrorMetric, int], float] = scratch["exact"]

    def exact_err(cut: int) -> float:
        hit = exact_cache.get((metric, cut))
        if hit is None:
            rec = _reconstruct_stream_at_cut(
                dec,
                stream_positions,
                stream_values,
                level_offsets,
                cut,
                boundary_states=boundary_states,
            )
            hit = exact_cache[(metric, cut)] = metric.evaluate(original, rec)
        return hit

    base_error = exact_err(0)

    if method == "hybrid":
        rng, peak = scratch["range"], scratch["peak"]
        probe_cache: dict[int, float] = {}

        def probe_err(cut: int) -> float:
            hit = probe_cache.get(cut)
            if hit is None:
                hit = probe_cache[cut] = _metric_from_sse(
                    metric, engine.sse_at(cut), original.size, rng, peak
                )
            return hit
    else:
        analytic_cuts = _analytic_cuts(
            stream_values,
            dec.original_size,
            metric,
            budget.bounds,
            scratch["range"],
            scratch["peak"],
        )

    buckets: list[AugmentationBucket] = []
    prev_cut = 0
    for m, bound in enumerate(budget.bounds, start=1):
        if metric.satisfied(base_error, bound) and prev_cut == 0:
            cut, err = 0, base_error
        elif method == "analytic":
            # Proxy may be slightly optimistic: fix forward to the bound.
            cut, err = _fixup(
                exact_err, metric, bound, max(prev_cut, analytic_cuts[m - 1]), n, stride
            )
        else:
            seed = _refined_seed(
                engine,
                metric,
                bound,
                dec.original_size,
                scratch["range"],
                scratch["peak"],
                lo=prev_cut,
                hi=n,
            )
            cut, err = _search_cut_seeded(
                probe_err,
                exact_err,
                metric,
                bound,
                lo=prev_cut,
                hi=n,
                stride=stride,
                seed=seed,
            )
        finest = int(stream_levels[cut - 1]) if cut > 0 else dec.num_levels - 1
        buckets.append(
            AugmentationBucket(
                index=m,
                bound=float(bound),
                start=prev_cut,
                stop=cut,
                finest_level=finest,
                achieved_error=err,
                bytes_per_coefficient=dec.dtype_nbytes + COEFFICIENT_TAG_BYTES,
            )
        )
        prev_cut = max(prev_cut, cut)
    return AccuracyLadder(
        decomposition=dec,
        budget=budget,
        stream_levels=stream_levels,
        stream_positions=stream_positions,
        stream_values=stream_values,
        level_offsets=level_offsets,
        buckets=buckets,
        base_error=base_error,
    )


def _metric_from_sse(
    metric: ErrorMetric, sse: float, n_points: int, data_range: float, data_peak: float
) -> float:
    """Convert a sum of squared errors into the metric's error value,
    mirroring :mod:`repro.core.metrics` formula for formula (including the
    degenerate zero-range / zero-peak conventions)."""
    mse = max(sse, 0.0) / n_points
    if metric is ErrorMetric.NRMSE:
        err = math.sqrt(mse)
        if data_range == 0.0:
            return 0.0 if err == 0.0 else float("inf")
        return err / data_range
    if mse == 0.0:
        return float("inf")
    if data_peak == 0.0:
        return float("-inf")
    return 10.0 * math.log10(data_peak**2 / mse)


def _sse_limit(
    metric: ErrorMetric, bound: float, n_points: int, data_range: float, data_peak: float
) -> float:
    """The SSE value at which ``metric`` exactly meets ``bound``:
    ``NRMSE = sqrt(SSE/n)/range <= bound`` and
    ``PSNR = 10·log10(peak²·n/SSE) >= bound`` solved for SSE."""
    if metric is ErrorMetric.NRMSE:
        return (bound * data_range) ** 2 * n_points
    return data_peak**2 * n_points / 10 ** (bound / 10.0)


def _analytic_cuts(
    stream_values: np.ndarray,
    n_points: int,
    metric: ErrorMetric,
    bounds: tuple[float, ...],
    data_range: float,
    data_peak: float,
) -> list[int]:
    """Closed-form cut estimates from the residual coefficient energy.

    Dropping the stream tail after a cut leaves residual squared energy
    ``E(cut) = Σ_{i >= cut} c_i²`` (the prolongation of a dropped detail is
    ignored — the proxy's approximation).  The implied errors are
    ``NRMSE ≈ sqrt(E/n) / range`` and ``PSNR ≈ 10·log10(peak²·n / E)``;
    each bound's cut is the first position whose residual satisfies it.
    """
    vals = np.asarray(stream_values, dtype=np.float64)
    # Residual energy after taking the first k coefficients, k = 0..n.
    energy = np.concatenate([[0.0], np.cumsum(vals**2)])
    residual = energy[-1] - energy
    cuts = []
    for bound in bounds:
        limit = _sse_limit(metric, bound, n_points, data_range, data_peak)
        ok = residual <= limit + 1e-30
        cuts.append(int(np.argmax(ok)) if ok.any() else energy.size - 1)
    return cuts


def _refined_seed(
    engine,
    metric: ErrorMetric,
    bound: float,
    n_points: int,
    data_range: float,
    data_peak: float,
    *,
    lo: int,
    hi: int,
) -> int:
    """Seed a hybrid search with a probe-calibrated residual-energy cut.

    The stencil-energy residual curve
    (:meth:`~repro.core.fastladder.LadderProbeEngine.stream_energy_prefix`)
    models everything except cross-coefficient overlap, whose weight
    varies along the stream — so instead of one global correction, probe
    the true SSE *at the current estimate* and rescale the curve there.
    One or two probes land the seed within a short gallop of the true
    cut; seeds only steer the search (the exact fix-up owns the result).
    """
    prefix = engine.stream_energy_prefix()
    total = float(prefix[-1])
    limit = _sse_limit(metric, bound, n_points, data_range, data_peak)
    # First k with residual(k) = total - prefix[k] <= limit.
    seed = int(np.searchsorted(prefix, total - limit, side="left"))
    seed = min(max(seed, lo), hi)
    for _ in range(2):
        resid = total - float(prefix[seed])
        if resid <= 0.0 or seed >= hi:
            break
        sse_seed = engine.sse_at(seed)
        if sse_seed <= 0.0:
            break
        scale = sse_seed / resid
        new_seed = int(np.searchsorted(prefix, total - limit / scale, side="left"))
        new_seed = min(max(new_seed, lo), hi)
        converged = abs(new_seed - seed) <= 8
        seed = new_seed
        if converged:
            break
    return seed


def _fixup(eval_fn, metric: ErrorMetric, bound: float, cut: int, hi: int, stride: int):
    """Measure ``cut`` with ``eval_fn`` and stride forward until the bound
    holds — the guard for non-monotonic error steps (and for optimistic
    analytic seeds)."""
    err = eval_fn(cut)
    while not metric.satisfied(err, bound) and cut < hi:
        cut = min(cut + stride, hi)
        err = eval_fn(cut)
    return cut, err


def _search_cut_seeded(
    probe_err,
    exact_err,
    metric: ErrorMetric,
    bound: float,
    *,
    lo: int,
    hi: int,
    stride: int,
    seed: int,
) -> tuple[int, float]:
    """Minimal cut in [lo, hi] whose measured error satisfies ``bound``.

    The answer is bracketed by galloping outward from ``seed`` (the
    residual-energy cut estimate) before a binary search — O(log
    distance-to-seed) probes instead of O(log n).  ``probe_err`` answers
    the search probes; ``exact_err`` measures the landing cut and drives
    the non-monotonicity fix-up.
    """
    err_hi = exact_err(hi)
    if not metric.satisfied(err_hi, bound):
        return hi, err_hi
    c0 = min(max(seed, lo), hi)
    step = max(stride // 8, 1)
    if metric.satisfied(probe_err(c0), bound):
        a, b = lo, c0
        j = 0
        while True:
            t = c0 - step * 4**j
            if t <= lo:
                break
            if metric.satisfied(probe_err(t), bound):
                b = t
                j += 1
            else:
                a = t + 1
                break
    else:
        a, b = c0 + 1, hi
        j = 0
        while True:
            t = c0 + step * 4**j
            if t >= hi:
                break
            if metric.satisfied(probe_err(t), bound):
                b = t
                break
            a = t + 1
            j += 1
    while a < b:
        mid = (a + b) // 2
        if metric.satisfied(probe_err(mid), bound):
            b = mid
        else:
            a = mid + 1
    return _fixup(exact_err, metric, bound, a, hi, stride)
