"""Hierarchical decomposition of analysis data (Section III-B.2).

The simulation output is treated as a tensor on a uniform grid and is
decomposed level by level:

* **restriction** keeps every ``d``-th data point along each dimension,
  ``Ω^{l+1} = restrict(Ω^l)``;
* **prolongation** linearly interpolates the coarse level back to the fine
  grid;
* the **augmentation** stores the detail lost by the restriction.

Sign convention: the paper writes ``Aug^l = prolongate(Ω^{l+1}) − Ω^l`` in
Section III-B but recomposes with ``Ω^l = prolongate(Ω^{l+1}) + Aug^l`` in
Algorithm 1.  We adopt the convention that makes Algorithm 1 exact:

    ``Aug^l = Ω^l − prolongate(Ω^{l+1})``  (truth minus prediction)

so that prolongate-and-add recovers the original bit-for-bit in exact
arithmetic.  Grid points shared by both levels have zero augmentation and
are never stored explicitly.

Complexity: each level costs O(n) and there are O(log n) levels, giving the
paper's O(n log n) decomposition cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "restrict",
    "prolongate",
    "decompose",
    "recompose_full",
    "Decomposition",
    "max_levels",
    "levels_for_decimation",
]


def restrict(fine: np.ndarray, d: int = 2) -> np.ndarray:
    """Restrict a tensor from level ``l`` to ``l+1``: keep every ``d``-th point.

    Works for any dimensionality.  A dimension of size 1 is passed through
    unchanged.
    """
    if d < 2:
        raise ValueError(f"decimation stride d must be >= 2, got {d}")
    fine = np.asarray(fine)
    if fine.ndim == 0:
        raise ValueError("cannot restrict a 0-d array")
    slices = tuple(slice(None, None, d) if s > 1 else slice(None) for s in fine.shape)
    return fine[slices]


def _interp_axis(coarse: np.ndarray, axis: int, fine_len: int, d: int) -> np.ndarray:
    """Linearly interpolate ``coarse`` along ``axis`` back to ``fine_len`` samples.

    Coarse samples sit at fine indices ``0, d, 2d, ...``; fine positions past
    the last coarse sample are clamped (constant extension), matching the
    behaviour of keeping boundary values under restriction of non-aligned
    sizes.
    """
    n_coarse = coarse.shape[axis]
    if n_coarse * d < fine_len - (d - 1) or n_coarse > fine_len:
        raise ValueError(
            f"coarse axis length {n_coarse} inconsistent with fine length "
            f"{fine_len} at stride {d}"
        )
    pos = np.arange(fine_len, dtype=np.float64) / d
    lo = np.minimum(np.floor(pos).astype(np.intp), n_coarse - 1)
    hi = np.minimum(lo + 1, n_coarse - 1)
    w = np.clip(pos - lo, 0.0, 1.0)
    # Clamp beyond the final coarse sample: weight collapses to the endpoint.
    w[hi == lo] = 0.0

    take_lo = np.take(coarse, lo, axis=axis)
    take_hi = np.take(coarse, hi, axis=axis)
    shape = [1] * coarse.ndim
    shape[axis] = fine_len
    # Weights in the data's dtype so float32 inputs interpolate in float32
    # (float64 is unchanged: the cast is a no-op).
    w = w.reshape(shape).astype(coarse.dtype, copy=False)
    return take_lo * (1.0 - w) + take_hi * w


def prolongate(coarse: np.ndarray, fine_shape: tuple[int, ...], d: int = 2) -> np.ndarray:
    """Prolongate (linearly interpolate) a coarse tensor up to ``fine_shape``.

    Separable linear interpolation along each axis; the inverse counterpart
    of :func:`restrict` in the sense that
    ``restrict(prolongate(c, shape, d), d) == c``.
    """
    if d < 2:
        raise ValueError(f"decimation stride d must be >= 2, got {d}")
    coarse = np.asarray(coarse)
    if coarse.dtype not in (np.float32, np.float64):
        coarse = coarse.astype(np.float64)
    if coarse.ndim != len(fine_shape):
        raise ValueError(
            f"dimensionality mismatch: coarse is {coarse.ndim}-d, "
            f"fine_shape has {len(fine_shape)} axes"
        )
    out = coarse
    for axis, fine_len in enumerate(fine_shape):
        if out.shape[axis] == fine_len:
            continue
        out = _interp_axis(out, axis, fine_len, d)
    if out.shape != tuple(fine_shape):
        raise AssertionError(f"prolongation produced {out.shape}, wanted {fine_shape}")
    return out


def max_levels(shape: tuple[int, ...], d: int = 2, min_size: int = 2) -> int:
    """Maximum number of representation levels for a grid of ``shape``.

    Levels are counted including level 0 (the original); restriction stops
    once every non-trivial axis would fall below ``min_size`` samples.
    """
    levels = 1
    sizes = [int(s) for s in shape]
    while True:
        nxt = [-(-s // d) if s > 1 else 1 for s in sizes]
        if nxt == sizes or max(nxt) < min_size:
            break
        sizes = nxt
        levels += 1
    return levels


def levels_for_decimation(shape: tuple[int, ...], decimation_ratio: float, d: int = 2) -> int:
    """Number of levels whose base representation reduces the point count by
    roughly ``decimation_ratio``.

    With stride ``d`` per dimension, each extra level shrinks the point count
    by about ``d**ndim`` (for axes still larger than 1).  The paper quotes
    decimation ratios such as 16, 512, and 8192; this helper converts that
    knob into a level count, capped at the deepest feasible hierarchy.
    """
    if decimation_ratio < 1:
        raise ValueError(f"decimation_ratio must be >= 1, got {decimation_ratio}")
    ndim_eff = sum(1 for s in shape if s > 1)
    if ndim_eff == 0 or decimation_ratio == 1:
        return 1
    per_level = float(d) ** ndim_eff
    extra = max(1, round(math.log(decimation_ratio, per_level)))
    return min(1 + extra, max_levels(shape, d))


@dataclass
class Decomposition:
    """The result of hierarchically decomposing a tensor.

    Attributes
    ----------
    base:
        The coarsest representation ``Ω^{L-1}``.
    augmentations:
        ``augmentations[l]`` is ``Aug^l`` elevating level ``l+1`` to ``l``
        for ``l = 0 .. L-2`` (finest first).  Stored dense, with exact zeros
        at grid points shared between the two levels.  A ladder's
        decomposition builds them from its coefficient stream on first
        read; every other attribute is geometry and never does.
    shapes:
        ``shapes[l]`` is the grid shape of ``Ω^l``; ``shapes[0]`` is the
        original shape.
    d:
        Per-dimension decimation stride between adjacent levels — a single
        int (uniform, the common case) or one stride per level pair
        (the paper's per-level ``d^l``, Table III).  ``stride(l)`` is the
        stride that restricts level ``l`` to ``l+1``.
    """

    base: np.ndarray
    augmentations: list[np.ndarray]
    shapes: list[tuple[int, ...]]
    d: int | tuple[int, ...] = 2
    dtype_nbytes: int = field(default=8)
    #: Name of the restriction/prolongation pair used (see
    #: :mod:`repro.core.transforms`).
    transform: str = "linear"

    @property
    def transform_obj(self):
        from repro.core.transforms import get_transform

        return get_transform(self.transform)

    def stride(self, level: int) -> int:
        """The decimation stride ``d^level`` between level and level+1."""
        if not 0 <= level < self.num_levels - 1:
            raise IndexError(
                f"level must be in [0, {self.num_levels - 2}], got {level}"
            )
        if isinstance(self.d, int):
            return self.d
        return self.d[level]

    @property
    def strides(self) -> tuple[int, ...]:
        """All per-level strides, finest level pair first."""
        if isinstance(self.d, int):
            return (self.d,) * max(self.num_levels - 1, 0)
        return tuple(self.d)

    @property
    def num_levels(self) -> int:
        return len(self.shapes)

    @property
    def original_size(self) -> int:
        return int(np.prod(self.shapes[0]))

    @property
    def base_size(self) -> int:
        return int(self.base.size)

    @property
    def achieved_decimation(self) -> float:
        """Actual point-count reduction of the base representation."""
        return self.original_size / self.base_size

    def aug_nonzero_count(self, level: int) -> int:
        """Number of explicitly-stored (non-shared) points in ``Aug^level``."""
        size = int(np.prod(self.shapes[level]))
        if not self.transform_obj.has_shared_points:
            return size
        return size - int(np.prod(self.shapes[level + 1]))

    def __post_init__(self) -> None:
        if len(self.augmentations) != len(self.shapes) - 1:
            raise ValueError(
                f"expected {len(self.shapes) - 1} augmentations for "
                f"{len(self.shapes)} levels, got {len(self.augmentations)}"
            )
        if tuple(self.base.shape) != tuple(self.shapes[-1]):
            raise ValueError(
                f"base shape {self.base.shape} != coarsest level shape {self.shapes[-1]}"
            )
        if not isinstance(self.d, int):
            self.d = tuple(int(x) for x in self.d)
            if len(self.d) != len(self.shapes) - 1:
                raise ValueError(
                    f"expected {len(self.shapes) - 1} per-level strides, "
                    f"got {len(self.d)}"
                )


def decompose(
    data: np.ndarray,
    num_levels: int,
    d: int | list[int] | tuple[int, ...] = 2,
    *,
    transform: str = "linear",
    dtype: str | np.dtype | type | None = None,
) -> Decomposition:
    """Decompose ``data`` into ``num_levels`` hierarchical levels.

    Returns the base representation plus one augmentation per level pair.
    ``num_levels=1`` yields a trivial decomposition (base == data, no
    augmentations).  ``d`` is a uniform stride or one stride per level
    pair (the paper's ``d^l``), e.g. ``d=[2, 4]`` restricts level 0→1 by
    2 and level 1→2 by 4.  ``transform`` selects the restriction/
    prolongation pair (:mod:`repro.core.transforms`).

    ``dtype`` controls the working precision.  ``None`` (the default)
    keeps the historical behaviour of computing in float64 regardless of
    the input.  ``"preserve"`` keeps a float32 input in float32 end to
    end — halving memory and the per-coefficient byte accounting
    (``Decomposition.dtype_nbytes`` becomes 4) — while non-float inputs
    still promote to float64.  An explicit float32/float64 dtype forces
    that precision.
    """
    from repro.core.transforms import get_transform

    tr = get_transform(transform)
    if dtype is None:
        work_dtype = np.dtype(np.float64)
    elif isinstance(dtype, str) and dtype == "preserve":
        src = np.asarray(data).dtype
        work_dtype = src if src in (np.float32, np.float64) else np.dtype(np.float64)
    else:
        work_dtype = np.dtype(dtype)
        if work_dtype not in (np.float32, np.float64):
            raise ValueError(
                f"dtype must be float32 or float64 (or 'preserve'), got {work_dtype}"
            )
    data = np.asarray(data, dtype=work_dtype)
    if num_levels < 1:
        raise ValueError(f"num_levels must be >= 1, got {num_levels}")
    if isinstance(d, int):
        strides = [d] * (num_levels - 1)
    else:
        strides = [int(x) for x in d]
        if len(strides) != num_levels - 1:
            raise ValueError(
                f"need {num_levels - 1} per-level strides, got {len(strides)}"
            )
    shapes: list[tuple[int, ...]] = [tuple(data.shape)]
    augmentations: list[np.ndarray] = []
    current = data
    for level, stride in enumerate(strides):
        if max(-(-s // stride) if s > 1 else 1 for s in current.shape) < 2:
            raise ValueError(
                f"num_levels={num_levels} exceeds the feasible hierarchy for "
                f"shape {data.shape}: level {level} of shape {current.shape} "
                f"cannot be restricted by {stride}"
            )
        coarse = tr.restrict(current, stride)
        predicted = tr.prolongate(coarse, current.shape, stride)
        augmentations.append(current - predicted)
        shapes.append(tuple(coarse.shape))
        current = coarse
    return Decomposition(
        base=current,
        augmentations=augmentations,
        shapes=shapes,
        d=d if isinstance(d, int) else tuple(strides),
        dtype_nbytes=data.dtype.itemsize,
        transform=transform,
    )


def reconstruct_base_only(dec: Decomposition) -> np.ndarray:
    """Prolongate the base representation to full resolution with no
    augmentations — the lowest-accuracy reconstruction ``R`` provides."""
    tr = dec.transform_obj
    current = dec.base
    for level in range(dec.num_levels - 2, -1, -1):
        current = tr.prolongate(current, dec.shapes[level], dec.stride(level))
    return current


def recompose_full(dec: Decomposition) -> np.ndarray:
    """Reconstruct the original tensor exactly from base + all augmentations."""
    tr = dec.transform_obj
    current = dec.base
    for level in range(dec.num_levels - 2, -1, -1):
        current = (
            tr.prolongate(current, dec.shapes[level], dec.stride(level))
            + dec.augmentations[level]
        )
    return current
