"""Restriction/prolongation transform pairs for the hierarchy.

The paper's decomposition subsamples (keep every d-th point) and
prolongates by linear interpolation.  Any (restrict, prolongate) pair
yields an exact hierarchy — ``Aug^l = Ω^l − prolongate(restrict(Ω^l))``
recomposes bit-exactly — so the transform is a pluggable design choice:

* ``linear`` (the paper's): subsample + linear interpolation.  Shared
  grid points have exactly-zero augmentation and are never stored.
* ``average`` (Haar-style): block-mean restriction + piecewise-constant
  prolongation.  Anti-aliases noisy data (the coarse level is a filtered
  view, not a subsample) at the cost of storing every augmentation entry
  (no shared points survive averaging).

``benchmarks/test_ablations.py::test_ablation_transform`` quantifies the
trade-off on the evaluation fields.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import lookup

__all__ = ["Transform", "LinearTransform", "AverageTransform", "get_transform", "TRANSFORMS"]


class Transform:
    """Interface: a named restriction/prolongation pair."""

    name: str = "abstract"
    #: Whether restriction keeps original grid points (their augmentation
    #: entries are exactly zero and need not be stored).
    has_shared_points: bool = False

    def restrict(self, fine: np.ndarray, d: int) -> np.ndarray:
        raise NotImplementedError

    def prolongate(self, coarse: np.ndarray, fine_shape: tuple[int, ...], d: int) -> np.ndarray:
        raise NotImplementedError

    def prolongation_operator_1d(self, n_coarse: int, n_fine: int, d: int) -> np.ndarray:
        """Dense ``(n_fine, n_coarse)`` matrix of the 1-D prolongation along one axis.

        Column ``j`` is the impulse response (stencil footprint) of coarse
        sample ``j`` on the fine axis.  Both transforms prolongate
        separably, so the multi-dimensional response of a coarse point is
        the outer product of its per-axis columns, and multi-level
        responses compose by matrix product — the basis of the fast
        ladder engine's sparse-delta reconstruction
        (:mod:`repro.core.fastladder`).

        Derived by prolongating the identity through :meth:`prolongate`
        itself (the trailing axis already matches ``n_coarse`` and is
        passed through), so it is exact for any transform, including
        boundary clamping.
        """
        if n_coarse == n_fine:
            return np.eye(n_coarse)
        return np.asarray(
            self.prolongate(np.eye(n_coarse), (n_fine, n_coarse), d),
            dtype=np.float64,
        )


class LinearTransform(Transform):
    """The paper's transform: subsample + separable linear interpolation."""

    name = "linear"
    has_shared_points = True

    def restrict(self, fine: np.ndarray, d: int) -> np.ndarray:
        from repro.core.refactor import restrict

        return restrict(fine, d)

    def prolongate(self, coarse: np.ndarray, fine_shape: tuple[int, ...], d: int) -> np.ndarray:
        from repro.core.refactor import prolongate

        return prolongate(coarse, fine_shape, d)


class AverageTransform(Transform):
    """Block-mean restriction + piecewise-constant prolongation.

    Coarse sample ``i`` along an axis is the mean of fine samples
    ``[i·d, min((i+1)·d, n))`` (ragged tail blocks average what remains);
    prolongation replicates each coarse sample over its block.  The pair
    satisfies ``restrict(prolongate(c)) == c`` exactly.
    """

    name = "average"
    has_shared_points = False

    def restrict(self, fine: np.ndarray, d: int) -> np.ndarray:
        if d < 2:
            raise ValueError(f"decimation stride d must be >= 2, got {d}")
        out = np.asarray(fine)
        if out.dtype not in (np.float32, np.float64):
            out = out.astype(np.float64)
        if out.ndim == 0:
            raise ValueError("cannot restrict a 0-d array")
        for axis, n in enumerate(out.shape):
            if n <= 1:
                continue
            starts = np.arange(0, n, d)
            sums = np.add.reduceat(out, starts, axis=axis)
            counts = np.minimum(starts + d, n) - starts
            shape = [1] * out.ndim
            shape[axis] = len(starts)
            # Counts in the data's dtype so float32 stays float32 (the
            # float64 path divides by the same exactly-converted values).
            out = sums / counts.reshape(shape).astype(sums.dtype)
        return out

    def prolongate(self, coarse: np.ndarray, fine_shape: tuple[int, ...], d: int) -> np.ndarray:
        if d < 2:
            raise ValueError(f"decimation stride d must be >= 2, got {d}")
        out = np.asarray(coarse)
        if out.dtype not in (np.float32, np.float64):
            out = out.astype(np.float64)
        if out.ndim != len(fine_shape):
            raise ValueError(
                f"dimensionality mismatch: coarse is {out.ndim}-d, "
                f"fine_shape has {len(fine_shape)} axes"
            )
        for axis, fine_len in enumerate(fine_shape):
            if out.shape[axis] == fine_len:
                continue
            out = np.repeat(out, d, axis=axis)
            if out.shape[axis] > fine_len:
                sl = [slice(None)] * out.ndim
                sl[axis] = slice(0, fine_len)
                out = out[tuple(sl)]
            elif out.shape[axis] < fine_len:
                raise ValueError(
                    f"coarse axis {axis} ({coarse.shape[axis]}) cannot cover "
                    f"fine length {fine_len} at stride {d}"
                )
        return out


TRANSFORMS: dict[str, Transform] = {
    LinearTransform.name: LinearTransform(),
    AverageTransform.name: AverageTransform(),
}


def get_transform(name: str) -> Transform:
    """Look up a transform in :data:`TRANSFORMS` by name."""
    return lookup("transform", TRANSFORMS, name)
