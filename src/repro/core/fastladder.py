"""Fast-path incremental reconstruction/error engine for ladder construction.

``build_ladder``'s search probes stream cuts per rung; an exact probe
pays a full multi-level reconstruction plus an O(n) metric pass (a plain
binary search makes ~``b · log2(n)`` full passes per ladder).  This
engine answers the probes from maintained state instead:

* **Per-level-offset boundary caching** — the partial reconstruction at
  every ``level_offsets[order]`` boundary (all coarser stream segments
  fully applied, nothing from that order onward) is snapshotted during
  one recomposition pass, on the boundary level's own grid.  The
  full-resolution difference ``original − R(boundary)`` is materialised
  lazily per boundary and cached, so a probe far from the current cut
  seeds from the nearest boundary instead of replaying the whole stream.
* **Incremental SSE tracking** — the reconstruction is *linear* in the
  stream coefficients, so moving the cut by Δ coefficients perturbs the
  final reconstruction only on the composed prolongation stencil of
  those Δ coefficients.  Per stream level the engine pre-expands every
  coefficient's level-0 contribution (index, weight·value) into a flat
  table with a uniform per-coefficient footprint, so applying a stream
  range is a table slice + one ``bincount`` — O(Δcut · stencil) work to
  build the delta — followed by an O(n) diff update and SSE dot with
  tiny constants.  NRMSE and PSNR both derive from the SSE.

Stencils come from
:meth:`repro.core.transforms.Transform.prolongation_operator_1d`: both
transforms prolongate separably per axis, so the composed level→0
impulse response of one coarse coefficient is the outer product of
per-axis windows, and multi-level responses compose by matrix product.
Coefficients of the finest stream level scatter directly (stencil of 1).

Numerical contract: probe SSEs agree with the exact slow path to ~1e-12
relative — the *order* of floating-point operations differs, nothing
else.  ``build_ladder`` therefore drives its search with engine probes
but re-measures the final cut of every rung with the exact path, and
tests/test_fastladder.py pins bucket cuts identical to the pre-engine
exact search (``tests/ladder_oracle.py``) across shapes, strides,
transforms, and metrics.
"""

from __future__ import annotations

import numpy as np

from repro.core.refactor import Decomposition

__all__ = ["LadderProbeEngine"]

#: Moves whose contribution-table slices total at least this many (and at
#: least n/16) entries take the dense path: one full-grid ``bincount``,
#: an O(n) diff update, and an SSE recompute (which also resets any
#: accumulated incremental drift).  Smaller moves take the sparse path:
#: merge just the touched positions and update the SSE incrementally.
_DENSE_ENTRY_FLOOR = 4096

#: Moves totalling at least this many table entries per grid point are
#: replayed as one scatter-and-prolongate chain instead — a full
#: prolongation chain costs roughly this many entry-equivalents.
_GRID_COST_FACTOR = 3


class _LevelStencil:
    """Composed level→0 prolongation windows for one coarse stream level.

    Per axis ``a`` the composed operator's column ``j`` is nonzero on a
    contiguous row range; ``starts[a][j]`` is its first row (clipped so
    every window fits) and ``windows[a][j]`` the dense weights of width
    ``widths[a]`` (zero-padded — padded rows stay in range and carry
    weight 0).  The full-grid response of coarse point ``(j_0, …)`` is
    ``outer(windows[0][j_0], …)`` at rows ``starts[a][j_a] + t``.
    """

    __slots__ = ("coarse_shape", "starts", "windows", "widths", "fine_strides", "footprint")

    def __init__(self, operators: list[np.ndarray], coarse_shape: tuple[int, ...],
                 fine_shape: tuple[int, ...]) -> None:
        self.coarse_shape = coarse_shape
        self.starts: list[np.ndarray] = []
        self.windows: list[np.ndarray] = []
        self.widths: list[int] = []
        for op in operators:
            n_fine, n_coarse = op.shape
            nz = op != 0.0
            has = nz.any(axis=0)
            first = nz.argmax(axis=0)
            last = n_fine - 1 - nz[::-1].argmax(axis=0)
            width = int(np.max(np.where(has, last - first + 1, 1)))
            start = np.minimum(np.where(has, first, 0), n_fine - width).astype(np.intp)
            rows = start[:, None] + np.arange(width)[None, :]
            self.starts.append(start)
            self.windows.append(op[rows, np.arange(n_coarse)[:, None]])
            self.widths.append(width)
        strides = np.ones(len(fine_shape), dtype=np.intp)
        for a in range(len(fine_shape) - 2, -1, -1):
            strides[a] = strides[a + 1] * fine_shape[a + 1]
        self.fine_strides = strides
        self.footprint = int(np.prod(self.widths))

    def table(self, positions: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat level-0 contribution table of ``values`` scattered at the
        coarse flat ``positions``.

        Returns ``(idx, contrib)``, each of shape ``(m · footprint,)``
        laid out row-major per coefficient, so the entries of stream
        subrange ``[a, b)`` are the contiguous slice
        ``[a·footprint, b·footprint)``.  Duplicated indices are *not*
        merged; padded window slots carry contribution 0 at an in-range
        index.
        """
        nd = np.unravel_index(positions, self.coarse_shape)
        w = values.astype(np.float64, copy=False)[:, None]
        flat = np.zeros((positions.size, 1), dtype=np.intp)
        for a, idx in enumerate(nd):
            rows = (self.starts[a][idx][:, None] + np.arange(self.widths[a])[None, :])
            rows = rows * self.fine_strides[a]
            w = (w[:, :, None] * self.windows[a][idx][:, None, :]).reshape(positions.size, -1)
            flat = (flat[:, :, None] + rows[:, None, :]).reshape(positions.size, -1)
        return flat.reshape(-1), w.reshape(-1)


class LadderProbeEngine:
    """Incremental SSE evaluator over a sorted coefficient stream.

    Parameters mirror the private stream layout of
    :class:`~repro.core.error_control.AccuracyLadder`: positions index
    the fine grid of each segment's own decomposition level, segments
    are ordered coarsest level first, and ``level_offsets[k]`` is the
    stream offset where order-``k``'s segment begins.
    """

    def __init__(
        self,
        dec: Decomposition,
        stream_positions: np.ndarray,
        stream_values: np.ndarray,
        level_offsets: np.ndarray,
        original: np.ndarray,
    ) -> None:
        # Only the geometry the probes read is kept, not ``dec`` itself:
        # the decomposition owns the ladder scratch that owns this engine,
        # and a back-reference would make every dropped decomposition a
        # cycle that waits for a full garbage collection.
        self._shapes = list(dec.shapes)
        self._strides = dec.strides
        self._tr = dec.transform_obj
        self._pos = np.asarray(stream_positions, dtype=np.intp)
        self._vals = np.asarray(stream_values, dtype=np.float64)
        self._offsets = np.asarray(level_offsets, dtype=np.int64)
        self._original = np.asarray(original, dtype=np.float64)
        self._orig_flat = np.ascontiguousarray(self._original).reshape(-1)
        self.n_points = int(self._original.size)
        self.stream_length = int(self._vals.size)

        num_levels = dec.num_levels
        self._num_orders = num_levels - 1
        #: order k holds decomposition level ``num_levels - 2 - k``.
        self._order_level = [num_levels - 2 - k for k in range(self._num_orders)]

        # One recomposition pass, snapshotting the pre-scatter state at
        # every level boundary (tentpole optimisation 1).
        self._boundary_states: list[np.ndarray] = []
        cur = dec.base.astype(np.float64, copy=True)
        for k in range(self._num_orders):
            level = self._order_level[k]
            cur = np.ascontiguousarray(
                self._tr.prolongate(cur, dec.shapes[level], dec.stride(level))
            )
            self._boundary_states.append(cur)
            lo, hi = int(self._offsets[k]), int(self._offsets[k + 1])
            if hi > lo:
                nxt = cur.copy()
                nxt.reshape(-1)[self._pos[lo:hi]] += self._vals[lo:hi]
                cur = nxt
        #: Exact full-stream reconstruction (boundary ``stream_length``).
        self._full_recon = cur

        #: Per-order footprints; coarse-order contribution tables are
        #: expanded lazily on first touch (see :meth:`_order_table`).
        self._footprints = np.ones(self._num_orders, dtype=np.int64)
        for k, level in enumerate(self._order_level):
            if level > 0:
                widths = []
                for a, n0 in enumerate(dec.shapes[0]):
                    w = 1
                    for lvl in range(level, 0, -1):
                        d = dec.stride(lvl - 1)
                        if dec.shapes[lvl][a] < dec.shapes[lvl - 1][a]:
                            # A composed window of width w spans (w-1) coarse
                            # cells; prolongation widens each cell to d fine
                            # samples with a (2d-1)-wide hat response.
                            w = min((w - 1) * d + (2 * d - 1), dec.shapes[lvl - 1][a])
                    widths.append(w)
                self._footprints[k] = int(np.prod(widths))
        self._tables: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        self._energies: np.ndarray | None = None
        self._energy_prefix: np.ndarray | None = None

        #: Lazily materialised (diff, sse) snapshots per boundary index.
        self._boundary_diffs: dict[int, tuple[np.ndarray, float]] = {}
        diff, sse = self._boundary_diff(self._num_orders)
        self._diff = diff.copy()
        self._sse = sse
        self._cut = self.stream_length

    @property
    def boundary_states(self) -> list[np.ndarray]:
        """Entry ``k``: the reconstruction on order ``k``'s grid with every
        coarser order scattered in full (read-only by convention)."""
        return self._boundary_states

    # -- contribution tables ----------------------------------------------

    def _order_table(self, k: int) -> tuple[np.ndarray, np.ndarray, int]:
        """``(idx, contrib, footprint)`` for order ``k``'s whole segment.

        Row-major per coefficient: stream subrange ``[a, b)`` of this
        order maps to table slice ``[(a-off)·F, (b-off)·F)``.
        """
        hit = self._tables.get(k)
        if hit is not None:
            return hit
        lo, hi = int(self._offsets[k]), int(self._offsets[k + 1])
        pos, vals = self._pos[lo:hi], self._vals[lo:hi]
        level = self._order_level[k]
        if level == 0:
            entry = (pos, vals, 1)
        else:
            shapes, strides = self._shapes, self._strides
            composed: list[np.ndarray] = []
            for a in range(len(shapes[0])):
                op = None
                for lvl in range(1, level + 1):
                    step = self._tr.prolongation_operator_1d(
                        shapes[lvl][a], shapes[lvl - 1][a], strides[lvl - 1]
                    )
                    op = step if op is None else op @ step
                composed.append(np.asarray(op))
            stencil = _LevelStencil(composed, shapes[level], shapes[0])
            idx, contrib = stencil.table(pos, vals)
            entry = (idx, contrib, stencil.footprint)
        self._footprints[k] = entry[2]
        self._tables[k] = entry
        return entry

    def stream_energies(self) -> np.ndarray:
        """Per-coefficient level-0 energy ``c_i² · ‖composed stencil‖²``.

        The exact squared-norm of each coefficient's contribution to the
        full-resolution reconstruction — the residual-energy proxy built
        from these (ignoring only cross-coefficient overlap terms) gives
        far better search seeds than raw ``c_i²``.
        """
        if self._energies is None:
            parts = []
            for k in range(self._num_orders):
                idx, contrib, fp = self._order_table(k)
                if fp == 1:
                    parts.append(contrib * contrib)
                else:
                    parts.append(np.sum(contrib.reshape(-1, fp) ** 2, axis=1))
            self._energies = (
                np.concatenate(parts) if parts else np.zeros(0, dtype=np.float64)
            )
        return self._energies

    def stream_energy_prefix(self) -> np.ndarray:
        """``[0, cumsum(stream_energies())]`` — cached; index ``k`` is the
        stencil energy of the first ``k`` stream coefficients."""
        if self._energy_prefix is None:
            self._energy_prefix = np.concatenate(
                [[0.0], np.cumsum(self.stream_energies())]
            )
        return self._energy_prefix

    # -- boundary snapshots ------------------------------------------------

    def _boundary_diff(self, k: int) -> tuple[np.ndarray, float]:
        """``(original − R(level_offsets[k]), SSE)`` at full resolution."""
        hit = self._boundary_diffs.get(k)
        if hit is not None:
            return hit
        if k == self._num_orders:
            state = self._full_recon
        else:
            state = self._boundary_states[k]
            for level in range(self._order_level[k] - 1, -1, -1):
                state = self._tr.prolongate(
                    state, self._shapes[level], self._strides[level]
                )
        diff = self._orig_flat - np.ascontiguousarray(state).reshape(-1)
        entry = (diff, float(np.dot(diff, diff)))
        self._boundary_diffs[k] = entry
        return entry

    # -- seek --------------------------------------------------------------

    def _entries_between(self, a: int, b: int) -> int:
        """Cost estimate (in table-entry units) of applying stream range
        [a, b), capped at the grid-path cost: very large moves replay one
        scatter-and-prolongate chain in :meth:`_move` instead of
        entry-by-entry expansion."""
        total = 0
        for k in range(self._num_orders):
            lo = max(a, int(self._offsets[k]))
            hi = min(b, int(self._offsets[k + 1]))
            if hi > lo:
                total += (hi - lo) * int(self._footprints[k])
        return min(total, (_GRID_COST_FACTOR + 1) * self.n_points)

    def seek(self, cut: int) -> None:
        """Move the maintained state to ``cut``, via the cheapest route:
        incrementally from the current cut, or seeded from a cached
        level-boundary snapshot."""
        cut = int(cut)
        if not 0 <= cut <= self.stream_length:
            raise ValueError(f"cut must be in [0, {self.stream_length}], got {cut}")
        if cut == self._cut:
            return
        best_cost = self._entries_between(min(cut, self._cut), max(cut, self._cut))
        best_k = None
        for k in range(self._num_orders + 1):
            b = int(self._offsets[k])
            cost = self.n_points + self._entries_between(min(b, cut), max(b, cut))
            if k not in self._boundary_diffs:
                # Building the snapshot prolongates down to full resolution.
                cost += self.n_points * max(self._num_orders - k, 1)
            if cost < best_cost:
                best_cost, best_k = cost, k
        if best_k is not None:
            diff, sse = self._boundary_diff(best_k)
            self._diff = diff.copy()
            self._sse = sse
            self._cut = int(self._offsets[best_k])
        self._move(cut)

    def _move(self, cut: int) -> None:
        if cut > self._cut:
            sign, a, b = 1.0, self._cut, cut
        else:
            sign, a, b = -1.0, cut, self._cut
        spans = []
        for k in range(self._num_orders):
            lo = max(a, int(self._offsets[k]))
            hi = min(b, int(self._offsets[k + 1]))
            if hi > lo:
                spans.append((k, lo, hi))
        if not spans:
            self._cut = cut
            return
        # Very large multi-level moves are cheaper replayed as one
        # scatter-and-prolongate chain (the recompose kernel, ~O(n·levels)
        # with interpolation constants) than expanded entry-by-entry
        # through the tables; the chain is shared by all coarse spans.
        total_entries = sum(
            (hi - lo) * int(self._footprints[k]) for k, lo, hi in spans
        )
        use_grid = total_entries >= _GRID_COST_FACTOR * self.n_points and any(
            self._order_level[k] > 0 for k, _, _ in spans
        )
        if use_grid:
            run: np.ndarray | None = None
            run_level = 0
            fine_spans = []
            for k, lo, hi in spans:  # coarsest level first
                level = self._order_level[k]
                if level == 0:
                    fine_spans.append((lo, hi))
                    continue
                if run is None:
                    run = np.zeros(self._shapes[level])
                else:
                    while run_level > level:
                        run_level -= 1
                        run = np.ascontiguousarray(
                            self._tr.prolongate(
                                run,
                                self._shapes[run_level],
                                self._strides[run_level],
                            )
                        )
                run_level = level
                # Stream positions within one level are distinct cells.
                run.reshape(-1)[self._pos[lo:hi]] += self._vals[lo:hi]
            while run_level > 0:
                run_level -= 1
                run = self._tr.prolongate(
                    run, self._shapes[run_level], self._strides[run_level]
                )
            delta = np.ascontiguousarray(run).reshape(-1)
            for lo, hi in fine_spans:
                delta[self._pos[lo:hi]] += self._vals[lo:hi]
            if sign > 0:
                self._diff -= delta
            else:
                self._diff += delta
            self._sse = float(np.dot(self._diff, self._diff))
            self._cut = cut
            return
        idx_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        fine_only = True
        for k, lo, hi in spans:
            idx, contrib, fp = self._order_table(k)
            fine_only = fine_only and fp == 1
            base = int(self._offsets[k])
            idx_parts.append(idx[(lo - base) * fp:(hi - base) * fp])
            val_parts.append(contrib[(lo - base) * fp:(hi - base) * fp])
        if len(idx_parts) == 1:
            idx, contrib = idx_parts[0], val_parts[0]
        else:
            idx, contrib = np.concatenate(idx_parts), np.concatenate(val_parts)
        if idx.size >= max(self.n_points // 16, _DENSE_ENTRY_FLOOR):
            delta = np.bincount(idx, weights=contrib, minlength=self.n_points)
            if sign > 0:
                self._diff -= delta
            else:
                self._diff += delta
            # Recomputing the SSE as one dot resets any accumulated
            # incremental drift from prior sparse moves.
            self._sse = float(np.dot(self._diff, self._diff))
        else:
            if fine_only and len(idx_parts) == 1:
                # Finest-level positions are distinct: no merge needed.
                uidx, delta = idx, contrib
            else:
                uidx, inv = np.unique(idx, return_inverse=True)
                delta = np.bincount(inv, weights=contrib)
            d_old = self._diff[uidx]
            d_new = d_old - sign * delta
            self._sse += float(np.dot(d_new, d_new) - np.dot(d_old, d_old))
            self._diff[uidx] = d_new
        self._cut = cut

    # -- probes ------------------------------------------------------------

    def sse_at(self, cut: int) -> float:
        """Sum of squared errors of the reconstruction at ``cut``."""
        self.seek(cut)
        return max(self._sse, 0.0)
