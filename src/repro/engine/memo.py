"""Process-local memo cache for decomposition/ladder construction.

Every figure module used to regenerate and re-decompose the same field
for every (policy, replication) cell of its grid; the field and its
ladder depend only on ``(app class, grid shape, decimation ratio,
metric, error_bounds, seed)``, so a sweep of P policies over R replications
pays the decomposition cost P·R times for P·R/R distinct ladders.  This
cache keys on exactly that tuple and shares the resulting
``(field, AccuracyLadder)`` pair.

Sharing is safe because both halves are effectively immutable: the
ladder's construction is deterministic and nothing in the run path
writes to it, and the cached field array is marked read-only so any
accidental in-place mutation (which would silently corrupt later cache
hits) raises instead.  The cache is per-process: parallel sweep workers
each warm their own.

An entry keeps only what its ladder reads.  ``build_ladder`` caches
construction scratch on the decomposition (probe-engine tables, boundary
states, exact per-cut errors) for callers that rebuild under other
bounds; the memo builds one ladder per decomposition, so it releases
that scratch, which is about two thirds of a fresh entry.  Entries hold
no reference cycles, so :func:`clear_cache` and LRU eviction free them
at once, without waiting for a garbage collection.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.apps.base import AnalyticsApp
from repro.core.error_control import (
    AccuracyLadder,
    ErrorMetric,
    build_ladder,
    release_ladder_scratch,
)
from repro.core.refactor import decompose, levels_for_decimation

__all__ = ["ladder_for_app", "cache_info", "clear_cache"]

#: Bounded LRU: a 256x256 float64 field plus its ladder (the
#: decomposition and the sorted coefficient stream; the construction
#: scratch is released) retains 2.3 MiB per entry, measured with
#: tracemalloc, so a full cache holds ~74 MiB.
_MAX_ENTRIES = 32

_lock = threading.Lock()
_cache: OrderedDict[tuple, tuple[np.ndarray, AccuracyLadder]] = OrderedDict()
_hits = 0
_misses = 0


def _key(
    app: AnalyticsApp,
    grid_shape: tuple[int, int],
    decimation_ratio: int,
    metric: ErrorMetric,
    error_bounds: tuple[float, ...],
    seed: int,
) -> tuple:
    # The generated field depends on the app *class* (generate ignores
    # constructor tuning, which only affects analyze()), so the class is
    # the right identity here.
    cls = type(app)
    return (
        f"{cls.__module__}.{cls.__qualname__}",
        tuple(grid_shape),
        int(decimation_ratio),
        metric,
        tuple(error_bounds),
        int(seed),
    )


def ladder_for_app(
    app: AnalyticsApp,
    *,
    grid_shape: tuple[int, int],
    decimation_ratio: int,
    metric: ErrorMetric,
    error_bounds: tuple[float, ...],
    seed: int,
) -> tuple[np.ndarray, AccuracyLadder]:
    """Generate the app's field, decompose it, and build its ladder — memoized.

    The generated field is handed to ``build_ladder`` as the reference
    ``original`` so construction skips its own recompose pass.
    """
    global _hits, _misses
    key = _key(app, grid_shape, decimation_ratio, metric, error_bounds, seed)
    with _lock:
        hit = _cache.get(key)
        if hit is not None:
            _cache.move_to_end(key)
            _hits += 1
            return hit
        _misses += 1
        # Make room before building, so a full cache never holds its
        # entries, this build's scratch and the new entry all at once.
        while len(_cache) >= _MAX_ENTRIES:
            _cache.popitem(last=False)
    data = app.generate(grid_shape, seed=seed)
    data.setflags(write=False)
    levels = levels_for_decimation(data.shape, decimation_ratio)
    dec = decompose(data, levels)
    ladder = build_ladder(dec, list(error_bounds), metric, original=data)
    # One ladder per decomposition: nothing rebuilds from this one, so
    # the entry keeps only what the ladder reads.
    release_ladder_scratch(dec)
    with _lock:
        _cache[key] = (data, ladder)
        _cache.move_to_end(key)
        while len(_cache) > _MAX_ENTRIES:
            _cache.popitem(last=False)
    return data, ladder


def cache_info() -> dict[str, int]:
    """Hit/miss/size counters (diagnostics and tests)."""
    with _lock:
        return {"hits": _hits, "misses": _misses, "size": len(_cache)}


def clear_cache() -> None:
    global _hits, _misses
    with _lock:
        _cache.clear()
        _hits = 0
        _misses = 0
