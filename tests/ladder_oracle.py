"""Test-only reference ladder construction: every search probe is exact.

:func:`build_ladder_reference` is the pre-engine ladder search.  For
every bound (loosest first) it binary-searches the sorted coefficient
stream, paying a full reconstruction and a metric pass per probe, then
strides forward with the same exact fix-up the library uses.  It shares
only the stream layout, the exact reconstruction and the fix-up with
:func:`repro.core.error_control.build_ladder` (no probe engine, seeds or
scratch cache), so parity tests hold the library's cuts and errors to it
with ``==``.
"""

from repro.core.error_control import (
    COEFFICIENT_TAG_BYTES,
    AccuracyLadder,
    AugmentationBucket,
    ErrorBudget,
    _build_stream,
    _fixup,
    _reconstruct_stream_at_cut,
)
from repro.core.refactor import recompose_full


def _search_cut(probe_err, exact_err, metric, bound, *, lo, hi, stride):
    """Minimal cut in [lo, hi] whose measured error satisfies ``bound``.

    ``probe_err`` answers the binary-search probes; ``exact_err``
    measures the landing cut and drives the non-monotonicity fix-up.
    """
    err_hi = exact_err(hi)
    if not metric.satisfied(err_hi, bound):
        # Even the full stream cannot satisfy the bound; clamp to full.
        return hi, err_hi
    a, b = lo, hi
    while a < b:
        mid = (a + b) // 2
        if metric.satisfied(probe_err(mid), bound):
            b = mid
        else:
            a = mid + 1
    return _fixup(exact_err, metric, bound, a, hi, stride)


def build_ladder_reference(dec, error_bounds, metric):
    """The ladder ``build_ladder(dec, error_bounds, metric)`` must equal."""
    budget = ErrorBudget.create(metric, error_bounds)
    levels, positions, values, offsets = _build_stream(dec)
    original = recompose_full(dec)
    n = int(values.size)
    # The fix-up stride the recorded fingerprints were made with.
    stride = max(1, n // 192)
    errors: dict[int, float] = {}

    def exact_err(cut):
        if cut not in errors:
            rec = _reconstruct_stream_at_cut(dec, positions, values, offsets, cut)
            errors[cut] = metric.evaluate(original, rec)
        return errors[cut]

    base_error = exact_err(0)
    buckets = []
    prev_cut = 0
    for m, bound in enumerate(budget.bounds, start=1):
        if metric.satisfied(base_error, bound) and prev_cut == 0:
            cut, err = 0, base_error
        else:
            cut, err = _search_cut(
                exact_err, exact_err, metric, bound, lo=prev_cut, hi=n, stride=stride
            )
        buckets.append(
            AugmentationBucket(
                index=m,
                bound=float(bound),
                start=prev_cut,
                stop=cut,
                finest_level=int(levels[cut - 1]) if cut > 0 else dec.num_levels - 1,
                achieved_error=err,
                bytes_per_coefficient=dec.dtype_nbytes + COEFFICIENT_TAG_BYTES,
            )
        )
        prev_cut = max(prev_cut, cut)
    return AccuracyLadder(
        dec, budget, levels, positions, values, offsets, buckets, base_error
    )
