"""Parity tests for the incremental ladder engine (repro.core.fastladder).

The fast path must be *indistinguishable in results* from the slow path
it replaced: ``build_ladder`` searches with engine probes but
re-measures its landing cuts exactly, so bucket cuts and achieved errors
are bit-identical to the pre-engine implementation, which lives on as
the test oracle ``tests/ladder_oracle.py``.

``PINNED`` below was generated by running the pre-fastladder
``build_ladder`` (the full-reconstruction-per-probe implementation, as
of the commit preceding this engine) over a spread of shapes, per-level
strides, transforms and metrics; the fingerprints are frozen here so a
regression against the historical behaviour — not just internal
self-consistency — is caught.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import make_app
from repro.core import error_control
from repro.core.error_control import (
    ErrorMetric,
    _build_stream,
    _fixup,
    _magnitude_order,
    _reconstruct_stream_at_cut,
    _search_cut_seeded,
    build_ladder,
    release_ladder_scratch,
)
from repro.core.fastladder import LadderProbeEngine
from repro.core.refactor import decompose, levels_for_decimation, recompose_full
from repro.experiments.config import ScenarioConfig
from tests import ladder_oracle
from tests.ladder_oracle import _search_cut, build_ladder_reference


def make_field(shape, seed):
    """The exact recipe the fingerprints were generated with."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.linspace(0, 4, s) for s in shape], indexing="ij")
    f = np.ones(shape)
    for i, ax in enumerate(axes):
        f = f * np.sin((i + 2) * ax)
    return f + 0.03 * rng.standard_normal(shape)


PINNED = [
    {
        "shape": (64, 48),
        "seed": 0,
        "levels": 4,
        "d": 2,
        "transform": 'linear',
        "metric": 'nrmse',
        "bounds": [0.1, 0.01, 0.001],
        "measured": {
            "cuts": [0, 1175, 2599],
            "errors": [0.09508460364818151, 0.009997789268445694, 0.0009996883686781317],
            "base_error": 0.09508460364818151,
        },
        "analytic": {
            "cuts": [0, 1175, 2599],
            "errors": [0.09508460364818151, 0.009997789268445694, 0.0009996883686781317],
            "base_error": 0.09508460364818151,
        },
    },
    {
        "shape": (64, 48),
        "seed": 0,
        "levels": 4,
        "d": 2,
        "transform": 'linear',
        "metric": 'psnr',
        "bounds": [30.0, 50.0, 70.0],
        "measured": {
            "cuts": [772, 2444, 2908],
            "errors": [30.004915107366745, 50.01216014598189, 70.05857028393972],
            "base_error": 14.417440285268874,
        },
        "analytic": {
            "cuts": [772, 2444, 2908],
            "errors": [30.004915107366745, 50.01216014598189, 70.05857028393972],
            "base_error": 14.417440285268874,
        },
    },
    {
        "shape": (96, 96),
        "seed": 1,
        "levels": 3,
        "d": [2, 4],
        "transform": 'linear',
        "metric": 'nrmse',
        "bounds": [0.1, 0.01, 0.001],
        "measured": {
            "cuts": [0, 3141, 7681],
            "errors": [0.0396463243718204, 0.009998947787175983, 0.0009991957257380244],
            "base_error": 0.0396463243718204,
        },
        "analytic": {
            "cuts": [0, 3141, 7681],
            "errors": [0.0396463243718204, 0.009998947787175983, 0.0009991957257380244],
            "base_error": 0.0396463243718204,
        },
    },
    {
        "shape": (96, 96),
        "seed": 1,
        "levels": 4,
        "d": 2,
        "transform": 'average',
        "metric": 'nrmse',
        "bounds": [0.1, 0.01, 0.001],
        "measured": {
            "cuts": [0, 6121, 10828],
            "errors": [0.08112066757303721, 0.009998592289925083, 0.0009994851490738104],
            "base_error": 0.08112066757303721,
        },
        "analytic": {
            "cuts": [0, 6121, 10828],
            "errors": [0.08112066757303721, 0.009998592289925083, 0.0009994851490738104],
            "base_error": 0.08112066757303721,
        },
    },
    {
        "shape": (33, 17),
        "seed": 2,
        "levels": 3,
        "d": 2,
        "transform": 'linear',
        "metric": 'nrmse',
        "bounds": [0.2, 0.02],
        "measured": {
            "cuts": [4, 231],
            "errors": [0.1989535802852022, 0.01986649392461259],
            "base_error": 0.21363987575523127,
        },
        "analytic": {
            "cuts": [4, 231],
            "errors": [0.1989535802852022, 0.01986649392461259],
            "base_error": 0.21363987575523127,
        },
    },
    {
        "shape": (33, 17),
        "seed": 2,
        "levels": 3,
        "d": 2,
        "transform": 'average',
        "metric": 'psnr',
        "bounds": [25.0, 45.0],
        "measured": {
            "cuts": [396, 645],
            "errors": [25.014202576696064, 45.03707189950533],
            "base_error": 9.617333416219168,
        },
        "analytic": {
            "cuts": [396, 645],
            "errors": [25.014202576696064, 45.03707189950533],
            "base_error": 9.617333416219168,
        },
    },
    {
        "shape": (128,),
        "seed": 3,
        "levels": 4,
        "d": 2,
        "transform": 'linear',
        "metric": 'nrmse',
        "bounds": [0.1, 0.01],
        "measured": {
            "cuts": [0, 56],
            "errors": [0.025187525454291766, 0.009947533846449105],
            "base_error": 0.025187525454291766,
        },
        "analytic": {
            "cuts": [0, 56],
            "errors": [0.025187525454291766, 0.009947533846449105],
            "base_error": 0.025187525454291766,
        },
    },
    {
        "shape": (16, 12, 10),
        "seed": 4,
        "levels": 3,
        "d": 2,
        "transform": 'linear',
        "metric": 'nrmse',
        "bounds": [0.1, 0.01],
        "measured": {
            "cuts": [359, 1201],
            "errors": [0.09995696860445512, 0.009972863981916557],
            "base_error": 0.1859053104454591,
        },
        "analytic": {
            "cuts": [359, 1201],
            "errors": [0.09995696860445512, 0.009972863981916557],
            "base_error": 0.1859053104454591,
        },
    },
    {
        "shape": (16, 12, 10),
        "seed": 4,
        "levels": 2,
        "d": 3,
        "transform": 'average',
        "metric": 'nrmse',
        "bounds": [0.05],
        "measured": {
            "cuts": [564],
            "errors": [0.04994046311133851],
            "base_error": 0.16132659356936244,
        },
        "analytic": {
            "cuts": [564],
            "errors": [0.04994046311133851],
            "base_error": 0.16132659356936244,
        },
    },
    {
        "shape": (80, 80),
        "seed": 5,
        "levels": 4,
        "d": 2,
        "transform": 'linear',
        "metric": 'nrmse',
        "bounds": [0.5, 0.05, 0.005, 0.0005],
        "measured": {
            "cuts": [0, 1, 3529, 5686],
            "errors": [0.050708487402895415, 0.0497258242620102, 0.0049972997508430815, 0.0004989580567739229],
            "base_error": 0.050708487402895415,
        },
        "analytic": {
            "cuts": [0, 32, 3529, 5686],
            "errors": [0.050708487402895415, 0.03902132072411631, 0.0049972997508430815, 0.0004989580567739229],
            "base_error": 0.050708487402895415,
        },
    },
]


def _case_id(row):
    d = row["d"]
    d_tag = "x".join(str(x) for x in d) if isinstance(d, list) else str(d)
    return (
        f"{'x'.join(str(s) for s in row['shape'])}-L{row['levels']}-d{d_tag}"
        f"-{row['transform']}-{row['metric']}"
    )


def _decompose_case(row):
    field = make_field(row["shape"], row["seed"])
    return field, decompose(field, row["levels"], row["d"], transform=row["transform"])


class TestPinnedFingerprints:
    """The oracle and ``build_ladder`` both reproduce the pre-engine
    fingerprints exactly."""

    @pytest.mark.parametrize(
        "build", [build_ladder_reference, build_ladder], ids=["reference", "hybrid"]
    )
    @pytest.mark.parametrize("row", PINNED, ids=_case_id)
    def test_matches_pinned_measured(self, row, build):
        _, dec = _decompose_case(row)
        ladder = build(dec, list(row["bounds"]), ErrorMetric(row["metric"]))
        pin = row["measured"]
        assert [b.stop for b in ladder.buckets] == pin["cuts"]
        assert [float(b.achieved_error) for b in ladder.buckets] == pin["errors"]
        assert float(ladder.base_error) == pin["base_error"]

    @pytest.mark.parametrize("row", PINNED, ids=_case_id)
    def test_analytic_matches_pinned(self, row):
        _, dec = _decompose_case(row)
        ladder = build_ladder(
            dec, list(row["bounds"]), ErrorMetric(row["metric"]), method="analytic"
        )
        pin = row["analytic"]
        assert [b.stop for b in ladder.buckets] == pin["cuts"]
        assert [float(b.achieved_error) for b in ladder.buckets] == pin["errors"]
        assert float(ladder.base_error) == pin["base_error"]

    @pytest.mark.parametrize("row", PINNED[:3], ids=_case_id)
    def test_caller_supplied_original_is_equivalent(self, row):
        # Passing the tensor decompose consumed must not change the cuts.
        # Achieved errors may differ in the last ulp: recompose_full can
        # round differently from the original at isolated points, and the
        # exact evaluator compares against whichever reference it holds.
        field, dec = _decompose_case(row)
        with_orig = build_ladder(
            dec, list(row["bounds"]), ErrorMetric(row["metric"]), original=field
        )
        assert [b.stop for b in with_orig.buckets] == row["measured"]["cuts"]
        assert [float(b.achieved_error) for b in with_orig.buckets] == pytest.approx(
            row["measured"]["errors"], rel=1e-12
        )


class TestFastSlowParity:
    """Seeded property sweep: ``build_ladder`` == the oracle on fresh inputs."""

    CASES = [
        ((40, 40), 10, 3, 2, "linear", "nrmse", [0.3, 0.03, 0.003]),
        ((40, 40), 11, 3, 2, "average", "psnr", [20.0, 40.0, 60.0]),
        ((57, 23), 12, 3, [3, 2], "linear", "nrmse", [0.08, 0.008]),
        ((200,), 13, 4, 2, "linear", "psnr", [25.0, 55.0]),
        ((9, 11, 13), 14, 2, 2, "average", "nrmse", [0.2, 0.002]),
        ((31, 64), 15, 4, 2, "linear", "nrmse", [0.5, 0.0005]),
    ]

    @pytest.mark.parametrize(
        "shape,seed,levels,d,transform,metric,bounds",
        CASES,
        ids=lambda v: str(v).replace(" ", ""),
    )
    def test_methods_agree(self, shape, seed, levels, d, transform, metric, bounds):
        rng = np.random.default_rng(seed)
        field = rng.standard_normal(shape) * np.linspace(0.1, 3.0, shape[-1])
        metric = ErrorMetric(metric)

        reference = build_ladder_reference(
            decompose(field, levels, d, transform=transform), list(bounds), metric
        )
        fast = build_ladder(
            decompose(field, levels, d, transform=transform), list(bounds), metric
        )
        assert [b.stop for b in fast.buckets] == [b.stop for b in reference.buckets]
        assert [b.achieved_error for b in fast.buckets] == [
            b.achieved_error for b in reference.buckets
        ]
        assert fast.base_error == reference.base_error


class TestExactReconstructionFloor:
    """What the probe engine buys, as a deterministic count: full
    reconstructions on a cold build of the default scenario ladder."""

    def test_oracle_needs_five_times_the_exact_reconstructions(self, monkeypatch):
        cfg = ScenarioConfig()
        field = make_app(cfg.app).generate(cfg.grid_shape, seed=cfg.seed)
        levels = levels_for_decimation(field.shape, cfg.decimation_ratio)
        real = error_control._reconstruct_stream_at_cut
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[-1])
            return real(*args, **kwargs)

        monkeypatch.setattr(error_control, "_reconstruct_stream_at_cut", counting)
        monkeypatch.setattr(ladder_oracle, "_reconstruct_stream_at_cut", counting)

        def count(build):
            calls.clear()
            ladder = build(decompose(field, levels), list(cfg.error_bounds), cfg.metric)
            return len(calls), ladder

        library, ladder = count(build_ladder)
        oracle, reference = count(build_ladder_reference)
        assert [b.stop for b in ladder.buckets] == [b.stop for b in reference.buckets]
        assert library >= 1  # the patch reached build_ladder; 0 would pass vacuously
        assert oracle >= 5 * library, f"oracle {oracle} vs build_ladder {library}"


class TestMagnitudeOrder:
    """The stream order equals numpy's stable sort by ``-|v|``, ties and
    all.  The oracle builds its stream with the library's
    ``_build_stream``, so only a direct comparison catches a moved order."""

    @staticmethod
    def _stable(v):
        return np.argsort(-np.abs(v), kind="stable")

    CASES = {
        "quantised": np.round(np.random.default_rng(0).standard_normal(500) * 4) / 4,
        "exact_zeros": np.array([0.0, 1.5, 0.0, -2.0, 0.0, 0.0, 3.0]),
        "plus_minus_pairs": np.array([1.0, -1.0, 2.0, -2.0, 1.0, 0.5, -0.5, 2.0]),
        "signed_zeros": np.array([0.0, -0.0, 1.0, -0.0, 0.0]),
        "nan": np.array([1.0, np.nan, -3.0, np.nan, 0.0, 3.0, np.nan]),
        "float32": (np.random.default_rng(1).integers(-8, 9, 300) / 8).astype(np.float32),
        "distinct": np.random.default_rng(2).standard_normal(1000),
        "empty": np.zeros(0),
        "single": np.array([-4.0]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equals_stable_argsort(self, name):
        v = self.CASES[name]
        assert _magnitude_order(v).tolist() == self._stable(v).tolist()

    def test_quantised_field_stream(self):
        # A tie-heavy decomposition: the finest level's stream segment
        # lists tied magnitudes in position order.
        rng = np.random.default_rng(3)
        field = np.round(rng.standard_normal((40, 40)) * 2) / 2
        dec = decompose(field, 3)
        positions, values, offsets = _build_stream(dec)
        lo, hi = int(offsets[-2]), int(offsets[-1])
        seg_pos, seg_vals = positions[lo:hi], values[lo:hi]
        keys = -np.abs(seg_vals)
        assert np.any(keys[1:] == keys[:-1])  # the case really ties
        expected = np.lexsort((seg_pos, keys))
        assert expected.tolist() == list(range(hi - lo))

    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.5, float("nan")]),
            max_size=40,
        ),
        single=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_few_distinct_values(self, values, single):
        v = np.asarray(values, dtype=np.float32 if single else np.float64)
        assert _magnitude_order(v).tolist() == self._stable(v).tolist()


class TestSnapshotReconstruction:
    """Resuming from the probe engine's boundary snapshots reproduces the
    from-base walk byte for byte, and leaves the snapshots untouched."""

    SHAPES = list(
        {
            (row["shape"], row["levels"], str(row["d"]), row["transform"]): row
            for row in PINNED
        }.values()
    )

    @staticmethod
    def _assert_resume_equals_walk(dec):
        positions, values, offsets = _build_stream(dec)
        engine = LadderProbeEngine(dec, positions, values, offsets, recompose_full(dec))
        states = engine.boundary_states
        before = [s.tobytes() for s in states]
        n = int(offsets[-1])
        cuts = {0, n}
        for off in offsets[:-1].tolist():
            cuts |= {off - 1, off, off + 1}
        cuts = sorted(c for c in cuts if 0 <= c <= n)
        for cut in cuts:
            walk = _reconstruct_stream_at_cut(dec, positions, values, offsets, cut)
            resumed = _reconstruct_stream_at_cut(
                dec, positions, values, offsets, cut, boundary_states=states
            )
            assert (resumed.dtype, resumed.shape) == (walk.dtype, walk.shape)
            assert resumed.tobytes() == walk.tobytes(), f"cut {cut}"
        assert [s.tobytes() for s in states] == before

    @pytest.mark.parametrize("row", SHAPES, ids=_case_id)
    def test_pinned_shapes(self, row):
        _, dec = _decompose_case(row)
        self._assert_resume_equals_walk(dec)

    def test_preserved_float32(self):
        field = make_field((40, 36), seed=5).astype(np.float32)
        dec = decompose(field, 3, dtype="preserve")
        assert dec.dtype_nbytes == 4
        self._assert_resume_equals_walk(dec)


class TestLadderDecomposition:
    """A ladder keeps its stream, the base and the geometry, not the dense
    decomposition it was cut from; its decomposition scatters the dense
    augmentations back from the stream on first read."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("row", PINNED, ids=_case_id)
    def test_recomposes_byte_for_byte(self, row, dtype):
        field = make_field(row["shape"], row["seed"])
        dec = decompose(
            field, row["levels"], row["d"], transform=row["transform"], dtype=dtype
        )
        ladder = build_ladder(dec, list(row["bounds"]), ErrorMetric(row["metric"]))
        lean = ladder.decomposition
        assert lean.base is dec.base
        assert (lean.shapes, lean.strides, lean.transform, lean.dtype_nbytes) == (
            dec.shapes,
            dec.strides,
            dec.transform,
            dec.dtype_nbytes,
        )
        assert "augmentations" not in vars(lean), "a geometry read built them"
        full, expected = recompose_full(lean), recompose_full(dec)
        assert (full.dtype, full.shape) == (expected.dtype, expected.shape)
        assert full.tobytes() == expected.tobytes()
        assert len(lean.augmentations) == len(dec.augmentations)
        for got, want in zip(lean.augmentations, dec.augmentations):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    def test_ladder_does_not_keep_the_dense_decomposition(self):
        dec = decompose(make_field((48, 40), seed=9), 3)
        ladder = build_ladder(dec, [0.1, 0.01], ErrorMetric.NRMSE)
        ref = weakref.ref(dec)
        gc.disable()
        try:
            del dec  # and with it the construction scratch
            assert ref() is None, "the ladder keeps its dense decomposition"
        finally:
            gc.enable()
        assert ladder.reconstruct(ladder.num_buckets).shape == (48, 40)


class TestEngineSSE:
    """The engine's incremental SSE tracks exact reconstruction error."""

    @pytest.mark.parametrize(
        "shape,levels,d,transform",
        [
            ((48, 36), 4, 2, "linear"),
            ((48, 36), 3, 2, "average"),
            ((50, 20), 3, [2, 5], "linear"),
            ((160,), 4, 2, "linear"),
            ((12, 10, 8), 3, 2, "linear"),
        ],
    )
    def test_sse_matches_exact(self, shape, levels, d, transform):
        field = make_field(shape, seed=7)
        dec = decompose(field, levels, d, transform=transform)
        positions, values, offsets = _build_stream(dec)
        original = recompose_full(dec)
        engine = LadderProbeEngine(dec, positions, values, offsets, original)

        n = int(values.size)
        rng = np.random.default_rng(0)
        # A mix of local steps and cross-level jumps, both directions.
        cuts = sorted(set(rng.integers(0, n + 1, size=12).tolist()) | {0, n})
        cuts += cuts[::-1][1:]  # walk back down
        # Absolute floor: incremental updates accumulate O(eps·energy)
        # drift, which only matters where the exact SSE is itself ~0
        # (the full-stream cut) and is far below any bound's resolution.
        floor = 1e-12 * float(np.sum(original**2))
        for cut in cuts:
            recon = _reconstruct_stream_at_cut(dec, positions, values, offsets, cut)
            exact_sse = float(np.sum((recon - original) ** 2))
            got = engine.sse_at(cut)
            assert got == pytest.approx(exact_sse, rel=1e-9, abs=floor)


class TestSearchHelpers:
    """Unit coverage of the search/fix-up machinery on synthetic errors."""

    @staticmethod
    def _eval_from(errs):
        return lambda cut: errs[cut]

    def test_fixup_strides_past_non_monotone_step(self):
        # Satisfied at 3, violated again at 4 (non-monotone), ok from 5 on.
        errs = [9.0, 8.0, 7.0, 0.5, 2.0, 0.4, 0.3]
        calls = []

        def ev(cut):
            calls.append(cut)
            return errs[cut]

        cut, err = _fixup(ev, ErrorMetric.NRMSE, 1.0, 4, 6, stride=1)
        assert (cut, err) == (5, 0.4)
        assert calls == [4, 5]

    def test_fixup_clamps_at_hi(self):
        errs = [5.0, 4.0, 3.0]
        cut, err = _fixup(self._eval_from(errs), ErrorMetric.NRMSE, 1.0, 0, 2, stride=2)
        assert (cut, err) == (2, 3.0)

    def test_search_cut_non_monotone_probes(self):
        # Probes claim cut 3 satisfies; the exact evaluator disagrees and
        # the fix-up walks forward to the first truly-satisfying cut.
        probe = [9.0, 8.0, 7.0, 0.9, 0.9, 0.9, 0.9]
        exact = [9.0, 8.0, 7.0, 1.5, 1.2, 0.8, 0.7]
        cut, err = _search_cut(
            self._eval_from(probe), self._eval_from(exact),
            ErrorMetric.NRMSE, 1.0, lo=0, hi=6, stride=1,
        )
        assert (cut, err) == (5, 0.8)

    def test_search_cut_unsatisfiable_clamps_to_full(self):
        exact = [5.0, 4.0, 3.0, 2.0]
        cut, err = _search_cut(
            self._eval_from(exact), self._eval_from(exact),
            ErrorMetric.NRMSE, 1.0, lo=0, hi=3, stride=1,
        )
        assert (cut, err) == (3, 2.0)

    @pytest.mark.parametrize("case_seed", range(25))
    def test_seeded_search_equals_plain_search(self, case_seed):
        # Property: on monotone probe curves the galloping seeded search
        # lands on the same cut as the plain binary search, for any seed.
        rng = np.random.default_rng(case_seed)
        n = int(rng.integers(4, 400))
        errs = np.sort(rng.uniform(0.0, 10.0, size=n + 1))[::-1].tolist()
        bound = float(rng.uniform(0.0, 10.5))
        seed = int(rng.integers(0, n + 1))
        ev = self._eval_from(errs)
        plain = _search_cut(
            ev, ev, ErrorMetric.NRMSE, bound, lo=0, hi=n, stride=3
        )
        seeded = _search_cut_seeded(
            ev, ev, ErrorMetric.NRMSE, bound, lo=0, hi=n, stride=3, seed=seed
        )
        assert seeded == plain

    def test_seeded_search_psnr_direction(self):
        # PSNR satisfaction is err >= bound (higher is better).
        errs = [10.0, 20.0, 30.0, 40.0, 50.0]
        ev = self._eval_from(errs)
        for seed in range(5):
            cut, err = _search_cut_seeded(
                ev, ev, ErrorMetric.PSNR, 35.0, lo=0, hi=4, stride=2, seed=seed
            )
            assert (cut, err) == (3, 40.0)


class TestScratchCache:
    def test_rebuilds_are_cached_and_consistent(self):
        field = make_field((48, 40), seed=9)
        dec = decompose(field, 3)
        first = build_ladder(dec, [0.1, 0.01], ErrorMetric.NRMSE)
        assert hasattr(dec, "_ladder_scratch")
        second = build_ladder(dec, [0.1, 0.01], ErrorMetric.NRMSE)
        assert [b.stop for b in second.buckets] == [b.stop for b in first.buckets]
        # Different bounds reuse the same scratch but search afresh.
        other = build_ladder(dec, [0.05], ErrorMetric.NRMSE)
        fresh = build_ladder(decompose(field, 3), [0.05], ErrorMetric.NRMSE)
        assert [b.stop for b in other.buckets] == [b.stop for b in fresh.buckets]

    def test_release_drops_the_scratch(self):
        field = make_field((48, 40), seed=9)
        dec = decompose(field, 3)
        first = build_ladder(dec, [0.1, 0.01], ErrorMetric.NRMSE)
        release_ladder_scratch(dec)
        assert not hasattr(dec, "_ladder_scratch")
        release_ladder_scratch(dec)  # idempotent
        again = build_ladder(dec, [0.1, 0.01], ErrorMetric.NRMSE)
        assert [b.stop for b in again.buckets] == [b.stop for b in first.buckets]
        assert [b.achieved_error for b in again.buckets] == [
            b.achieved_error for b in first.buckets
        ]

    def test_dropped_decomposition_is_freed_without_gc(self):
        # decomposition -> scratch -> probe engine must not lead back to
        # the decomposition, or every dropped one waits for a full GC.
        dec = decompose(make_field((48, 40), seed=9), 3)
        ladder = build_ladder(dec, [0.1, 0.01], ErrorMetric.NRMSE)
        assert dec._ladder_scratch["engine"] is not None
        ref = weakref.ref(dec)
        gc.disable()
        try:
            del dec, ladder
            assert ref() is None, "a reference cycle keeps the decomposition alive"
        finally:
            gc.enable()

    def test_mismatched_original_rejected(self):
        field = make_field((32, 32), seed=3)
        dec = decompose(field, 3)
        wrong = np.zeros((16, 16))
        with pytest.raises(ValueError):
            build_ladder(dec, [0.1], ErrorMetric.NRMSE, original=wrong)

    def test_unknown_method_rejected(self):
        dec = decompose(make_field((32, 32), seed=3), 3)
        # The exact-probe search is a test oracle, not a method.
        for method in ("turbo", "measured", "reference"):
            with pytest.raises(ValueError):
                build_ladder(dec, [0.1], ErrorMetric.NRMSE, method=method)

