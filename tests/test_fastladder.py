"""Parity tests for the incremental ladder engine (repro.core.fastladder).

The fast path must be *indistinguishable in results* from the slow path
it replaced: every ``build_ladder`` method that searches with engine
probes still re-measures its landing cuts exactly, so bucket cuts and
achieved errors are bit-identical to the pre-engine implementation.

``PINNED`` below was generated by running the pre-fastladder
``build_ladder`` (the full-reconstruction-per-probe implementation, as
of the commit preceding this engine) over a spread of shapes, per-level
strides, transforms and metrics; the fingerprints are frozen here so a
regression against the historical behaviour — not just internal
self-consistency — is caught.
"""

import gc
import os
import weakref

import numpy as np
import pytest

from repro.core.error_control import (
    ErrorMetric,
    _build_stream,
    _fixup,
    _reconstruct_stream_at_cut,
    _search_cut,
    _search_cut_seeded,
    build_ladder,
    release_ladder_scratch,
)
from repro.core.fastladder import LadderProbeEngine
from repro.core.refactor import decompose, recompose_full


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
    """Every search method reproduces the pre-engine slow path exactly."""

    @pytest.mark.parametrize("method", ["reference", "measured", "hybrid"])
    @pytest.mark.parametrize("row", PINNED, ids=_case_id)
    def test_matches_pinned_measured(self, row, method):
        _, dec = _decompose_case(row)
        ladder = build_ladder(
            dec, list(row["bounds"]), ErrorMetric(row["metric"]), method=method
        )
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
    """Seeded property sweep: fast methods == reference on fresh inputs."""

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

        reference = build_ladder(
            decompose(field, levels, d, transform=transform),
            list(bounds), metric, method="reference",
        )
        for method in ("measured", "hybrid"):
            fast = build_ladder(
                decompose(field, levels, d, transform=transform),
                list(bounds), metric, method=method,
            )
            assert [b.stop for b in fast.buckets] == [b.stop for b in reference.buckets]
            assert [b.achieved_error for b in fast.buckets] == [
                b.achieved_error for b in reference.buckets
            ]
            assert fast.base_error == reference.base_error


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
        _, positions, values, offsets = _build_stream(dec)
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
        with pytest.raises(ValueError):
            build_ladder(dec, [0.1], ErrorMetric.NRMSE, method="turbo")


class TestBenchHarness:
    def test_run_microbench_smoke(self, tmp_path):
        from repro.experiments.bench import run_microbench, write_report

        seen = []
        report = run_microbench(
            repeats=1, grid=(48, 48), levels=3,
            progress=lambda name, row: seen.append(name),
        )
        names = set(report["benchmarks"])
        assert {
            "build_ladder_reference_nocache",
            "build_ladder_hybrid",
            "build_ladder_measured",
            "build_ladder_analytic",
            "decompose",
        } <= names
        assert {
            "scenario_fig07_contention",
            "blkio_stress16_fast",
            "blkio_stress64",
            "blkio_soak256",
            "cluster_soak_shards1",
            "cluster_soak_shards4",
            "cluster_soak_shards8",
        } <= names
        assert names == set(seen)
        for row in report["benchmarks"].values():
            assert row["min_s"] <= row["median_s"] <= row["max_s"]
        # The cluster soak: identical deterministic event count per shard
        # count, and the scaling ratio recorded (never gated — it tracks
        # the machine's core count, and is null below 8 CPUs).
        assert (
            report["benchmarks"]["cluster_soak_shards1"]["events_executed"]
            == report["benchmarks"]["cluster_soak_shards8"]["events_executed"]
        )
        if (os.cpu_count() or 1) >= 8:
            assert report["derived"]["cluster_scaling_8x"] > 0
        else:
            assert report["derived"]["cluster_scaling_8x"] is None
        # The stability probes: one row per built-in controller, each
        # carrying the control-quality scores alongside events/sec.
        for ctrl in ("tango", "pid", "mpc"):
            row = report["benchmarks"][f"stability_step_{ctrl}"]
            assert row["events_per_sec"] > 0
            assert "settling_time_s" in row and "overshoot" in row
            assert row["overshoot"] >= 0
        assert report["schema"] == 6
        assert report["derived"]["ladder_speedup_default_vs_reference"] > 0
        assert report["machine"]["cpu_count"] >= 1
        out = write_report(report, tmp_path / "BENCH_micro.json")
        import json

        assert json.loads(out.read_text())["schema"] == report["schema"]

    @pytest.mark.parametrize("cpus", [1, 2, 7])
    def test_cluster_scaling_null_below_eight_cpus(self, monkeypatch, cpus):
        from repro.experiments import bench

        monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
        rows = {
            "cluster_soak_shards1": {"events_per_sec": 100.0},
            "cluster_soak_shards8": {"events_per_sec": 112.0},
        }
        derived = bench._cluster_scaling(rows)
        assert derived["cluster_scaling_8x"] is None
        assert f"cpu_count={cpus}" in derived["cluster_scaling_8x_reason"]

    def test_cluster_scaling_recorded_from_eight_cpus(self, monkeypatch):
        from repro.experiments import bench

        monkeypatch.setattr(bench.os, "cpu_count", lambda: 8)
        rows = {
            "cluster_soak_shards1": {"events_per_sec": 100.0},
            "cluster_soak_shards8": {"events_per_sec": 350.0},
        }
        assert bench._cluster_scaling(rows) == {"cluster_scaling_8x": 3.5}

    def test_repeats_validated(self):
        from repro.experiments.bench import run_microbench

        with pytest.raises(ValueError):
            run_microbench(repeats=0)

    def test_compare_bench_events_gate(self, tmp_path):
        """The events/sec hard gate: >20% drop fails, wall noise does not."""
        import importlib.util
        import json
        from pathlib import Path as _Path

        script = _Path(__file__).resolve().parents[1] / "benchmarks" / "compare_bench.py"
        spec = importlib.util.spec_from_file_location("compare_bench", script)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        def write(name, events):
            p = tmp_path / name
            p.write_text(json.dumps(
                {"benchmarks": {"scn": {"median_s": 1.0, "events_per_sec": events}}}
            ))
            return str(p)

        base = write("base.json", 100_000.0)
        assert mod.main([base, write("ok.json", 85_000.0)]) == 0
        assert mod.main([base, write("bad.json", 70_000.0)]) == 1
        # Wall-time regressions alone stay soft (exit 0).
        slow = tmp_path / "slow.json"
        slow.write_text(json.dumps(
            {"benchmarks": {"scn": {"median_s": 9.0, "events_per_sec": 100_000.0}}}
        ))
        assert mod.main([base, str(slow)]) == 0
