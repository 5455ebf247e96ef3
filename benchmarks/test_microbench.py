"""Component microbenchmarks (proper pytest-benchmark timing loops).

Not paper artifacts — these track the computational cost of Tango's own
machinery, which the paper argues is low (O(n log n) decomposition and
estimation).  Useful for regression-testing the implementation.
"""

import numpy as np
import pytest

from repro.apps import make_app
from repro.core.error_control import ErrorMetric, build_ladder, release_ladder_scratch
from repro.core.estimator import DFTEstimator
from repro.core.refactor import decompose, recompose_full
from repro.core.serialize import pack_ladder, unpack_ladder
from repro.storage.blkio import StreamDemand, compute_rates
from repro.util.units import mb_per_s


@pytest.fixture(scope="module")
def field():
    return make_app("xgc").generate((512, 512), seed=0)


@pytest.fixture(scope="module")
def dec(field):
    return decompose(field, 5)


@pytest.fixture(scope="module")
def ladder(dec):
    return build_ladder(dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE)


def test_micro_decompose(benchmark, field):
    result = benchmark(decompose, field, 5)
    assert result.num_levels == 5


def test_micro_recompose_full(benchmark, dec, field):
    result = benchmark(recompose_full, dec)
    np.testing.assert_allclose(result, field, atol=1e-10)


def test_micro_build_ladder_analytic(benchmark, dec):
    result = benchmark(
        build_ladder, dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE, method="analytic"
    )
    assert result.num_buckets == 3


def test_micro_build_ladder_hybrid(benchmark, dec):
    result = benchmark(
        build_ladder, dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE, method="hybrid"
    )
    assert result.num_buckets == 3


def test_micro_build_ladder_hybrid_coldcache(benchmark, dec):
    """The user-path cost: cold scratch each build, as the memo builds."""

    def build():
        release_ladder_scratch(dec)
        return build_ladder(dec, [0.1, 0.01, 0.001], ErrorMetric.NRMSE)

    result = benchmark.pedantic(build, rounds=3, iterations=1)
    assert result.num_buckets == 3


def test_micro_reconstruct_rung(benchmark, ladder):
    result = benchmark(ladder.reconstruct, 2)
    assert result.shape == ladder.decomposition.shapes[0]


def test_micro_dft_fit(benchmark):
    history = 100 + 40 * np.sin(2 * np.pi * np.arange(256) / 16)
    est = benchmark(lambda: DFTEstimator(0.5).fit(history))
    assert est.is_fitted


def test_micro_dft_predict(benchmark):
    history = 100 + 40 * np.sin(2 * np.pi * np.arange(256) / 16)
    est = DFTEstimator(0.5).fit(history)
    steps = np.arange(256, 512)
    result = benchmark(est.predict, steps)
    assert len(result) == 256


def test_micro_compute_rates(benchmark):
    demands = [
        StreamDemand(
            key=i,
            weight=100 + 50 * i,
            peak_rate=mb_per_s(140),
            floor=mb_per_s(10) if i % 2 else 0.0,
        )
        for i in range(12)
    ]
    rates = benchmark(compute_rates, demands)
    assert len(rates) == 12


def test_micro_pack_unpack(benchmark, ladder):
    payload = pack_ladder(ladder)

    def roundtrip():
        return unpack_ladder(payload)

    restored = benchmark(roundtrip)
    assert restored.stream_length == ladder.stream_length


def test_micro_scenario_throughput(benchmark):
    """Wall-clock cost of one full 10-step scenario simulation."""
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.runner import run_scenario

    def run():
        return run_scenario(ScenarioConfig(max_steps=10, seed=0))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(result.records) == 10
