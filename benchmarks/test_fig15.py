"""Fig. 15 — weight assignment across time (XGC, 1800–1950 s).

Paper shape: the weight is adjusted per retrieval within every analysis
step and is gradually lowered as the accuracy level rises — the design
that favours low accuracy.  (Uses the paper's total-cardinality weight
reading; see PlanTable's ``weight_cardinality``.)
"""

from repro.experiments.fig15 import run_fig15


def test_fig15(benchmark, emit):
    res = benchmark.pedantic(run_fig15, rounds=1, iterations=1)
    emit("fig15", res.format_rows())
    assert res.window, "weight adjustments must occur in the 1800-1950 s window"
    weights = [w for _, w in res.window]
    assert max(weights) > 100, "adaptive weights must exceed the default"
    assert all(100 <= w <= 1000 for w in weights)
    # Within each step the weight falls as the accuracy level rises.
    groups = res.weights_within_step()
    assert any(len(g) >= 2 for g in groups)
    for g in groups:
        assert g == sorted(g, reverse=True), f"non-decreasing trace {g}"
