"""Fig. 16 — weak scaling over 1–4 nodes.

Paper shape: Tango's recomposition needs no communication, so the
average I/O time stays flat as nodes are added.  Here the nodes share
nothing and every row averages the same node runs, so the flatness holds
by construction.
"""

from repro.experiments.fig16 import run_fig16


def test_fig16(benchmark, emit):
    res = benchmark.pedantic(
        lambda: run_fig16(node_counts=(1, 2, 4), max_steps=40),
        rounds=1,
        iterations=1,
    )
    emit("fig16", res.format_rows())
    assert res.scaling_flatness() < 1.05, "weak scaling must be flat"
