"""Fig. 16 — weak scaling of Tango (1–4 nodes).

Tango's recomposition is embarrassingly parallel: each node holds its own
ephemeral storage and adapts independently, with no communication.  Weak
scaling therefore runs one independent single-node scenario per node and
reports the mean I/O time across nodes.  Because nodes share nothing,
every node count averages the same per-node runs, so the rows are flat
by construction: the figure shows that Tango adds no cross-node term,
not a measured parallel speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table

__all__ = ["Fig16Result", "run_fig16", "run_node"]


def run_node(args: tuple[int, int, int]) -> tuple[float, float]:
    """Run one node's scenario from ``(node_index, seed, max_steps)``.

    Returns the node's (mean, std) I/O time.
    """
    node_index, seed, max_steps = args
    from repro.experiments.runner import run_scenario

    cfg = ScenarioConfig(
        app="xgc",
        policy="cross-layer",
        prescribed_bound=0.01,
        priority=10.0,
        max_steps=max_steps,
        seed=seed + node_index,
    )
    res = run_scenario(cfg)
    return res.mean_io_time, res.std_io_time


@dataclass(frozen=True)
class Fig16Row:
    nodes: int
    mean_io_time: float
    std_io_time: float


@dataclass(frozen=True)
class Fig16Result:
    rows: tuple[Fig16Row, ...]

    def scaling_flatness(self) -> float:
        """max/min of the mean I/O time across node counts (1.0 = flat)."""
        means = [r.mean_io_time for r in self.rows]
        return max(means) / min(means) if min(means) > 0 else float("inf")

    def format_rows(self) -> str:
        return format_table(
            ["# nodes", "Mean I/O (s)", "Std (s)"],
            [(r.nodes, f"{r.mean_io_time:.2f}", f"{r.std_io_time:.2f}") for r in self.rows],
            title="Fig 16: weak scaling (p=10, NRMSE 0.01)",
        )


def run_fig16(
    *,
    node_counts: tuple[int, ...] = (1, 2, 4),
    max_steps: int = 40,
    seed: int = 0,
) -> Fig16Result:
    """Weak scaling: per node count, average the per-node mean I/O times.

    The workload per node is held fixed: every node count averages the
    same per-node scenarios (seeds ``seed … seed + max(node_counts) − 1``),
    so each runs once, in-process, and every row is built from those
    results.
    """
    results = [run_node((i, seed, max_steps)) for i in range(max(node_counts))]
    mean_io_time = float(np.mean([m for m, _ in results]))
    std_io_time = float(np.mean([s for _, s in results]))
    return Fig16Result(
        rows=tuple(
            Fig16Row(nodes=n, mean_io_time=mean_io_time, std_io_time=std_io_time)
            for n in node_counts
        )
    )
