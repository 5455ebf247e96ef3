"""Fig. 16 — weak scaling of Tango (1–4 nodes).

Tango's recomposition is embarrassingly parallel: each node holds its own
ephemeral storage and adapts independently, with no communication.  Weak
scaling therefore runs one independent single-node scenario per node
(through ``SweepExecutor``, in separate OS processes — mirroring the
paper's 4-node Chameleon run — whenever the per-node work repays a
process pool) and reports the mean I/O time across nodes — expected to
stay flat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.sweep import SweepExecutor
from repro.experiments.config import ScenarioConfig
from repro.experiments.report import format_table

__all__ = ["Fig16Result", "run_fig16", "run_node"]


def run_node(args: tuple[int, int, int]) -> tuple[float, float]:
    """Run one node's scenario; module-level so it pickles for mp.Pool."""
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
    parallel: bool = True,
) -> Fig16Result:
    """Weak scaling: per node count, average the per-node mean I/O times.

    ``parallel=False`` runs nodes sequentially in-process (useful in
    constrained test environments); results are identical because nodes
    share no state.

    Every node count evaluates the *same* set of per-node scenarios
    (seeds ``seed … seed + max(node_counts) − 1``), executed in batches of
    ``n`` concurrent nodes — the weak-scaling question is whether adding
    nodes changes per-node I/O time, so the workload per node must be
    held fixed.
    """
    total = max(node_counts)
    rows: list[Fig16Row] = []
    for n in node_counts:
        jobs = [(i, seed, max_steps) for i in range(total)]
        executor = SweepExecutor(
            workers=min(n, 4) if parallel and n > 1 else 1,
            chunksize=max(1, total // n),
        )
        results = executor.map(run_node, jobs)
        means = [m for m, _ in results]
        stds = [s for _, s in results]
        rows.append(
            Fig16Row(
                nodes=n,
                mean_io_time=float(np.mean(means)),
                std_io_time=float(np.mean(stds)),
            )
        )
    return Fig16Result(rows=tuple(rows))
