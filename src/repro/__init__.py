"""Tango: cross-layer management of I/O interference over local ephemeral
storage (reproduction of the SC'24 paper).

Public API tour
---------------

Core contribution (:mod:`repro.core`):
    :func:`~repro.core.decompose` / :func:`~repro.core.build_ladder` —
    error-bounded hierarchical refactorization;
    :class:`~repro.core.DFTEstimator` — interference estimation;
    :class:`~repro.core.AugmentationBandwidthPlot` and
    :class:`~repro.core.WeightFunction` — the cross-layer coordination maps;
    :class:`~repro.control.TangoController` — the per-application
    adaptation loop, with the four policies of the paper's comparison
    matrix.

Substrates:
    :mod:`repro.simkernel` — discrete-event simulation engine;
    :mod:`repro.storage` — block devices with proportional-weight fluid
    scheduling, cgroups, filesystems, tiers, staging;
    :mod:`repro.containers` — docker-like container runtime;
    :mod:`repro.workloads` — noise containers and the analytics driver;
    :mod:`repro.apps` — XGC / GenASiS / CFD analytics with synthetic data.

Evaluation (:mod:`repro.experiments`): one module per paper table/figure;
see DESIGN.md for the experiment index.
"""

from repro.core import (
    AccuracyLadder,
    AugmentationBandwidthPlot,
    CrossLayerPolicy,
    Decomposition,
    DFTEstimator,
    ErrorMetric,
    WeightFunction,
    build_ladder,
    decompose,
    make_policy,
    nrmse,
    psnr,
    recompose_full,
)
from repro.control import TangoController

__version__ = "1.0.0"

__all__ = [
    "AccuracyLadder",
    "AugmentationBandwidthPlot",
    "CrossLayerPolicy",
    "Decomposition",
    "DFTEstimator",
    "ErrorMetric",
    "TangoController",
    "WeightFunction",
    "build_ladder",
    "decompose",
    "make_policy",
    "nrmse",
    "psnr",
    "recompose_full",
    "__version__",
]
