"""Workload generators: the Table IV interfering checkpoint containers
(the paper's I(C^x W)*F pattern: each container's period stands for C^x
and its checkpoint is the W phase), container churn, and the adaptive
analytics driver that executes Algorithm 1 against the simulated
storage."""

from repro.workloads.noise import NoiseSpec, TABLE_IV_NOISE, checkpoint_workload, launch_noise
from repro.workloads.analytics import AnalyticsDriver, StepRecord
from repro.workloads.churn import ChurnSpec, churn_driver, launch_churn

__all__ = [
    "NoiseSpec",
    "TABLE_IV_NOISE",
    "checkpoint_workload",
    "launch_noise",
    "AnalyticsDriver",
    "StepRecord",
    "ChurnSpec",
    "churn_driver",
    "launch_churn",
]
