"""The scenario engine: sessions, sweeps, and the ladder memo.

``repro.engine`` is the composition layer between the substrate
(simkernel/storage/containers/core) and the experiments:

* :mod:`repro.engine.session` — :class:`ScenarioSession`, the builder
  that composes one simulated node from a config and owns the run loop;
* :mod:`repro.engine.sweep` — :class:`SweepExecutor`, process-pool
  fan-out over config grids with a bit-identical serial fallback;
* :mod:`repro.engine.memo` — the decomposition/ladder memo cache.

The components a config names by string live in plain dicts beside
their built-ins (``APPS``, ``POLICIES``, ``ESTIMATORS``, ``CONTROLLERS``,
``PLACEMENTS``, ``FAULT_CAMPAIGNS``, ``ARBITRATION``; all re-exported
by :mod:`repro.api`).  This package ``__init__`` imports nothing: spawned
shard workers import :mod:`repro.engine.sweep` through
:mod:`repro.cluster.pool`, so the session/sweep classes are re-exported
lazily.
"""

__all__ = [
    "ScenarioSession",
    "SweepExecutor",
    "ScenarioSummary",
    "ladder_for_app",
]

_LAZY = {
    "ScenarioSession": ("repro.engine.session", "ScenarioSession"),
    "SweepExecutor": ("repro.engine.sweep", "SweepExecutor"),
    "ScenarioSummary": ("repro.engine.sweep", "ScenarioSummary"),
    "ladder_for_app": ("repro.engine.memo", "ladder_for_app"),
}


def __getattr__(name: str):
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module), attr)
