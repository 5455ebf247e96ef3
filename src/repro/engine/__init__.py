"""The scenario engine: registries, sessions, sweeps, and the ladder memo.

``repro.engine`` is the composition layer between the substrate
(simkernel/storage/containers/core) and the experiments:

* :mod:`repro.engine.registry` — string-keyed component registries with
  a ``@register_*`` decorator API (estimators, policies, controllers,
  placements, apps, fault campaigns);
* :mod:`repro.engine.session` — :class:`ScenarioSession`, the builder
  that composes one simulated node from a config and owns the run loop;
* :mod:`repro.engine.sweep` — :class:`SweepExecutor`, process-pool
  fan-out over config grids with a bit-identical serial fallback;
* :mod:`repro.engine.memo` — the decomposition/ladder memo cache.

This package ``__init__`` stays import-light (registries only): built-in
components import :mod:`repro.engine.registry` to self-register, so
anything heavier here would be circular.  The session/sweep classes are
re-exported lazily.
"""

from repro.engine.registry import (
    APPS,
    ESTIMATORS,
    FAULT_CAMPAIGNS,
    PLACEMENTS,
    POLICIES,
    Registry,
    register_app,
    register_estimator,
    register_fault_campaign,
    register_placement,
    register_policy,
)

__all__ = [
    "Registry",
    "ESTIMATORS",
    "POLICIES",
    "PLACEMENTS",
    "APPS",
    "FAULT_CAMPAIGNS",
    "register_estimator",
    "register_policy",
    "register_placement",
    "register_app",
    "register_fault_campaign",
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
