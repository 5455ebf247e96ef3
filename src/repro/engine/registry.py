"""String-keyed component registries (the engine's plugin plane).

Every place the codebase used to dispatch on a literal string —
``_make_estimator``'s if/elif, ``make_policy``'s table,
``stage_dataset``'s placement check, ``make_app``'s table — now looks
the component up in one of the registries below.  New components plug in with a decorator and become
available everywhere (config validation, CLI choices, sessions, sweeps)
without touching the engine:

    from repro.engine.registry import register_estimator

    @register_estimator("ewma")
    def _make_ewma(config):
        return EWMAEstimator(alpha=0.2)

Built-in components self-register at import time of their defining
module; each registry lazily imports that module on first use, so
``ESTIMATORS.names()`` is complete even when nothing else has been
imported yet.  This module is intentionally dependency-free (stdlib
only) so component modules can import it without cycles.
"""

from __future__ import annotations

import importlib
from typing import Any, Iterator

__all__ = [
    "Registry",
    "ESTIMATORS",
    "POLICIES",
    "CONTROLLERS",
    "PLACEMENTS",
    "APPS",
    "FAULT_CAMPAIGNS",
    "register_estimator",
    "register_policy",
    "register_controller",
    "register_placement",
    "register_app",
    "register_fault_campaign",
]


class Registry:
    """A named table of factories keyed by short string identifiers.

    ``builtins`` names a module whose import registers the built-in
    entries; it is imported lazily on first lookup so that importing the
    registry itself stays free of heavyweight dependencies.
    """

    def __init__(self, kind: str, *, builtins: str | None = None) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}
        self._builtins = builtins

    # -- registration ---------------------------------------------------

    def register(self, name: str, obj: Any = None, *, overwrite: bool = False):
        """Register ``obj`` under ``name``; usable as a decorator.

        Registering an already-taken name raises unless ``overwrite=True``
        (deliberate replacement, e.g. patching a component for an
        ablation study).
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string, got {name!r}")

        def _add(target: Any) -> Any:
            if not overwrite and name in self._entries and self._entries[name] is not target:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered; "
                    f"pass overwrite=True to replace it"
                )
            self._entries[name] = target
            return target

        if obj is None:
            return _add
        return _add(obj)

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests tearing down plugins)."""
        self._ensure_builtins()
        self._entries.pop(name, None)

    # -- lookup ---------------------------------------------------------

    def _ensure_builtins(self) -> None:
        if self._builtins is not None:
            module, self._builtins = self._builtins, None
            importlib.import_module(module)

    def get(self, name: str) -> Any:
        """The registered factory, or a ValueError naming the options."""
        self._ensure_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; expected one of {sorted(self._entries)}"
            ) from None

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Look up ``name`` and call the factory with the given arguments."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> tuple[str, ...]:
        self._ensure_builtins()
        return tuple(sorted(self._entries))

    def __contains__(self, name: object) -> bool:
        self._ensure_builtins()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_builtins()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Registry {self.kind}: {list(self._entries)}>"


#: Bandwidth estimators: ``factory(config) -> BandwidthEstimator``, where
#: ``config`` is the scenario's ``ScenarioConfig``; estimators are
#: stateful, so the factory must return a fresh instance per call.
ESTIMATORS = Registry("estimator", builtins="repro.core.estimator")

#: Adaptivity policies: ``Policy`` subclasses (see ``repro.core.controller``).
POLICIES = Registry("policy", builtins="repro.core.controller")

#: Adaptation controllers: ``BaseController`` subclasses (see
#: ``repro.control``) keyed by short names ("tango", "pid", "mpc").
#: Instantiated uniformly as ``cls(ladder, policy, abplot,
#: config=ControllerConfig(...), estimator=..., degradation=...)``.
CONTROLLERS = Registry("controller", builtins="repro.control")

#: Staging placement strategies:
#: ``factory(ladder, storage, scale) -> (base_tier, bucket_tiers)``.
PLACEMENTS = Registry("placement", builtins="repro.storage.staging")

#: Analytics applications: ``factory(**kwargs) -> AnalyticsApp``.
APPS = Registry("app", builtins="repro.apps")

#: Fault campaigns: ``factory(config) -> FaultCampaign``.  ``config`` is
#: duck-typed (``period`` / ``max_steps`` read with defaults) so the same
#: campaign name scales to any scenario horizon.
FAULT_CAMPAIGNS = Registry("fault campaign", builtins="repro.faults.campaign")


def register_estimator(name: str, obj: Any = None, **kw: Any):
    return ESTIMATORS.register(name, obj, **kw)


def register_policy(name: str, obj: Any = None, **kw: Any):
    return POLICIES.register(name, obj, **kw)


def register_controller(name: str, obj: Any = None, **kw: Any):
    return CONTROLLERS.register(name, obj, **kw)


def register_placement(name: str, obj: Any = None, **kw: Any):
    return PLACEMENTS.register(name, obj, **kw)


def register_app(name: str, obj: Any = None, **kw: Any):
    return APPS.register(name, obj, **kw)


def register_fault_campaign(name: str, obj: Any = None, **kw: Any):
    return FAULT_CAMPAIGNS.register(name, obj, **kw)
