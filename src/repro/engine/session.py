"""``ScenarioSession``: one simulated node, composed from a config.

Every experiment entry point used to hand-wire the same stack —
``Simulation`` → ``TieredStorage`` → ``ContainerRuntime`` → noise/churn
→ ``TangoController`` → ``AnalyticsDriver`` → run loop → teardown.  The
session owns that wiring once.  Callers compose a node step by step
(the call order is the wiring order, so entry points keep their exact
legacy event sequencing and stay bit-identical per seed):

    session = ScenarioSession(config)
    app, field, ladder = session.build_ladder()
    dataset = session.stage("xgc-data", ladder)
    session.launch_noise()
    controller = session.build_controller(ladder)
    driver = session.add_analytics("analytics", dataset, controller)
    session.run()

Components are resolved through the :mod:`repro.engine.registry`
registries, so a config naming a registered estimator, policy,
controller, placement, or app just works — including ones registered by
downstream code the engine has never heard of.
"""

from __future__ import annotations

from typing import Callable

from repro.containers import Container, ContainerRuntime
from repro.control import BaseController, ControllerConfig
from repro.core.abplot import AugmentationBandwidthPlot
from repro.dataplane.pipeline import DataPlane
from repro.core.error_control import AccuracyLadder
from repro.core.weights import WeightFunction, calibrate_weight_function
from repro.engine import memo
from repro.engine.registry import APPS, CONTROLLERS, ESTIMATORS, FAULT_CAMPAIGNS, POLICIES
from repro.faults.campaign import FaultCampaign, FaultInjector
from repro.faults.degradation import DegradationPolicy
from repro.obs import OBS
from repro.simkernel import Simulation
from repro.storage.staging import (
    StagedDataset,
    TimeSeriesDataset,
    stage_dataset,
    stage_timeseries,
)
from repro.storage.tier import TieredStorage
from repro.util.rng import make_rng
from repro.workloads.analytics import AnalyticsDriver
from repro.workloads.churn import ChurnSpec, launch_churn
from repro.workloads.noise import launch_noise

__all__ = ["ScenarioSession", "make_weight_function", "AUTO"]


class _Auto:
    """Sentinel: derive the value from the session's config."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<AUTO>"


AUTO = _Auto()


def make_weight_function(
    ladder: AccuracyLadder,
    *,
    use_priority: bool = True,
    use_accuracy: bool = True,
    priority_range: tuple[float, float] = (1.0, 10.0),
) -> WeightFunction:
    """Calibrate the weight function from what this ladder can produce."""
    return calibrate_weight_function(
        ladder,
        use_priority=use_priority,
        use_accuracy=use_accuracy,
        priority_range=priority_range,
    )


class ScenarioSession:
    """Composes sim/storage/runtime/noise/controller/driver from a config.

    ``config`` is a :class:`repro.experiments.config.ScenarioConfig`.
    The node is the paper's two-tier testbed unless
    ``storage_factory(sim) -> TieredStorage`` builds another hierarchy
    (capacity-pressure experiments do); ``placement`` names the
    registered staging strategy :meth:`stage` and :meth:`stage_series`
    use.  Everything else comes from the config; the only per-call
    overrides are the per-tenant axes of multi-tenant nodes
    (``build_ladder``'s ``app`` and ``seed``, ``build_controller``'s
    ``policy``, ``priority`` and ``prescribed_bound``).
    """

    def __init__(
        self,
        config,
        *,
        storage_factory: Callable[[Simulation], TieredStorage] | None = None,
        placement: str = "level",
    ) -> None:
        self.config = config
        self.placement = placement
        self.sim = Simulation()
        if OBS.enabled:
            OBS.tracer.bind_clock(self.sim)
        if storage_factory is not None:
            self.storage = storage_factory(self.sim)
        else:
            self.storage = TieredStorage.two_tier_testbed(self.sim)
        # Every session routes device I/O through a QoS data plane.  A
        # FIFO plane with no policies is a bit-identical re-expression of
        # the legacy direct-submit path (pinned by the recorded engine
        # fingerprints), so this costs nothing on the happy path; configs
        # opt into QoS by declaring ``qos_policies`` / ``max_inflight``.
        self.dataplane = DataPlane(
            self.sim,
            policies=dict(config.qos_policies),
            max_inflight=config.max_inflight,
        )
        for tier in self.storage.tiers:
            self.dataplane.attach(tier.device)
        self.runtime = ContainerRuntime(self.sim)
        self.drivers: dict[str, AnalyticsDriver] = {}
        self.containers: dict[str, Container] = {}
        self._procs: list = []
        self._teardowns: list[Callable[[], None]] = []
        self._abplot: AugmentationBandwidthPlot | None = None
        #: Fault-campaign injector, set by :meth:`apply_faults` (None on
        #: the happy path).
        self.fault_injector: FaultInjector | None = None
        self.finished = False

    # -- shared components ----------------------------------------------

    @property
    def abplot(self) -> AugmentationBandwidthPlot:
        """The node's augmentation-bandwidth plot (shared across tenants)."""
        if self._abplot is None:
            self._abplot = AugmentationBandwidthPlot(bw_low=self.config.bw_low, bw_high=self.config.bw_high)
        return self._abplot

    def build_ladder(self, *, app: str | None = None, seed: int | None = None):
        """Memoized field + ladder for ``app`` (default: the config's).

        Returns ``(app, field, AccuracyLadder)``; the field/ladder pair
        comes from :func:`repro.engine.memo.ladder_for_app`.
        """
        cfg = self.config
        app_obj = APPS.create(cfg.app if app is None else app)
        data, ladder = memo.ladder_for_app(
            app_obj,
            grid_shape=cfg.grid_shape,
            decimation_ratio=cfg.decimation_ratio,
            metric=cfg.metric,
            error_bounds=cfg.error_bounds,
            seed=cfg.seed if seed is None else seed,
        )
        return app_obj, data, ladder

    # -- workload composition --------------------------------------------

    def launch_noise(self) -> list[Container]:
        """Start the config's interfering containers on the capacity tier."""
        cfg = self.config
        return launch_noise(
            self.runtime,
            self.storage.slowest,
            cfg.noise,
            seed=cfg.seed + 1,
            period_jitter=cfg.noise_period_jitter,
        )

    def launch_churn(self, spec: ChurnSpec | None = None):
        """Start a churning population of checkpointing jobs."""
        return launch_churn(self.runtime, self.storage.slowest, spec, seed=self.config.seed + 2)

    def degrade_capacity_tier(self, at_time: float, speed_factor: float) -> None:
        """Schedule a mid-run capacity-tier slowdown (an aging disk)."""
        self.sim.schedule_at(
            at_time, self.storage.slowest.device.set_speed_factor, speed_factor
        )

    def apply_faults(self, faults: "str | FaultCampaign") -> FaultInjector:
        """Arm a fault campaign against the capacity-tier device.

        ``faults`` is a campaign name from
        :data:`~repro.engine.registry.FAULT_CAMPAIGNS` (the factory gets
        this session's config, so event times scale to the horizon) or an
        explicit :class:`~repro.faults.campaign.FaultCampaign`.  The
        injector's RNG is seeded from ``config.seed + 3`` (alongside the
        noise/churn conventions), so the expanded plan — and the whole
        run — is bit-identical per seed.  Drivers added *after* this call
        get the campaign's estimator-feed corruption wired in as their
        sample filter.
        """
        if self.fault_injector is not None:
            raise RuntimeError("a fault campaign is already applied to this session")
        cfg = self.config
        campaign = faults
        if isinstance(faults, str):
            campaign = FAULT_CAMPAIGNS.create(faults, cfg)
        rng = make_rng(cfg.seed + 3)
        self.fault_injector = FaultInjector(
            self.sim, self.storage.slowest.device, campaign, rng=rng
        ).schedule()
        return self.fault_injector

    def stage(self, name: str, ladder: AccuracyLadder) -> StagedDataset:
        """Stage one ladder onto the session's hierarchy."""
        return stage_dataset(
            name,
            ladder,
            self.storage,
            size_scale=self.config.size_scale,
            placement=self.placement,
        )

    def stage_series(self, name: str, ladders: list[AccuracyLadder]) -> TimeSeriesDataset:
        """Stage a per-timestep ladder sequence (campaign-style)."""
        return stage_timeseries(
            name,
            ladders,
            self.storage,
            size_scale=self.config.size_scale,
            placement=self.placement,
        )

    # -- control plane ---------------------------------------------------

    def build_controller(
        self,
        ladder: AccuracyLadder,
        *,
        policy: str | None = None,
        priority: float | None = None,
        prescribed_bound=AUTO,
    ) -> BaseController:
        """Build one tenant's adaptation loop from the config.

        The controller class is the config's ``controller`` entry in the
        :data:`~repro.engine.registry.CONTROLLERS` registry ("tango",
        "pid", "mpc", or anything plugged in).  Its policy's own
        ``build_weight_function`` gives the weight function (the config's
        ``weight_use_*`` flags are the Fig. 13 ablation switches), the
        estimator is created fresh from the
        :data:`~repro.engine.registry.ESTIMATORS` registry, and the
        controller degrades gracefully (bad feed samples walk the
        fallback ladder instead of raising).

        ``policy`` and ``priority`` default to the config's.  An ``AUTO``
        prescribed bound honours ``error_control``: no error control
        mandates nothing beyond the base error (Fig. 8's configuration).
        """
        cfg = self.config
        policy_cls = POLICIES.get(cfg.policy if policy is None else policy)
        weight_fn = policy_cls.build_weight_function(
            ladder,
            use_priority=cfg.weight_use_priority,
            use_accuracy=cfg.weight_use_accuracy,
        )
        if prescribed_bound is AUTO:
            prescribed_bound = (
                cfg.prescribed_bound if cfg.error_control else ladder.base_error
            )
        return CONTROLLERS.get(cfg.controller)(
            ladder,
            policy_cls(weight_fn, weight_cardinality=cfg.weight_cardinality),
            self.abplot,
            config=ControllerConfig(
                prescribed_bound=prescribed_bound,
                priority=cfg.priority if priority is None else priority,
                estimation_interval=cfg.estimation_interval,
            ),
            estimator=ESTIMATORS.create(cfg.estimator, cfg),
            degradation=DegradationPolicy(),
        )

    def add_analytics(
        self,
        name: str,
        dataset: StagedDataset | TimeSeriesDataset,
        controller: BaseController,
        *,
        on_step=None,
    ) -> AnalyticsDriver:
        """Create an analytics container and start its adaptive driver."""
        if name in self.drivers:
            raise ValueError(f"analytics container {name!r} already exists")
        cfg = self.config
        container = self.runtime.create(name)
        injector = self.fault_injector
        driver = AnalyticsDriver(
            container,
            dataset,
            controller,
            period=cfg.period,
            max_steps=cfg.max_steps,
            on_step=on_step,
            retry_policy=cfg.retry,
            # Seeded per driver (after noise=+1, churn=+2, faults=+3) so
            # jittered backoff stays deterministic and tenant-independent.
            rng=make_rng(cfg.seed + 4 + len(self.drivers)),
            sample_filter=injector.corrupt_sample if injector is not None else None,
        )
        proc = self.sim.process(driver.workload())
        container.attach(proc)
        self.drivers[name] = driver
        self.containers[name] = container
        self._procs.append(proc)
        return driver

    # -- run loop + teardown ----------------------------------------------

    def on_teardown(self, fn: Callable[[], None]) -> None:
        """Register a hook to run after the loop, before containers stop."""
        self._teardowns.append(fn)

    def default_horizon(self) -> float:
        """The legacy single-node wall: every step plus a grace period."""
        return self.config.max_steps * self.config.period + 600.0

    def run(self, *, horizon: float | None = None, chunk: float | None | _Auto = AUTO) -> float:
        """Advance the simulation, then tear the node down.

        ``chunk`` is the run-loop granularity: the default (one analytics
        period) re-checks liveness every period and stops as soon as all
        analytics processes finish; ``chunk=None`` runs straight to the
        horizon in one call (multi-tenant semantics: the node stays up for
        the full window).  Returns the final simulated time.
        """
        if self.finished:
            raise RuntimeError("session already ran; build a new one")
        if horizon is None:
            horizon = self.default_horizon()
        if chunk is AUTO:
            chunk = self.config.period
        if chunk is None:
            self.sim.run(until=horizon)
        else:
            while any(p.is_alive for p in self._procs) and self.sim.now < horizon:
                self.sim.run(until=min(self.sim.now + chunk, horizon))
        for fn in self._teardowns:
            fn()
        self.runtime.stop_all()
        self.finished = True
        return self.sim.now
