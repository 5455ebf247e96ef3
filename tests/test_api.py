"""Tests for repro.api — the blessed facade — and its deprecation policy."""

import warnings

import pytest

from repro.util.validation import ReproDeprecationWarning


class TestFacade:
    def test_every_name_resolves(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_facade_is_same_objects_as_deep_paths(self):
        import repro.api as api
        from repro.core.error_control import build_ladder
        from repro.engine.session import ScenarioSession, make_weight_function
        from repro.experiments.runner import run_scenario
        from repro.faults import FaultCampaign, RetryPolicy

        assert api.build_ladder is build_ladder
        assert api.run_scenario is run_scenario
        assert api.ScenarioSession is ScenarioSession
        assert api.make_weight_function is make_weight_function
        assert api.FaultCampaign is FaultCampaign
        assert api.RetryPolicy is RetryPolicy

    def test_resilience_surface_present(self):
        import repro.api as api

        for name in ("FaultCampaign", "FaultInjector", "RetryPolicy",
                     "DegradationPolicy", "FAULT_CAMPAIGNS",
                     "register_fault_campaign", "run_resilience"):
            assert name in api.__all__

    def test_no_dead_all_entries(self):
        import repro.api as api

        exported = {n for n in dir(api) if not n.startswith("_")}
        assert set(api.__all__) <= exported


class TestScenarioConfigShims:
    def test_both_spellings_rejected(self):
        from repro.experiments.config import ScenarioConfig

        with pytest.raises(TypeError):
            ScenarioConfig(ladder_bounds=(0.1,), error_bounds=(0.1,))

    def test_canonical_spelling_is_silent(self):
        from repro.experiments.config import ScenarioConfig

        with warnings.catch_warnings():
            warnings.simplefilter("error", ReproDeprecationWarning)
            ScenarioConfig(error_bounds=(0.1, 0.01))


class TestBuildLadderShims:
    def _dec(self):
        from repro.apps import make_app
        from repro.core.refactor import decompose, levels_for_decimation

        field = make_app("xgc").generate((64, 64), seed=0)
        return decompose(field, levels_for_decimation(field.shape, 4))

    def test_unknown_keyword_rejected(self):
        from repro.core.error_control import ErrorMetric, build_ladder

        with pytest.raises(TypeError):
            build_ladder(self._dec(), [0.1], ErrorMetric.NRMSE, bogus=(0.1,))


class TestAbplotShim:
    def test_keyword_construction_is_silent(self):
        from repro.core.abplot import AugmentationBandwidthPlot
        from repro.util.units import mb_per_s

        with warnings.catch_warnings():
            warnings.simplefilter("error", ReproDeprecationWarning)
            AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120))

    def test_duplicate_value_rejected(self):
        from repro.core.abplot import AugmentationBandwidthPlot

        with pytest.raises(TypeError):
            AugmentationBandwidthPlot(1.0, bw_low=2.0)

    def test_too_many_positionals_rejected(self):
        from repro.core.abplot import AugmentationBandwidthPlot

        with pytest.raises(TypeError):
            AugmentationBandwidthPlot(1.0, 2.0, 3.0)


class TestRunnerModuleShim:
    def test_unknown_attribute_still_raises(self):
        import repro.experiments.runner as runner

        with pytest.raises(AttributeError):
            runner.does_not_exist


def _removed_spellings():
    """Each removed spelling (a shim whose one-release deprecation window
    has passed, or a retired option), as (call, exception it now raises)."""
    import importlib

    import repro.api
    import repro.control.config
    import repro.core
    import repro.dataplane
    import repro.engine
    import repro.engine.registry
    import repro.simkernel
    import repro.experiments.runner as runner
    import repro.storage
    import repro.workloads
    from repro.api import DataPlane, TokenBucket
    from repro.cli import main as cli_main
    from repro.control import TangoController
    from repro.core import recompose
    from repro.core.abplot import AugmentationBandwidthPlot
    from repro.core.controller import NoAdaptivityPolicy
    from repro.core.error_control import ErrorMetric, build_ladder
    from repro.engine import memo
    from repro.engine.session import ScenarioSession
    from repro.experiments.campaign import CampaignConfig
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.fig16 import run_fig16
    from repro.simkernel import Simulation
    from repro.storage.tier import TieredStorage

    # The build_ladder, ladder_for_app and TangoController calls fail
    # while binding arguments, before the (absent) decomposition, app or
    # ladder is ever touched.
    app_args = dict(grid_shape=(64, 64), decimation_ratio=4, metric=ErrorMetric.NRMSE, seed=0)
    return {
        "scenario_config_ladder_bounds_keyword": (
            lambda: ScenarioConfig(ladder_bounds=(0.1, 0.01)), TypeError
        ),
        "scenario_config_ladder_bounds_attribute": (
            lambda: ScenarioConfig().ladder_bounds, AttributeError
        ),
        "campaign_config_ladder_bounds_keyword": (
            lambda: CampaignConfig(ladder_bounds=(0.1, 0.01)), TypeError
        ),
        "campaign_config_ladder_bounds_attribute": (
            lambda: CampaignConfig().ladder_bounds, AttributeError
        ),
        "build_ladder_bounds_keyword": (
            lambda: build_ladder(None, metric=ErrorMetric.NRMSE, bounds=[0.1, 0.01]),
            TypeError,
        ),
        "build_ladder_for_app_bounds_keyword": (
            lambda: memo.ladder_for_app(None, bounds=(0.1, 0.01), **app_args),
            TypeError,
        ),
        "ladder_for_app_method_keyword": (
            lambda: memo.ladder_for_app(
                None, error_bounds=(0.1, 0.01), method="hybrid", **app_args
            ),
            TypeError,
        ),
        "tango_controller_legacy_keywords": (
            lambda: TangoController(None, None, None, prescribed_bound=0.01, priority=5.0),
            TypeError,
        ),
        "tango_controller_legacy_positionals": (
            lambda: TangoController(None, None, None, 0.01, 2.0),
            TypeError,
        ),
        "abplot_positional": (lambda: AugmentationBandwidthPlot(1.0, 2.0), TypeError),
        "runner_make_weight_function": (lambda: runner.make_weight_function, AttributeError),
        "run_fig16_parallel_keyword": (lambda: run_fig16(parallel=False), TypeError),
        "cli_bench_subcommand": (lambda: cli_main(["bench"]), SystemExit),
        "simulation_peek": (lambda: Simulation().peek, AttributeError),
        "token_bucket_admission_delay": (
            lambda: TokenBucket(1.0, 1.0).admission_delay, AttributeError
        ),
        "cli_iobench_subcommand": (lambda: cli_main(["iobench"]), SystemExit),
        "simulation_step": (lambda: Simulation().step, AttributeError),
        "policy_plan": (lambda: NoAdaptivityPolicy().plan, AttributeError),
        "scenario_session_run_cluster": (
            lambda: ScenarioSession.run_cluster, AttributeError
        ),
        "core_plan_recomposition": (lambda: repro.core.plan_recomposition, AttributeError),
        "recompose_to_bound": (lambda: recompose.recompose_to_bound, AttributeError),
        "storage_page_cache": (lambda: repro.storage.PageCache, AttributeError),
        **{
            f"workloads_{name}": (lambda name=name: getattr(repro.workloads, name), AttributeError)
            for name in (
                "ApplicationPattern",
                "pattern_workload",
                "TraceEvent",
                "launch_replay",
                "replay_workload",
                "synthesize_trace",
                "trace_from_csv",
                "trace_to_csv",
            )
        },
        "dataplane_default_stage_stack": (
            lambda: repro.dataplane.DEFAULT_STAGE_STACK, AttributeError
        ),
        "scenario_config_stage_stack_keyword": (
            lambda: ScenarioConfig(stage_stack=("cgroup", "blkio", "fifo")), TypeError
        ),
        "scenario_config_stage_stack_attribute": (
            lambda: ScenarioConfig().stage_stack, AttributeError
        ),
        "campaign_config_stage_stack_keyword": (
            lambda: CampaignConfig(stage_stack=("cgroup", "blkio", "fifo")), TypeError
        ),
        "dataplane_stack_keyword": (
            lambda: DataPlane(Simulation(), stack=("cgroup", "blkio", "fifo")), TypeError
        ),
        "dataplane_config_keyword": (
            lambda: DataPlane(Simulation(), config=ScenarioConfig()), TypeError
        ),
        "dataplane_set_policy": (lambda: DataPlane.set_policy, AttributeError),
        **{
            f"{where}_{name}": (
                lambda module=module, name=name: getattr(module, name), AttributeError
            )
            for where, module in (("api", repro.api), ("registry", repro.engine.registry))
            for name in (
                "CLASSIFY_STAGES",
                "ENFORCE_STAGES",
                "SCHEDULE_STAGES",
                "register_classify_stage",
                "register_enforce_stage",
                "register_schedule_stage",
            )
        },
        **{
            f"scenario_config_{name}_keyword": (
                lambda name=name: ScenarioConfig(**{name: None}), TypeError
            )
            for name in (
                "grid_shape",
                "size_scale",
                "noise_phase_jitter",
                "dft_thresh",
                "tiers",
                "degradation",
                "controller_params",
            )
        },
        **{
            f"campaign_config_{name}_keyword": (
                lambda name=name: CampaignConfig(**{name: None}), TypeError
            )
            for name in (
                "app",
                "period",
                "decimation_ratio",
                "error_bounds",
                "prescribed_bound",
                "priority",
                "faults",
                "qos_policies",
                "max_inflight",
                "controller",
                "controller_params",
            )
        },
        # The session methods fail while binding arguments, before the
        # (absent) session, ladder or dataset is touched.
        **{
            f"scenario_session_{method}_{name}_keyword": (
                lambda method=method, args=args, name=name: getattr(
                    ScenarioSession, method
                )(None, *args, **{name: None}),
                TypeError,
            )
            for method, args, names in (
                (
                    "build_controller",
                    (None,),
                    (
                        "controller",
                        "estimator",
                        "estimation_interval",
                        "weight_fn",
                        "weight_use_priority",
                        "weight_use_accuracy",
                        "weight_cardinality",
                    ),
                ),
                ("stage", ("data", None), ("placement", "size_scale", "materialize")),
                ("stage_series", ("data", []), ("placement", "size_scale")),
                ("add_analytics", ("analytics", None, None), ("period", "max_steps")),
                ("launch_noise", (), ("noise", "seed")),
                ("launch_churn", (), ("seed",)),
                ("apply_faults", ("chaos",), ("seed",)),
            )
            for name in names
        },
        "simulation_on_unhandled_failure_keyword": (
            lambda: Simulation(on_unhandled_failure="raise"), TypeError
        ),
        **{
            f"{where}_{name}": (
                lambda module=module, name=name: getattr(module, name), AttributeError
            )
            for where, module in (
                ("api", repro.api),
                ("engine", repro.engine),
                ("registry", repro.engine.registry),
            )
            for name in ("STORAGE_PRESETS", "register_storage_preset")
        },
        "tiered_storage_three_tier_testbed": (
            lambda: TieredStorage.three_tier_testbed, AttributeError
        ),
        "control_config_CONTROLLER_PARAM_NAMES": (
            lambda: repro.control.config.CONTROLLER_PARAM_NAMES, AttributeError
        ),
        "simkernel_UnhandledFailureError": (
            lambda: repro.simkernel.UnhandledFailureError, AttributeError
        ),
        **{
            f"module_{module}": (
                lambda module=module: importlib.import_module(module), ModuleNotFoundError
            )
            for module in (
                "repro.storage.pagecache",
                "repro.workloads.patterns",
                "repro.workloads.replay",
            )
        },
    }


class TestRemovedShims:
    @pytest.mark.parametrize("spelling", sorted(_removed_spellings()))
    def test_old_spelling_raises(self, spelling):
        """No warning, no mapping: the old spelling fails like any unknown
        keyword, positional or attribute (a ReproDeprecationWarning would
        be escalated to an error and fail this test)."""
        call, exc = _removed_spellings()[spelling]
        with pytest.raises(exc):
            call()


class TestControllerConstructionShim:
    """``config=`` is the only, silent spelling; the legacy
    TangoController(..., prescribed_bound=...) signature is a removed
    spelling (see ``_removed_spellings``)."""

    def _parts(self):
        from repro.apps import make_app
        from repro.core.abplot import AugmentationBandwidthPlot
        from repro.core.controller import make_policy
        from repro.core.error_control import ErrorMetric, build_ladder
        from repro.core.refactor import decompose, levels_for_decimation
        from repro.util.units import mb_per_s

        field = make_app("xgc").generate((64, 64), seed=0)
        ladder = build_ladder(
            decompose(field, levels_for_decimation(field.shape, 4)),
            [0.1, 0.01],
            ErrorMetric.NRMSE,
        )
        abplot = AugmentationBandwidthPlot(bw_low=mb_per_s(30), bw_high=mb_per_s(120))
        return ladder, make_policy("app-only", None), abplot

    def test_config_path_is_silent(self):
        from repro.control import ControllerConfig, TangoController

        ladder, policy, abplot = self._parts()
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReproDeprecationWarning)
            TangoController(
                ladder, policy, abplot, config=ControllerConfig(prescribed_bound=0.01)
            )

    def test_config_plus_legacy_rejected(self):
        from repro.control import ControllerConfig, TangoController

        ladder, policy, abplot = self._parts()
        with pytest.raises(TypeError):
            TangoController(
                ladder,
                policy,
                abplot,
                prescribed_bound=0.02,
                config=ControllerConfig(prescribed_bound=0.01),
            )

    def test_neither_config_nor_legacy_rejected(self):
        from repro.control import TangoController

        ladder, policy, abplot = self._parts()
        with pytest.raises(TypeError, match="config"):
            TangoController(ladder, policy, abplot)

    def test_unknown_legacy_kwarg_rejected(self):
        from repro.control import TangoController

        ladder, policy, abplot = self._parts()
        with pytest.raises(TypeError):
            TangoController(ladder, policy, abplot, prescribed_bound=0.01, gain=2.0)

    def test_controller_surface_on_facade(self):
        import repro.api as api

        for name in ("CONTROLLERS", "register_controller", "ControllerConfig",
                     "BaseController", "PidController", "MpcController",
                     "TangoController", "StabilityResult", "run_stability"):
            assert name in api.__all__
