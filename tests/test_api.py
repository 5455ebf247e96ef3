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
    import repro.experiments.runner as runner
    from repro.cli import main as cli_main
    from repro.control import TangoController
    from repro.core.abplot import AugmentationBandwidthPlot
    from repro.core.error_control import ErrorMetric, build_ladder
    from repro.engine import memo
    from repro.experiments.campaign import CampaignConfig
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.fig16 import run_fig16
    from repro.simkernel import Simulation

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
