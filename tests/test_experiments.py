"""Tests for the experiment harness: config, runner, figure drivers, report."""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.core.collector import run_addc_collection
from repro.core.pcr import PcrParameters
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig4 import FIG4_SWEEPS, figure4_rows
from repro.experiments.fig6 import FIG6_SWEEPS, run_fig6_sweep, sweep_point_configs
from repro.experiments.report import (
    render_ablation_table,
    render_fig4_table,
    render_fig6_table,
)
from repro.experiments.runner import (
    ComparisonPoint,
    run_addc_only,
    run_comparison_point,
)
from repro.metrics.aggregate import summarize_delays
from repro.routing.coolest import run_coolest_collection


class TestExperimentConfig:
    def test_paper_scale_defaults(self):
        config = ExperimentConfig.paper_scale()
        assert config.area == 62500.0
        assert config.num_pus == 400
        assert config.num_sus == 2000
        assert config.p_t == 0.3
        assert config.eta_p_db == 8.0
        assert config.repetitions == 10

    def test_scaled_configs_preserve_densities(self):
        paper = ExperimentConfig.paper_scale()
        for scaled in (ExperimentConfig.bench_scale(), ExperimentConfig.quick_scale()):
            assert scaled.pu_density == pytest.approx(paper.pu_density, rel=0.01)
            assert scaled.su_density == pytest.approx(paper.su_density, rel=0.01)

    def test_with_overrides(self):
        config = ExperimentConfig.quick_scale().with_overrides(p_t=0.1)
        assert config.p_t == 0.1
        assert config.num_sus == ExperimentConfig.quick_scale().num_sus

    def test_deployment_spec_mirrors_fields(self):
        config = ExperimentConfig.quick_scale()
        spec = config.deployment_spec()
        assert spec.area == config.area
        assert spec.num_pus == config.num_pus
        assert spec.p_t == config.p_t

    def test_every_field_reaches_a_run(self):
        config = ExperimentConfig.quick_scale().with_overrides(
            pu_power=11.0,
            su_power=12.0,
            pu_radius=9.0,
            su_radius=8.0,
            p_t=0.2,
            alpha=3.5,
            eta_p_db=9.0,
            eta_s_db=7.0,
            zeta_bound="safe",
            blocking="geometric",
            slot_duration_ms=2.0,
            contention_window_ms=0.7,
            max_slots=1234,
        )
        names = {field.name for field in dataclasses.fields(ExperimentConfig)}
        spec = dataclasses.asdict(config.deployment_spec())
        options = config.run_options()
        assert not set(spec) & set(options)
        assert (set(spec) & names) | set(options) | {"repetitions", "seed"} == names
        for name in set(spec) & names:
            assert spec[name] == getattr(config, name)
        for name, value in options.items():
            assert value == getattr(config, name)
        # Both collection runners take every option by that name.
        for runner in (run_addc_collection, run_coolest_collection):
            assert set(options) <= set(inspect.signature(runner).parameters)
        # The PCR a config implies reads its fields by the same names.
        assert {field.name for field in dataclasses.fields(PcrParameters)} <= names

    def test_invalid_configs(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(p_t=1.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(blocking="nope")


class TestFig4:
    def test_rows_cover_sweeps_and_alphas(self):
        rows = figure4_rows()
        expected = sum(len(values) for values in FIG4_SWEEPS.values()) * 2
        assert len(rows) == expected

    def test_alpha3_always_larger(self):
        rows = figure4_rows()
        by_key = {(r.parameter, r.value, r.alpha): r.pcr for r in rows}
        for parameter, values in FIG4_SWEEPS.items():
            for value in values:
                assert by_key[(parameter, value, 3.0)] > by_key[
                    (parameter, value, 4.0)
                ]

    def test_pcr_nondecreasing_in_each_parameter(self):
        # The paper states the PCR is non-decreasing in P_p, P_s, eta_p and
        # eta_s.  For the powers this holds once the varied power reaches
        # the other network's power (below it, c1 or c3 shrinks and the
        # corresponding term actually grows — a quirk of Eq. 16 the sweep
        # keeps visible); the threshold sweeps are monotone throughout.
        rows = figure4_rows()
        for parameter, values in FIG4_SWEEPS.items():
            for alpha in (3.0, 4.0):
                series = [
                    (r.value, r.pcr)
                    for r in rows
                    if r.parameter == parameter and r.alpha == alpha
                ]
                if parameter in ("pu_power", "su_power"):
                    series = [(v, p) for v, p in series if v >= 10.0]
                pcrs = [p for _, p in series]
                assert pcrs == sorted(pcrs)

    def test_render_table(self):
        text = render_fig4_table(figure4_rows())
        assert "Figure 4" in text
        assert "pu_power" in text and "eta_s_db" in text


class TestFig6Machinery:
    def test_all_six_sweeps_defined(self):
        assert set(FIG6_SWEEPS) == {
            "fig6a",
            "fig6b",
            "fig6c",
            "fig6d",
            "fig6e",
            "fig6f",
        }

    def test_scaled_sweep_values(self):
        base = ExperimentConfig.quick_scale()
        points = sweep_point_configs(FIG6_SWEEPS["fig6b"], base)
        for (x_value, config), multiplier in zip(points, FIG6_SWEEPS["fig6b"].values):
            assert config.num_sus == max(int(round(base.num_sus * multiplier)), 1)
            assert x_value == config.num_sus

    def test_absolute_sweep_values(self):
        base = ExperimentConfig.quick_scale()
        points = sweep_point_configs(FIG6_SWEEPS["fig6c"], base)
        assert [x for x, _ in points] == list(FIG6_SWEEPS["fig6c"].values)

    def test_invalid_sweep_kind(self):
        from repro.experiments.fig6 import Fig6Sweep

        with pytest.raises(ConfigurationError):
            Fig6Sweep("x", "p_t", "weird", (0.1,), "desc")
        with pytest.raises(ConfigurationError):
            Fig6Sweep("x", "p_t", "absolute", (), "desc")


class TestRunner:
    @pytest.fixture(scope="class")
    def point(self):
        config = ExperimentConfig.quick_scale().with_overrides(
            repetitions=1, num_sus=50, num_pus=10, area=40.0 * 40.0
        )
        return run_comparison_point(config)

    def test_comparison_point_completes(self, point):
        assert point.addc_delay_ms.mean > 0
        assert point.coolest_delay_ms.mean > 0
        assert point.addc_delay_ms.count == 1
        assert point.skipped_repetitions == 0

    def test_reduction_and_speedup_consistent(self, point):
        assert point.speedup == pytest.approx(
            1.0 + point.reduction_percent / 100.0
        )

    def test_run_addc_only_ablations(self):
        config = ExperimentConfig.quick_scale().with_overrides(
            repetitions=1, num_sus=50, num_pus=10, area=40.0 * 40.0
        )
        stats = run_addc_only(config, fairness_wait=False, use_cds_tree=False)
        assert stats.mean > 0
        assert stats.count == 1

    def test_on_incomplete_value_validated(self):
        config = ExperimentConfig.quick_scale().with_overrides(repetitions=1)
        with pytest.raises(ConfigurationError):
            run_comparison_point(config, on_incomplete="ignore")

    def test_on_incomplete_modes_when_max_slots_too_small(self):
        # Five slots cannot complete any collection, so "raise" aborts on
        # the first repetition and "skip" drops them all — which is itself
        # an error (a point with no surviving repetitions has no average).
        config = ExperimentConfig.quick_scale().with_overrides(
            repetitions=1, num_sus=50, num_pus=10, area=40.0 * 40.0,
            max_slots=5,
        )
        with pytest.raises(SimulationError):
            run_comparison_point(config)
        with pytest.raises(SimulationError) as excinfo:
            run_comparison_point(config, on_incomplete="skip")
        assert "all 1 repetitions" in str(excinfo.value)


def _fixed_point(config, addc, coolest) -> ComparisonPoint:
    return ComparisonPoint(
        config=config,
        addc_delay_ms=summarize_delays(addc),
        coolest_delay_ms=summarize_delays(coolest),
        addc_delays=list(addc),
        coolest_delays=list(coolest),
    )


class TestRenderers:
    def test_fig6_table(self):
        config = ExperimentConfig.quick_scale().with_overrides(
            repetitions=1, num_sus=40, num_pus=8, area=36.0 * 36.0
        )
        points = run_fig6_sweep(
            FIG6_SWEEPS["fig6c"], config, values=(0.1, 0.2)
        )
        text = render_fig6_table("fig6c", "delay vs p_t", points)
        assert "ADDC" in text and "Coolest" in text
        assert "mean reduction" in text
        assert "censored" not in text

    def test_fig6_table_lists_censored_repetitions(self):
        config = ExperimentConfig.quick_scale()
        point = dataclasses.replace(
            _fixed_point(config, [10.0, 12.0], [30.0, 36.0]),
            skipped_repetitions=3,
        )
        clean = _fixed_point(config, [10.0, 12.0], [30.0, 36.0])
        censored = render_fig6_table(
            "fig6c", "delay vs p_t", [(0.1, clean), (0.3, point)]
        )
        uncensored = render_fig6_table(
            "fig6c", "delay vs p_t", [(0.1, clean), (0.3, clean)]
        )
        extra = censored.splitlines()[len(uncensored.splitlines()):]
        # One line for the censored point, none for the clean one, and
        # everything above it is the uncensored table unchanged.
        assert censored.startswith(uncensored)
        assert extra == [
            "  censored at x = 0.3: 3 of 5 repetition(s) hit max_slots; "
            "the row averages the other 2"
        ]

    def test_ablation_table(self):
        text = render_ablation_table(
            "Ablation", [("with", 10.0, 1.0), ("without", 12.0, 2.0)]
        )
        assert "with" in text and "without" in text
