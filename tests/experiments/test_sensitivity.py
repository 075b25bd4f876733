"""Tests for the parameter-sensitivity experiment."""

import pytest

from repro.experiments import sensitivity
from repro.experiments.sweep import SCALES
from repro.sim.metrics import geomean
from tests.oracle import serial_compare, serial_context_grid

#: a scale small enough for the interpreted oracle to replay every setting
TINY = dict(limit=1000, subset=True)


class TestGrid:
    def test_all_knobs_present(self):
        grid = sensitivity.parameter_grid()
        assert set(grid) == {
            "window",
            "cst_links",
            "queue_depth",
            "max_degree",
            "epsilon_max",
        }

    def test_each_knob_has_default_setting(self):
        grid = sensitivity.parameter_grid()
        # the paper default appears in every knob's settings
        assert "paper(18-50)" in grid["window"]
        assert "4" in grid["cst_links"]
        assert "128" in grid["queue_depth"]

    def test_configs_are_valid(self):
        for settings in sensitivity.parameter_grid().values():
            for config in settings.values():
                assert config.cst_entries > 0  # construction validated


class TestRun:
    @pytest.fixture(scope="class")
    def result(self):
        return sensitivity.run(workloads=("array",))

    def test_grid_fully_populated(self, result):
        for knob, settings in result.grid.items():
            assert settings, knob
            assert all(v > 0 for v in settings.values())

    def test_best_setting_is_argmax(self, result):
        for knob, settings in result.grid.items():
            best = result.best_setting(knob)
            assert settings[best] == max(settings.values())

    def test_render_marks_best(self, result):
        text = sensitivity.render(result)
        assert "best" in text
        assert "Parameter sensitivity" in text


class TestAgainstOracle:
    def test_report_equals_a_direct_simulator_loop(self, monkeypatch):
        monkeypatch.setitem(SCALES, "tiny", TINY)
        workloads = ("list",)
        result = sensitivity.run("tiny", workloads)

        limit = TINY["limit"]
        settings = [
            (knob, label, config)
            for knob, by_label in sensitivity.parameter_grid().items()
            for label, config in by_label.items()
        ]
        baselines = serial_compare(workloads, ("none",), limit=limit)
        runs = serial_context_grid(
            workloads, [config for *_, config in settings], limit=limit
        )
        grid = {}
        for (knob, label, _), by_wl in zip(settings, runs):
            grid.setdefault(knob, {})[label] = geomean(
                [by_wl[wl].speedup_over(baselines.get(wl, "none")) for wl in workloads]
            )
        expected = sensitivity.SensitivityResult(grid=grid, workloads=workloads)
        assert result == expected
        assert sensitivity.render(result) == sensitivity.render(expected)
