import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    reference_confront_rows,
    reference_emit,
    reference_hartman_rows,
    reference_multipeak_rows,
    reference_relativistic_times_rows,
    reference_symmetric_times_rows,
)
import tunnellab
from tunnellab import cli, lab, observables, schema, stationary
from tunnellab.cli import main
from tunnellab.lab import (
    SCENARIO_NAMES,
    ConfigError,
    ResultTable,
    ScenarioError,
    emit_tables,
    parse_config,
    run_scenario,
)
from tunnellab.observables import (
    rel_dwell,
    rel_phase_time,
    rel_rescaled_dwell,
    rel_self_interference,
    rel_variational_residual,
)
from tunnellab.stationary import relativistic_transmission


class TestParseConfig:
    def test_minimal_defaults(self):
        spec = parse_config("{}", scenario="table1")
        assert spec.name == "table1"
        assert spec.config["k0a"] == 1.0
        assert spec.config["wa_values"] == [1.5, 2.0, 4.0, 6.0, 8.0, 10.0, 20.0]

    def test_unknown_top_level_key(self):
        for text in ('{"bogus": 1}', '{"output": "runs/x"}'):   # --out sets the prefix
            with pytest.raises(ConfigError, match="unknown top-level"):
                parse_config(text, scenario="table1")

    def test_nesting_too_deep_to_parse(self):
        # json.loads raised RecursionError here
        depth = 200_000
        with pytest.raises(ConfigError, match="nested too deeply"):
            parse_config('{"config": ' + "[" * depth + "]" * depth + "}",
                         scenario="free-packet")

    def test_unknown_config_key(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config('{"config": {"not_a_key": 1}}', scenario="table1")

    def test_parse_error_carries_position(self):
        with pytest.raises(ConfigError, match="line 1, column"):
            parse_config('{"config": }', scenario="table1")

    def test_negative_width_rejected(self):
        with pytest.raises(ConfigError):
            parse_config('{"config": {"a": -1.0}}', scenario="free-packet")

    def test_sweep_bounds_ordered(self):
        with pytest.raises(ConfigError, match="min < max"):
            parse_config('{"sweep": {"parameter": "t", "min": 2, "max": 1, "steps": 5}}',
                         scenario="free-packet")

    def test_sweep_steps_minimum(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config('{"sweep": {"parameter": "n_sq", "min": 1, "max": 2, "steps": 1}}',
                         scenario="relativistic-times")

    def test_sweep_parameter_checked(self):
        with pytest.raises(ConfigError, match="sweeps over"):
            parse_config('{"sweep": {"parameter": "beta", "min": 1, "max": 2, "steps": 5}}',
                         scenario="free-packet")
        with pytest.raises(ConfigError, match="does not accept"):
            parse_config('{"sweep": {"parameter": "alpha", "min": 1, "max": 2, "steps": 5}}',
                         scenario="table1")

    def test_scenario_mismatch(self):
        with pytest.raises(ConfigError, match="requested"):
            parse_config('{"scenario": "table1"}', scenario="hartman")

    def test_unknown_scenario(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            parse_config("{}", scenario="frobnicate")


class TestTable1WorkBound:
    """table1 refuses an oversized grid before building anything.

    These tests never run an oversized config: they call the size check
    directly, or parse_config, which returns before any cell is built.
    """

    @staticmethod
    def config(**overrides):
        return {**lab.scenario_defaults("table1"), **overrides}

    def test_default_grid(self):
        assert schema._table1_rows(self.config()) == 21

    def test_no_row_past_L_over_a_max(self):
        # the span is 3.6 steps: the last row is at L/a = 0.9, none at 1.2
        spec = parse_config(json.dumps({"config": {
            "wa_values": [4], "L_over_a_min": 0, "L_over_a_max": 1.08, "L_over_a_step": 0.3}}),
            scenario="table1")
        (table,) = run_scenario(spec)
        assert [row[1] for row in table.rows] == pytest.approx([0.0, 0.3, 0.6, 0.9])
        # a span integral up to rounding keeps its last row: (0.7 - 0.1) / 0.2 < 3
        assert schema._table1_rows(self.config(L_over_a_min=0.1, L_over_a_max=0.7,
                                               L_over_a_step=0.2)) == 4

    def test_limit_is_inclusive(self):
        limit = schema._TABLE1_MAX_CELLS
        at = self.config(wa_values=[1.0], L_over_a_min=0.0, L_over_a_max=limit - 1.0,
                         L_over_a_step=1.0)
        assert schema._table1_rows(at) == limit
        with pytest.raises(ConfigError, match="L_over_a_step"):
            schema._table1_rows({**at, "L_over_a_max": float(limit)})
        with pytest.raises(ConfigError, match="L_over_a_step"):
            schema._table1_rows({**at, "wa_values": [1.0, 2.0]})

    def test_tiny_step_rejected_at_parse(self):
        text = json.dumps({"config": {"L_over_a_step": 1e-9}})
        with pytest.raises(ConfigError, match="L_over_a_step = 1e-09 gives 1e\\+09 rows x 7"):
            parse_config(text, scenario="table1")

    def test_rows_bounded_without_wa_values(self):
        text = json.dumps({"config": {"L_over_a_step": 1e-9, "wa_values": []}})
        with pytest.raises(ConfigError, match="L_over_a_step"):
            parse_config(text, scenario="table1")

    def test_infinite_span_rejected(self):
        for span in ((-1e308, 1e308), (0.0, 1e308)):
            config = self.config(L_over_a_min=span[0], L_over_a_max=span[1], L_over_a_step=1e-300)
            with pytest.raises(ConfigError, match="gives inf rows"):
                schema._table1_rows(config)

    def test_runner_checks_the_bound(self, monkeypatch):
        spec = parse_config("{}", scenario="table1")
        monkeypatch.setattr(schema, "_TABLE1_MAX_CELLS", 100)
        with pytest.raises(ConfigError, match="gives 21 rows x 7 wa_values"):
            run_scenario(spec)

    def test_cli_exit_code(self, tmp_path, capsys):
        config = tmp_path / "fine.json"
        config.write_text(json.dumps({"config": {"L_over_a_step": 1e-9}}))
        assert main(["run", "table1", "--config", str(config),
                     "--out", str(tmp_path / "t")]) == 2
        assert "L_over_a_step" in capsys.readouterr().err
        assert not list(tmp_path.glob("t*"))

    def test_no_wa_values_gives_header_only_table(self, tmp_path, capsys):
        config = tmp_path / "empty.json"
        config.write_text(json.dumps({"config": {"wa_values": []}}))
        assert main(["run", "table1", "--config", str(config), "--out", str(tmp_path / "t"),
                     "--no-timestamp"]) == 0
        lines = (tmp_path / "t_table1.csv").read_text().splitlines()
        assert [line for line in lines if not line.startswith("#")] == ["wa,L_over_a,kmax_a"]


_MALFORMED = [
    # (scenario, config file, the key or refusal named on stderr)
    ("free-packet", {"config": {"n_x": [1, 2]}}, "n_x"),
    ("free-packet", {"config": {"n_x": 2.7}}, "n_x"),
    ("nr-phase", {"config": {"alpha_steps": 0}}, "alpha_steps"),
    ("relativistic-times", {"config": {"upsilon_values": [-1]}}, "upsilon_values"),
    ("relativistic-times", {"config": {"wL": 1e308}}, "wL"),
    ("table1", {"config": {"L_over_a_min": "a", "L_over_a_max": "b"}}, "L_over_a_min"),
    ("table1", {"config": {"L_over_a_step": 1e-9}}, "L_over_a_step"),
    ("relativistic-times", {"sweep": {"parameter": "n_sq", "min": "a", "max": 2, "steps": 5}},
     "min"),
    ("relativistic-times", {"sweep": {"parameter": "n_sq", "min": 1, "max": 2, "steps": 2.7}},
     "steps"),
    # the alpha_* and n_* keys already set the axis a sweep would set
    ("nr-phase", {"sweep": {"parameter": "alpha", "min": 1, "max": 2, "steps": 5}},
     "does not accept a sweep"),
    ("symmetric-times", {"sweep": {"parameter": "n", "min": 0.1, "max": 0.9, "steps": 5}},
     "does not accept a sweep"),
    ("free-packet", {"config": {"t_steps": "9"}}, "t_steps"),
    ("hartman", {"config": {"upsilon": -1}}, "upsilon"),
    ("multipeak", {"config": {"k0_over_w": "2"}}, "k0_over_w"),
    ("nr-phase", {"config": {"n_values": 5}}, "n_values"),
    ("free-packet", {"config": {"n_x": 5_000_000}}, "n_x"),   # 9 x 5e6 points
]


class TestConfigSchema:
    """Every key is checked against one schema table and stored as its type.

    The work-bound tests assert on the computed estimate; no oversized
    config is run.
    """

    @pytest.mark.parametrize("scenario, text, key", _MALFORMED,
                             ids=[f"{s}-{k}" for s, _, k in _MALFORMED])
    def test_malformed_config_exits_2(self, tmp_path, capsys, scenario, text, key):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(text))
        assert main(["run", scenario, "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("name", lab.SCENARIO_NAMES)
    def test_defaults_pass_the_schema(self, name):
        config = parse_config("{}", scenario=name).config
        defaults = lab.scenario_defaults(name)
        assert config == defaults
        for key, value in config.items():
            assert type(value) is type(defaults[key])
            if isinstance(value, list):
                assert all(type(v) is float for v in value)

    def test_integral_float_count_is_the_count(self, tmp_path):
        outputs = []
        for n_x in (2001, 2001.0):
            spec = parse_config(json.dumps({"config": {"n_x": n_x}}), scenario="free-packet")
            assert type(spec.config["n_x"]) is int
            (path,) = emit_tables(run_scenario(spec), str(tmp_path / f"fp{len(outputs)}"))
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_numbers_are_stored_as_floats(self):
        spec = parse_config('{"config": {"wL": 12, "upsilon_values": [0, 5]}}',
                            scenario="relativistic-times")
        assert type(spec.config["wL"]) is float
        assert [type(v) for v in spec.config["upsilon_values"]] == [float, float]

    @pytest.mark.parametrize("name", lab.SCENARIO_NAMES)
    def test_work_limit_is_100_times_the_default_work(self, name):
        work = schema._work(name, lab.scenario_defaults(name))
        assert 0 < 100 * work <= schema._MAX_POINTS

    def test_table1_limit_is_100_times_the_default_grid(self):
        config = lab.scenario_defaults("table1")
        assert 100 * schema._table1_rows(config) * len(config["wa_values"]) \
            <= schema._TABLE1_MAX_CELLS

    def test_sweep_steps_replace_the_steps_key(self):
        sweep = lab.Sweep("n_sq", 0.1, 0.9, 7)
        config = lab.scenario_defaults("relativistic-times")
        assert schema._work("relativistic-times", config) == 5 * 101 * 160
        assert schema._work("relativistic-times", config, sweep) == 5 * 7 * 160
        # an empty list still builds the steps grid
        assert schema._work("nr-phase", {**lab.scenario_defaults("nr-phase"), "n_values": []}) \
            == 120 * 6

    def test_relativistic_work_weight_is_the_quadrature_size(self):
        # the schema holds the literal so that it imports no numpy
        work = schema._SCHEMA["relativistic-times"].work
        assert work == ("upsilon_values", "n_sq_steps", observables._IDENTITY_N_QUAD)

    def test_every_scenario_has_a_runner(self):
        assert sorted(lab._RUNNERS) == list(SCENARIO_NAMES)

    def test_oversized_sweep_refused(self):
        text = json.dumps({"sweep": {"parameter": "n_sq", "min": 0.1, "max": 0.9, "steps": 20_000}})
        with pytest.raises(ConfigError, match="upsilon_values x n_sq_steps x 160 gives 1.6e\\+07 points"):
            parse_config(text, scenario="relativistic-times")

    def test_wl_bound(self):
        parse_config(json.dumps({"config": {"wL": schema._WL_MAX}}), scenario="relativistic-times")
        # 400 is where sinh^2(rho_n wL) overflowed before the bound; at 1e3
        # the continuity amplitudes overflow
        for wL in (400.0, 10.0 * schema._WL_MAX, 1e4, 0.0, math.inf):
            for name in ("relativistic-times", "hartman", "symmetric-times"):
                with pytest.raises(ConfigError, match="wL"):
                    parse_config(json.dumps({"config": {"wL": wL}}), scenario=name)

    def test_upsilon_bound(self, tmp_path, capsys):
        # from 1e15 rounding loses the zone, 1e18 ran unchecked and 1e150 overflowed
        for upsilon in (1e15, 1e18, 1e150):
            for name, key, value in (("relativistic-times", "upsilon_values", [upsilon]),
                                     ("hartman", "upsilon", upsilon)):
                config = tmp_path / "big.json"
                config.write_text(json.dumps({"config": {key: value}}))
                assert main(["run", name, "--config", str(config),
                             "--out", str(tmp_path / "out")]) == 2
                assert key in capsys.readouterr().err
                assert not list(tmp_path.glob("out*"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_upsilon_runs_clean(self):
        spec = parse_config(json.dumps({"config": {"upsilon_values": [schema._UPSILON_MAX]}}),
                            "relativistic-times")
        (table,) = run_scenario(spec)
        column = table.columns.index("identity_residual")
        assert table.rows
        assert max(abs(row[column]) for row in table.rows) < 1e-10
        spec = parse_config(json.dumps({"config": {"upsilon": schema._UPSILON_MAX}}), "hartman")
        assert run_scenario(spec)[0].provenance["relativistic_curve_finite"]

    def test_identity_residual_at_tiny_upsilon(self):
        # rho^2 = m^2 - (E - V0)^2 cancels when every E is close to m: it left
        # a residual of 4.0e-7 at upsilon = 1e-9 and 6.3e-10 at 1e-6
        for upsilon in (1e-9, 1e-6, 1e-3):
            spec = parse_config(json.dumps({"config": {"upsilon_values": [upsilon]}}),
                                "relativistic-times")
            (table,) = run_scenario(spec)
            column = table.columns.index("identity_residual")
            assert max(abs(row[column]) for row in table.rows) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_opaque_table1_cell_exits_2(self, tmp_path, capsys):
        for wa in (350, 1000):
            config = tmp_path / "opaque.json"
            config.write_text(json.dumps({"config": {"wa_values": [wa], "L_over_a_min": 1,
                                                     "L_over_a_max": 1}}))
            assert main(["run", "table1", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 2
            assert f"w a = {wa}, L/a = 1" in capsys.readouterr().err
            assert not list(tmp_path.glob("out*"))

    def test_edge_margin_past_half_the_zone_exits_2(self, tmp_path, capsys):
        # the upsilon = 0 zone is 0 < n^2 < 1: a margin of 0.7 ran its rows
        # backward from 0.7 to 0.3, which are 0.3 from the edges
        config = tmp_path / "margin.json"
        config.write_text(json.dumps({"config": {"upsilon_values": [0.0, 1.0],
                                                 "edge_margin": 0.7, "n_sq_steps": 5}}))
        assert main(["run", "relativistic-times", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "edge_margin = 0.7" in err and "upsilon = 0" in err
        assert not list(tmp_path.glob("out*"))

    def test_edge_margin_limit_is_half_the_zone_width(self):
        def rows(margin, upsilon, sweep=None):
            text = json.dumps({"config": {"upsilon_values": [upsilon], "edge_margin": margin,
                                          "n_sq_steps": 3}, "sweep": sweep})
            return run_scenario(parse_config(text, "relativistic-times"))[0].rows

        for upsilon, half in ((0.0, 0.5), (1.0, 0.75), (5.0, 1.0)):
            if half < 1.0:   # edge_margin < 1 by the schema
                with pytest.raises(ConfigError, match=f"upsilon = {upsilon:g}"):
                    rows(half, upsilon)
            ns = [row[1] for row in rows(0.999 * half, upsilon)]
            assert ns == sorted(ns) and len(ns) == 3
        # a sweep replaces the margin's grid, so the margin is not read
        assert rows(0.7, 0.0, {"parameter": "n_sq", "min": 0.1, "max": 0.9, "steps": 3})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_widest_barrier_runs_clean(self):
        # rho_n <= 1, so rho_n wL <= wL: at the bound no sinh, cosh or exp overflows
        for name in ("relativistic-times", "hartman", "symmetric-times"):
            text = json.dumps({"config": {"wL": schema._WL_MAX}})
            (table, *_) = run_scenario(parse_config(text, name))
            assert table.rows
        spec = parse_config(json.dumps({"config": {"wL": schema._WL_MAX,
                                                   "upsilon_values": [0.01, 1.0, 5.0]}}),
                            "relativistic-times")
        (table,) = run_scenario(spec)
        cols = {c: table.columns.index(c) for c in ("T_sq", "identity_residual")}
        for row in table.rows:
            assert 0.0 <= row[cols["T_sq"]] <= 1.0
            assert abs(row[cols["identity_residual"]]) < 1e-8

    def test_provenance_echoes_each_key_once(self, tmp_path):
        for name in lab.SCENARIO_NAMES:
            defaults = lab.scenario_defaults(name)
            paths = emit_tables(run_scenario(parse_config("{}", scenario=name)),
                                str(tmp_path / name))
            for path in paths:
                lines = [line for line in path.read_text().splitlines()
                         if line.startswith("# config.")]
                keys = [line.split(" = ")[0][len("# config."):] for line in lines]
                assert keys == sorted(defaults)
                assert lines == [f"# config.{key} = {lab._format_value(defaults[key])}"
                                 for key in keys]
        # the lines the runners used to add a second time
        for file, line in (("relativistic-times_relativistic_times.csv", "# config.wL = 6.28318531"),
                           ("confront_confront_summary.csv", "# config.n_terms = 3"),
                           ("table1_table1.csv", "# config.k0a = 1"),
                           ("hartman_hartman_saturation.csv", "# config.saturation_tol = 1e-06")):
            assert line in (tmp_path / file).read_text().splitlines()


class TestRunScenarios:
    def test_table1_cells(self):
        spec = parse_config(json.dumps({
            "config": {"wa_values": [1.5, 4.0], "L_over_a_min": 0.2,
                       "L_over_a_max": 0.2, "L_over_a_step": 0.05},
        }), scenario="table1")
        (table,) = run_scenario(spec)
        cells = {(row[0], row[1]): row[2] for row in table.rows}
        assert cells[(4.0, 0.2)] == pytest.approx(1.6571, abs=5e-4)
        assert cells[(1.5, 0.2)] == pytest.approx(1.0794, abs=5e-4)

    def test_table1_distorted_cell_is_star(self):
        spec = parse_config(json.dumps({
            "config": {"wa_values": [1.5], "L_over_a_min": 0.8,
                       "L_over_a_max": 0.8, "L_over_a_step": 0.05},
        }), scenario="table1")
        (table,) = run_scenario(spec)
        assert table.rows[0][2] == "*"

    def test_threads_do_not_change_results(self):
        spec = parse_config(json.dumps({
            "config": {"wa_values": [2.0, 6.0], "L_over_a_min": 0.0,
                       "L_over_a_max": 0.3, "L_over_a_step": 0.1},
        }), scenario="table1")
        (serial,) = run_scenario(spec, threads=1)
        (parallel,) = run_scenario(spec, threads=4)
        assert serial.rows == parallel.rows

    def test_symmetric_identity_column_zero(self):
        spec = parse_config('{"config": {"n_steps": 11}}', scenario="symmetric-times")
        (table,) = run_scenario(spec)
        cols = {name: i for i, name in enumerate(table.columns)}
        for row in table.rows:
            assert abs(row[cols["identity_plus"]]) < 1e-12
            assert abs(row[cols["identity_minus"]]) < 1e-12

    def test_relativistic_curves_finite(self):
        spec = parse_config(json.dumps({
            "config": {"upsilon_values": [0.0, 5.0], "n_sq_steps": 21},
        }), scenario="relativistic-times")
        (table,) = run_scenario(spec)
        cols = {name: i for i, name in enumerate(table.columns)}
        assert len(table.rows) > 0
        for row in table.rows:
            assert math.isfinite(row[cols["t_phase"]])
            assert 0.0 < row[cols["T_sq"]] <= 1.0
            if row[cols["upsilon"]] > 0.0:
                assert abs(row[cols["identity_residual"]]) < 1e-8

    def test_relativistic_sweep_across_the_zone(self):
        # the sweep runs through the Klein zone, the tunneling zone and the
        # above-barrier zone of each upsilon; upsilon = 20 keeps no point
        upsilons, wL = [0.0, 1.0, 5.0, 10.0, 20.0], 2.0 * math.pi
        spec = parse_config(json.dumps({
            "config": {"upsilon_values": upsilons, "wL": wL},
            "sweep": {"parameter": "n_sq", "min": -0.5, "max": 6.5, "steps": 29},
        }), scenario="relativistic-times")
        (table,) = run_scenario(spec)
        expected = []
        for upsilon in upsilons:
            for n_sq in np.linspace(-0.5, 6.5, 29):
                n_sq = float(n_sq)
                if not (n_sq > 0.0 and abs(n_sq - 0.5 * upsilon) < 1.0):
                    continue
                T_mag, phi = relativistic_transmission(n_sq, upsilon, wL)
                row = [upsilon, n_sq, T_mag * T_mag, phi,
                       rel_phase_time(n_sq, upsilon, wL), rel_dwell(n_sq, upsilon, wL)]
                if upsilon > 0.0:
                    row += [rel_rescaled_dwell(n_sq, upsilon, wL),
                            rel_self_interference(n_sq, upsilon, wL),
                            rel_variational_residual(n_sq, upsilon, wL)]
                else:
                    row += [math.nan] * 3
                expected.append(tuple(row))
        assert {row[0] for row in table.rows} == {0.0, 1.0, 5.0, 10.0}
        # repr: exact, and nan equals nan
        assert [tuple(map(repr, row)) for row in table.rows] == \
            [tuple(map(repr, row)) for row in expected]
        for row in table.rows:
            assert all(math.isnan(v) for v in row[6:]) == (row[0] == 0.0)
            assert all(math.isfinite(v) for v in row[:6])

    def test_provenance_echoes_config(self):
        spec = parse_config('{"config": {"n_steps": 5}}', scenario="symmetric-times")
        (table,) = run_scenario(spec)
        assert table.provenance["scenario"] == "symmetric-times"
        assert table.provenance["config.n_steps"] == 5
        assert "version" in table.provenance

    @pytest.mark.parametrize("scenario, sweep, replaced", [
        ("relativistic-times", {"parameter": "n_sq", "min": 0.5, "max": 5.5, "steps": 51},
         ["edge_margin", "n_sq_steps"]),
        ("free-packet", {"parameter": "t", "min": 0.0, "max": 2.0, "steps": 5},
         ["t_max", "t_steps"])], ids=["relativistic-times", "free-packet"])
    def test_sweep_provenance_omits_the_keys_it_replaces(self, scenario, sweep, replaced,
                                                          tmp_path):
        spec = parse_config(json.dumps({"sweep": sweep}), scenario=scenario)
        (path,) = emit_tables(run_scenario(spec), str(tmp_path / "out"))
        keys = [line.split(" = ")[0][len("# config."):]
                for line in path.read_text().splitlines() if line.startswith("# config.")]
        assert keys == sorted(set(lab.scenario_defaults(scenario)) - set(replaced))
        assert (f"# sweep = {sweep['parameter']}:{float(sweep['min'])}:{float(sweep['max'])}"
                f":{sweep['steps']}") in path.read_text().splitlines()

    def test_free_packet_sweep(self):
        spec = parse_config(json.dumps({
            "sweep": {"parameter": "t", "min": 0.0, "max": 2.0, "steps": 5},
            "config": {"n_x": 501},
        }), scenario="free-packet")
        (table,) = run_scenario(spec)
        assert len(table.rows) == 5
        for row in table.rows:
            assert row[3] == pytest.approx(1.0, abs=1e-6)

    def test_free_packet_times_use_the_correct_square(self):
        # C pow rounds 2.759 ** 2 to 7.612080999999999 on glibc 2.36; a * a is 7.612081
        square = float(Fraction(2.759) ** 2)
        spec = parse_config('{"config": {"a": 2.759, "n_x": 201}}', scenario="free-packet")
        (table,) = run_scenario(spec)
        t_max, m, steps = spec.config["t_max"], spec.config["m"], spec.config["t_steps"]
        assert [row[0] for row in table.rows] == list(np.linspace(0.0, t_max * m * square, steps))
        spec = parse_config(json.dumps({
            "sweep": {"parameter": "t", "min": 0.0, "max": 3.0, "steps": 4},
            "config": {"a": 2.759, "n_x": 201},
        }), scenario="free-packet")
        (table,) = run_scenario(spec)
        assert [row[0] for row in table.rows] == list(np.linspace(0.0, 3.0, 4) * m * square)


_SERIES_SIZES = [{}, {"n_terms": 1, "n_snapshots": 1}, {"n_terms": 1, "n_snapshots": 40},
                 {"n_terms": 5, "n_snapshots": 1}, {"n_terms": 5, "n_snapshots": 40}]


class TestBatchedRunners:
    """The grid runners emit the rows of the per-n, per-quantity and per-snapshot loops."""

    @pytest.mark.parametrize("name, overrides, reference", [
        ("hartman", {}, reference_hartman_rows),
        ("hartman", {"upsilon": 6.0, "wL": 1.8 * math.pi}, reference_hartman_rows),
        ("symmetric-times", {}, reference_symmetric_times_rows),
        ("symmetric-times", {"wL": 3.6 * math.pi}, reference_symmetric_times_rows),
        ("relativistic-times", {}, reference_relativistic_times_rows),
        ("relativistic-times", {"wL": 1.8 * math.pi, "upsilon_values": [0.0, 1.5, 3.0, 6.0, 12.0]},
         reference_relativistic_times_rows),
        *[("multipeak", sizes, reference_multipeak_rows) for sizes in _SERIES_SIZES],
        *[("confront", sizes, reference_confront_rows) for sizes in _SERIES_SIZES],
    ], ids=["hartman", "hartman-held-out", "symmetric-times", "symmetric-times-held-out",
            "relativistic-times", "relativistic-times-held-out",
            *[f"{name}-{size}" for name in ("multipeak", "confront")
              for size in ("defaults", "1x1", "1x40", "5x1", "5x40")]])
    def test_rows_equal_the_loops(self, name, overrides, reference):
        spec = parse_config(json.dumps({"config": overrides}), scenario=name)
        rows = [row for table in run_scenario(spec) for row in table.rows]
        expected = reference(spec.config)
        assert len(rows) == len(expected)
        # repr: exact, and nan equals nan
        assert [tuple(map(repr, row)) for row in rows] == \
            [tuple(map(repr, row)) for row in expected]

    @pytest.mark.parametrize("name, calls", [("multipeak", 4), ("confront", 5)])
    def test_one_series_call_per_component(self, name, calls, monkeypatch):
        # one call per snapshot and component made 24 and 30 at the defaults
        tags = []

        def counted(tag, *args, _original=lab.multipeak_partial_sum_field):
            tags.append(tag)
            return _original(tag, *args)

        monkeypatch.setattr(lab, "multipeak_partial_sum_field", counted)
        run_scenario(parse_config("{}", scenario=name))
        assert len(tags) == len(set(tags)) == calls


@pytest.fixture
def solution_calls(monkeypatch):
    """Counts the scaled calls of observables and stationary, the continuity solutions
    (stationary._kg_solution, behind kg_scatter_coeffs) and the evanescent_rate calls."""
    calls = {"scaled": 0, "_kg_solution": 0, "evanescent_rate": 0}
    for module, name in ((observables, "scaled"), (stationary, "scaled"),
                         (observables, "_kg_solution"), (observables, "evanescent_rate"),
                         (stationary, "evanescent_rate")):
        def counted(*args, _original=getattr(module, name, None), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        # stationary imports no scaled, observables no evanescent_rate
        monkeypatch.setattr(module, name, counted, raising=False)
    return calls


class TestOneRelativisticSolution:
    """relativistic-times builds each part of one zone solution once per upsilon."""

    def test_default_run_builds_each_part_once(self, solution_calls):
        (table,) = run_scenario(parse_config("{}", scenario="relativistic-times"))
        assert len(table.rows) == 5 * 101
        # per upsilon one scaled call, in the zone solution that T_sq and phase also
        # read; one continuity solution for each of the four upsilon > 0, whose rho the
        # identity residual reads again (it formed rho a second time: 8 calls)
        assert solution_calls == {"scaled": 5, "_kg_solution": 4, "evanescent_rate": 4}

    def test_views_share_the_zone_parts(self, solution_calls):
        zone = observables._RelZone(np.linspace(1.6, 3.4, 7), 5.0, 2.0 * math.pi)
        for _ in range(2):
            zone.phase_time, zone.dwell(continuity=True), zone.self_interference()
            zone.residual()
        assert solution_calls == {"scaled": 1, "_kg_solution": 1, "evanescent_rate": 1}


class TestEmission:
    def _tables(self):
        spec = parse_config('{"config": {"n_steps": 7}}', scenario="symmetric-times")
        return run_scenario(spec)

    def test_byte_identical_reruns(self, tmp_path):
        tables = self._tables()
        p1 = emit_tables(tables, str(tmp_path / "a"), timestamp=None)
        p2 = emit_tables(self._tables(), str(tmp_path / "b"), timestamp=None)
        assert p1[0].read_bytes() == p2[0].read_bytes()

    def test_timestamp_line_only_difference(self, tmp_path):
        tables = self._tables()
        emit_tables(tables, str(tmp_path / "with"), timestamp="2026-01-01T00:00:00Z")
        emit_tables(tables, str(tmp_path / "without"), timestamp=None)
        with_lines = (tmp_path / "with_symmetric_times.csv").read_text().splitlines()
        without_lines = (tmp_path / "without_symmetric_times.csv").read_text().splitlines()
        assert [l for l in with_lines if not l.startswith("# generated_at")] == without_lines

    def test_provenance_header_format(self, tmp_path):
        emit_tables(self._tables(), str(tmp_path / "out"), timestamp=None)
        text = (tmp_path / "out_symmetric_times.csv").read_text()
        header = [l for l in text.splitlines() if l.startswith("#")]
        assert any(l.startswith("# scenario = ") for l in header)
        assert any(l.startswith("# config.wL = ") for l in header)
        assert any(l.startswith("# version = ") for l in header)

    def test_json_mirror(self, tmp_path):
        paths = emit_tables(self._tables(), str(tmp_path / "out"), json_mirror=True,
                            timestamp=None)
        jpath = [p for p in paths if p.suffix == ".json"][0]
        payload = json.loads(jpath.read_text())
        assert payload["columns"][0] == "n"
        assert len(payload["rows"]) == 7


_FLOATS = st.floats() | st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1e308, -1e308])
_INTS = st.integers(-10 ** 20, 10 ** 20) | st.sampled_from([10 ** 9 + 7, -(10 ** 12)])
_TEXT = st.text(st.sampled_from('",\\%*-\n\té€😀') | st.characters(codec="utf-8"), max_size=6)
_CELLS = {
    "float": _FLOATS,
    "str": _TEXT,
    "int": _INTS,
    "numpy": _FLOATS.map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    "bool": st.booleans(),
    "mixed": _FLOATS | st.just("*") | _INTS,   # a column like table1's kmax_a
}
_PROVENANCE = st.dictionaries(
    _TEXT | st.just("generated_at"),
    _TEXT | _FLOATS | _INTS | st.booleans() | st.lists(_FLOATS | _INTS, max_size=3),
    max_size=4)


@st.composite
def _emitted_tables(draw):
    tables = []
    for index in range(draw(st.integers(1, 3))):
        kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), max_size=5))
        rows = draw(st.lists(st.tuples(*(_CELLS[kind] for kind in kinds)), max_size=6))
        rows = [list(row) if draw(st.booleans()) else row for row in rows]
        columns = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds)))
        tables.append(ResultTable(f"t{index}", columns, rows, draw(_PROVENANCE)))
    return tables


def _assert_same_files(tables, directory, **options):
    got = emit_tables(tables, f"{directory}/got/out", **options)
    want = reference_emit(tables, f"{directory}/want/out", **options)
    assert [path.name for path in got] == [path.name for path in want]
    for got_path, want_path in zip(got, want):
        assert got_path.read_bytes() == want_path.read_bytes(), got_path.name


class TestEmissionMatchesReference:
    """emit_tables writes byte for byte what the cell-by-cell reference writes."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(tables=_emitted_tables(), json_mirror=st.booleans(),
           timestamp=st.none() | st.just("2026-01-01T00:00:00+00:00") | _TEXT)
    def test_generated_tables(self, tables, json_mirror, timestamp):
        with tempfile.TemporaryDirectory() as directory:
            _assert_same_files(tables, directory, json_mirror=json_mirror, timestamp=timestamp)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_scenario_defaults(self, name, tmp_path):
        tables = run_scenario(parse_config("{}", scenario=name))
        _assert_same_files(tables, tmp_path, json_mirror=True, timestamp=None)

    def test_empty_and_zero_width_tables(self, tmp_path):
        tables = [ResultTable("empty", ["a", "b"], []), ResultTable("bare", [], [(), []]),
                  ResultTable("none", [], [])]
        _assert_same_files(tables, tmp_path, json_mirror=True, timestamp="now")

    @pytest.mark.parametrize("rows, width", [([(1.0, 2.0), (1.0,), ()], 1),
                                             ([[1.0, "x"], ("y", 2.0, 3.0)], 3)])
    def test_row_width_must_match_the_columns(self, rows, width, tmp_path):
        with pytest.raises(ScenarioError, match=f"row of width {width} does not match 2 columns"):
            emit_tables([ResultTable("bad", ["a", "b"], rows)], str(tmp_path / "out"),
                        json_mirror=True)
        assert list(tmp_path.iterdir()) == []   # checked before the table's files are opened


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "confront", "hartman"):
            assert name in out

    def test_run_ok(self, tmp_path, capsys):
        code = main(["run", "symmetric-times", "--out", str(tmp_path / "sym"),
                     "--no-timestamp"])
        assert code == 0
        assert (tmp_path / "sym_symmetric_times.csv").exists()

    def test_unknown_scenario_exit_code(self, capsys):
        assert main(["run", "frobnicate"]) == 3

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"config": {"nope": 1}}')
        assert main(["run", "table1", "--config", str(bad)]) == 2

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "table1", "--config", str(bad)]) == 2

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(["run", "symmetric-times", "--out", str(blocker / "sub" / "x"),
                     "--no-timestamp"])
        assert code == 4

    def test_missing_config_file(self, capsys):
        assert main(["run", "table1", "--config", "/nonexistent/path.json"]) == 4

    # measured before float errors were raised: a ZeroDivisionError or OverflowError
    # traceback (exit 1), nan norms or all-zero densities (exit 0)
    @pytest.mark.parametrize("scenario, overrides", [
        ("above-barrier-naive", {"wa": 1e-300}), ("multipeak", {"wa": 1e-300}),
        ("multipeak", {"k0_over_w": 1e300}), ("free-packet", {"t_max": 1e300}),
        ("multipeak", {"L_over_a": 1e300})],
        ids=["naive-tiny-wa", "multipeak-tiny-wa", "multipeak-huge-k0", "free-packet-huge-t",
             "multipeak-huge-L"])
    def test_arithmetic_failure_exits_2(self, scenario, overrides, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"config": overrides}))
        code = main(["run", scenario, "--config", str(config), "--out", str(tmp_path / "out"),
                     "--no-timestamp"])
        assert code == 2
        assert f"invalid configuration for scenario {scenario!r}" in capsys.readouterr().err
        assert list(tmp_path.glob("out*")) == []

    @staticmethod
    def _run_process(tmp_path, scenario, config):
        src = str(Path(tunnellab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "tunnellab.cli", "run", scenario, "--config", str(config),
             "--out", str(tmp_path / "out"), "--no-timestamp"],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)

    def test_arithmetic_failure_prints_no_traceback(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"config": {"wa": 1e-300}}')
        done = self._run_process(tmp_path, "multipeak", config)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert "invalid configuration for scenario 'multipeak'" in done.stderr
        assert list(tmp_path.glob("out*")) == []

    # each step runs in a fresh interpreter; a scenario run after it loads numpy
    @pytest.mark.parametrize("step", [
        "for name in cli.SCENARIO_NAMES:\n    cli.parse_config('{}', name)",
        "assert cli.main(['list']) == 0",
        "try:\n    cli.main(['--help'])\nexcept SystemExit as exc:\n    assert exc.code == 0",
        "assert cli.main(['run', 'table1', '--config', 'bad.json']) == 2"],
        ids=["parse-every-default", "list", "help", "refused-config"])
    def test_numpy_loads_only_when_a_scenario_runs(self, step, tmp_path):
        (tmp_path / "bad.json").write_text('{"config": {"wa_values": [0]}}')
        script = "\n".join([
            "import sys", "from tunnellab import cli", step,
            "assert 'numpy' not in sys.modules, 'numpy was loaded'",
            "assert cli.main(['run', 'free-packet', '--out', 'fp', '--no-timestamp']) == 0",
            "assert 'numpy' in sys.modules"])
        src = str(Path(tunnellab.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "fp_free_packet.csv").read_text().startswith("# scenario = free-packet")

    def test_successive_calls_start_fresh(self, tmp_path, capsys):
        # the parser is built once per process; each call reads only its own arguments
        assert cli._build_parser() is cli._build_parser()
        for prefix, flags in (("a", ["--json"]), ("b", [])):
            assert main(["run", "symmetric-times", "--out", str(tmp_path / prefix),
                         "--no-timestamp", *flags]) == 0
        assert (tmp_path / "a_symmetric_times.json").exists()
        assert not (tmp_path / "b_symmetric_times.json").exists()
        with pytest.raises(SystemExit) as refused:   # argparse refuses the deleted option
            main(["run", "symmetric-times", "--out", str(tmp_path / "c"), "--threads", "1"])
        assert refused.value.code == 2
        assert not (tmp_path / "c_symmetric_times.csv").exists()

    # a UnicodeDecodeError and a RecursionError traceback (exit 1) before they were mapped
    @pytest.mark.parametrize("content, message", [
        (b'{"config": {"k0": 2.5}}\xff', "is not UTF-8 text"),
        (b'{"config": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", "nested too deeply")],
        ids=["non-utf8", "nested"])
    def test_malformed_config_file_exits_2_without_traceback(self, content, message, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        done = self._run_process(tmp_path, "free-packet", config)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("tunnellab: config error:")
        assert message in done.stderr
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("args, code, prefix", [
        (["free-packet", "--config", "."], 4, "I/O error"),
        (["frobnicate"], 3, "scenario error"),
        (["free-packet", "--config", "bad.json"], 2, "config error"),
        (["free-packet", "--out", "blocker/x"], 4, "I/O error")],
        ids=["config-is-directory", "unknown-scenario", "bad-key", "out-parent-is-file"])
    def test_exit_map(self, args, code, prefix, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("bad.json").write_text('{"config": {"nope": 1}}')
        Path("blocker").write_text("a file, not a directory")
        assert main(["run", *args, "--no-timestamp"]) == code
        assert capsys.readouterr().err.startswith(f"tunnellab: {prefix}: ")
