import json
import math

import numpy as np
import pytest

from tunnellab import lab
from tunnellab.cli import main
from tunnellab.lab import (
    ConfigError,
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
        with pytest.raises(ConfigError, match="unknown top-level"):
            parse_config('{"bogus": 1}', scenario="table1")

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
            parse_config('{"sweep": {"parameter": "alpha", "min": 2, "max": 1, "steps": 5}}',
                         scenario="nr-phase")

    def test_sweep_steps_minimum(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config('{"sweep": {"parameter": "alpha", "min": 1, "max": 2, "steps": 1}}',
                         scenario="nr-phase")

    def test_sweep_parameter_checked(self):
        with pytest.raises(ConfigError, match="sweeps over"):
            parse_config('{"sweep": {"parameter": "beta", "min": 1, "max": 2, "steps": 5}}',
                         scenario="nr-phase")
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
        assert lab._table1_rows(self.config()) == 21

    def test_limit_is_inclusive(self):
        limit = lab._TABLE1_MAX_CELLS
        at = self.config(wa_values=[1.0], L_over_a_min=0.0, L_over_a_max=limit - 1.0,
                         L_over_a_step=1.0)
        assert lab._table1_rows(at) == limit
        with pytest.raises(ConfigError, match="L_over_a_step"):
            lab._table1_rows({**at, "L_over_a_max": float(limit)})
        with pytest.raises(ConfigError, match="L_over_a_step"):
            lab._table1_rows({**at, "wa_values": [1.0, 2.0]})

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
                lab._table1_rows(config)

    def test_runner_checks_the_bound(self, monkeypatch):
        spec = parse_config("{}", scenario="table1")
        monkeypatch.setattr(lab, "_TABLE1_MAX_CELLS", 100)
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
        assert [row[:2] for row in table.rows] == [row[:2] for row in expected]
        assert {row[0] for row in table.rows} == {0.0, 1.0, 5.0, 10.0}
        np.testing.assert_allclose(np.array(table.rows), np.array(expected),
                                   rtol=0.0, atol=1e-15, equal_nan=True)
        for row in table.rows:
            assert all(math.isnan(v) for v in row[6:]) == (row[0] == 0.0)
            assert all(math.isfinite(v) for v in row[:6])

    def test_provenance_echoes_config(self):
        spec = parse_config('{"config": {"n_steps": 5}}', scenario="symmetric-times")
        (table,) = run_scenario(spec)
        assert table.provenance["scenario"] == "symmetric-times"
        assert table.provenance["config.n_steps"] == 5
        assert "version" in table.provenance

    def test_free_packet_sweep(self):
        spec = parse_config(json.dumps({
            "sweep": {"parameter": "t", "min": 0.0, "max": 2.0, "steps": 5},
            "config": {"n_x": 501},
        }), scenario="free-packet")
        (table,) = run_scenario(spec)
        assert len(table.rows) == 5
        for row in table.rows:
            assert row[3] == pytest.approx(1.0, abs=1e-6)


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
