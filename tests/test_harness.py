import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from nematic2d import (Grid2D, ScalarField2D, SimConfig, export_heatmap,
                       make_scenario, parse_config, read_csv, read_snapshot,
                       replay_csv, simulate, write_snapshot)
from nematic2d.cli import main as cli_main
from nematic2d.io import CSV_COLUMNS


class TestConfigFile:
    def test_round_trip_of_all_keys(self, tmp_path):
        text = """
# full configuration
nx = 32
ny = 32
lx = 1.0
ly = 1.0
dt = 0.001
cfl = 0.8
t_end = 0.01
rho_bar = 1.5
e1 = 0
e2 = 0
e3 = 1
serrin_r = 4
serrin_s = 4
cadence = 2
tol_unit = 1e-6
cg_tol = 1e-10
cg_max_iter = 400
scenario = vacuum-bubble
scenario.vortex_amp = 0.25
seed = 7
out_dir = runs/demo
"""
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = parse_config(path)
        assert cfg.nx == 32 and cfg.rho_bar == 1.5 and cfg.cadence == 2
        assert cfg.scenario == "vacuum-bubble"
        assert cfg.scenario_params == {"vortex_amp": 0.25}
        assert cfg.out_dir == "runs/demo"

    def test_unknown_key_is_an_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nx = 32\nviscosity = 2.0\n")
        with pytest.raises(ValueError, match="viscosity"):
            parse_config(path)

    def test_defaults_apply(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text("nx = 32\nny = 32\nt_end = 0.01\n")
        cfg = parse_config(path)
        assert cfg.dt is None and cfg.cfl == 0.9
        assert cfg.e == (0.0, 0.0, 1.0)

    def test_infinite_serrin_r(self, tmp_path):
        path = tmp_path / "inf.cfg"
        path.write_text("serrin_r = inf\nserrin_s = 2\n")
        cfg = parse_config(path)
        assert math.isinf(cfg.serrin_exponents().r)

    def test_rejects_non_unit_far_field(self):
        with pytest.raises(ValueError):
            SimConfig(e=(1.0, 1.0, 1.0))

    def test_rejects_inadmissible_serrin(self):
        with pytest.raises(ValueError):
            SimConfig(serrin_r=2.5, serrin_s=4.0)


class TestCsv:
    def test_schema_and_replay(self, tmp_path):
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=0.02,
                        scenario="vacuum-bubble", out_dir=str(tmp_path / "o"))
        res = simulate(cfg)
        cols = read_csv(res.csv_path)
        assert tuple(cols) == CSV_COLUMNS
        assert len(cols["t"]) == 21
        assert replay_csv(res.csv_path) == []

    def test_seventeen_significant_digits(self, tmp_path):
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=5e-3,
                        scenario="taylor-green", out_dir=str(tmp_path / "o"))
        res = simulate(cfg)
        body = open(res.csv_path).read().splitlines()[1]
        ke_text = body.split(",")[CSV_COLUMNS.index("ke")]
        assert float(ke_text) == res.records[0].ke  # round trip is lossless

    def test_replay_flags_corruption(self, tmp_path):
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=0.01,
                        scenario="taylor-green", out_dir=str(tmp_path / "o"))
        res = simulate(cfg)
        lines = open(res.csv_path).read().splitlines()
        parts = lines[3].split(",")
        parts[CSV_COLUMNS.index("energy_total")] = "1e9"  # inject energy jump
        lines[3] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert any("energy law" in v for v in replay_csv(bad))


class TestSnapshot:
    def test_lossless_round_trip(self, tmp_path):
        g = Grid2D(32, 48, 1.0, 2.0)
        st = make_scenario("vacuum-bubble", {}, g)
        st.t = 0.375
        path = tmp_path / "s.nlc2"
        write_snapshot(path, st)
        back = read_snapshot(path)
        assert back.t == 0.375
        assert back.grid == g
        assert np.array_equal(back.rho.values, st.rho.values)
        assert np.array_equal(back.u.u1.values, st.u.u1.values)
        assert np.array_equal(back.d.d3.values, st.d.d3.values)

    def test_header_layout(self, tmp_path):
        g = Grid2D(8, 8, 1.0, 1.0)
        st = make_scenario("rest", {}, g)
        path = tmp_path / "s.nlc2"
        write_snapshot(path, st)
        raw = path.read_bytes()
        assert raw[:4] == b"NLC2"
        assert len(raw) == 40 + 6 * 8 * 8 * 8

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "junk.nlc2"
        path.write_bytes(b"XXXX" + bytes(100))
        with pytest.raises(ValueError):
            read_snapshot(path)


class TestHeatmap:
    def test_constant_maps_to_midgray(self, tmp_path):
        g = Grid2D(16, 8, 1.0, 1.0)
        path = tmp_path / "c.pgm"
        export_heatmap(ScalarField2D.full(g, 3.0), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n16 8\n255\n")
        assert set(raw[len(b"P5\n16 8\n255\n"):]) == {128}

    def test_ramp_is_monotone_rows(self, tmp_path):
        g = Grid2D(32, 8, 1.0, 1.0)
        f = ScalarField2D.from_function(g, lambda X, Y: np.sin(2 * np.pi * X))
        path = tmp_path / "r.pgm"
        export_heatmap(f, path)
        raw = path.read_bytes()
        header_len = len(b"P5\n32 8\n255\n")
        pixels = np.frombuffer(raw[header_len:], dtype=np.uint8).reshape(8, 32)
        assert pixels.min() == 0 and pixels.max() == 255
        assert np.all(pixels == pixels[0])  # y-independent pattern

    def test_vacuum_bubble_renders_dark_disk(self, tmp_path):
        g = Grid2D(64, 64, 1.0, 1.0)
        st = make_scenario("vacuum-bubble", {}, g)
        path = tmp_path / "v.pgm"
        export_heatmap(st.rho, path)
        raw = path.read_bytes()
        pixels = np.frombuffer(raw[len(b"P5\n64 64\n255\n"):],
                               dtype=np.uint8).reshape(64, 64)
        assert pixels[32, 32] == 0      # vacuum center is black
        assert pixels[0, 0] == 255      # background is white


class TestDeterminismAndRestart:
    def test_identical_configs_give_identical_bytes(self, tmp_path):
        runs = []
        for sub in ("a", "b"):
            cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=0.02, seed=3,
                            scenario="vacuum-bubble",
                            out_dir=str(tmp_path / sub))
            runs.append(simulate(cfg))
        b0 = open(runs[0].csv_path, "rb").read()
        b1 = open(runs[1].csv_path, "rb").read()
        assert b0 == b1

    def test_snapshot_resume_matches_straight_run(self, tmp_path):
        common = dict(nx=32, ny=32, dt=1e-3, scenario="vacuum-bubble")
        full = simulate(SimConfig(t_end=0.04, **common), write_files=False)

        first = simulate(SimConfig(t_end=0.02, **common), write_files=False)
        snap = tmp_path / "mid.nlc2"
        write_snapshot(snap, first.state)
        resumed_state = read_snapshot(snap)
        resumed_state.step = first.state.step
        second = simulate(SimConfig(t_end=0.04, **common),
                          state=resumed_state, monitors=first.monitors,
                          write_files=False)

        stitched = first.records + second.records
        assert len(stitched) == len(full.records)
        for a, b in zip(full.records, stitched):
            for name in ("t", "energy_total", "serrin_accumulated",
                         "phi_value", "rho_drift_q2", "ke", "d3_min"):
                va, vb = getattr(a, name), getattr(b, name)
                assert abs(va - vb) <= 1e-12 * max(1.0, abs(va)), name


class TestRestRun:
    def test_all_records_trivial(self):
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=0.01, scenario="rest")
        res = simulate(cfg, write_files=False)
        assert res.summary["status"] == "completed"
        for rec in res.records:
            assert rec.energy_total == 0.0
            assert rec.dissipation < 1e-20
            assert rec.serrin_accumulated == 0.0
            assert rec.d3_min == 1.0
            assert rec.unit_drift == 0.0
            assert rec.ke == 0.0


class TestFailureOutcomes:
    def test_cfl_breach_is_logged_not_raised(self, tmp_path):
        cfg = SimConfig(nx=32, ny=32, dt=0.05, t_end=1.0,
                        scenario="taylor-green",
                        scenario_params={"amplitude": 2.0},
                        out_dir=str(tmp_path / "o"))
        res = simulate(cfg)
        assert res.summary["status"] == "failed"
        assert res.summary["failure"]["cause"] == "CFLError"
        assert res.summary["failure"]["step"] == 0

    @pytest.mark.parametrize("scenario, params, smallness", [
        ("taylor-green", {"amplitude": 1000.0}, 0.0),  # constant director
        ("small-director", {"ke_target": 1000.0}, math.inf),
    ])
    def test_large_data_gives_a_status_not_an_overflow(self, scenario, params,
                                                       smallness):
        # exp(2 E0) overflows a float for both initial data
        cfg = SimConfig(nx=16, ny=16, dt=1e-3, t_end=5e-3, scenario=scenario,
                        scenario_params=params)
        res = simulate(cfg, write_files=False)
        assert res.summary["status"] == "failed"
        assert res.summary["failure"]["cause"] == "CFLError"
        assert res.summary["smallness_value"] == smallness
        assert res.summary["smallness_satisfied"] is (smallness == 0.0)

    def test_non_finite_values_are_logged_not_raised(self, tmp_path):
        cfg = SimConfig(nx=16, ny=16, dt=1e-3, t_end=5e-3, cfl=1e300,
                        scenario="vacuum-bubble",
                        scenario_params={"vortex_amp": 1e6},
                        out_dir=str(tmp_path / "o"))
        with np.errstate(all="ignore"):
            res = simulate(cfg)
        failure = res.summary["failure"]
        assert res.summary["status"] == "failed"
        assert failure["cause"] == "NonFiniteError"
        assert 0 < failure["step"] <= 5
        assert len(res.records) == failure["step"]
        assert (tmp_path / "o" / "summary.json").exists()

    def test_adaptive_mode_survives_fast_flow(self):
        cfg = SimConfig(nx=32, ny=32, dt=None, t_end=0.01,
                        scenario="taylor-green",
                        scenario_params={"amplitude": 2.0})
        res = simulate(cfg, write_files=False)
        assert res.summary["status"] == "completed"
        assert res.state.t == pytest.approx(0.01)


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("nx = 32\nny = 32\ndt = 0.001\nt_end = 0.005\n"
                       f"scenario = rest\nout_dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "status: completed" in out
        assert (tmp_path / "out" / "diagnostics.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()

    def test_replay_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("nx = 32\nny = 32\ndt = 0.001\nt_end = 0.005\n"
                       f"scenario = taylor-green\nout_dir = {tmp_path / 'out'}\n")
        cli_main(["run", str(cfg)])
        capsys.readouterr()
        assert cli_main(["replay", str(tmp_path / "out" / "diagnostics.csv")]) == 0
        assert "hold" in capsys.readouterr().out

    def test_render_subcommand(self, tmp_path, capsys):
        g = Grid2D(32, 32, 1.0, 1.0)
        st = make_scenario("vacuum-bubble", {}, g)
        snap = tmp_path / "s.nlc2"
        write_snapshot(snap, st)
        out = tmp_path / "rho.pgm"
        assert cli_main(["render", str(snap), "rho", str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n32 32\n")
        assert cli_main(["render", str(snap), "bogus", str(out)]) == 2

    def test_check_inequalities_subcommand(self, tmp_path, capsys):
        out = tmp_path / "ineq.csv"
        code = cli_main(["check-inequalities", "--family", "gaussian",
                         "--count", "3", "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "name,family_tag,lhs,rhs,ratio,holds"
        assert "ladyzhenskaya" in capsys.readouterr().out


class TestDemos:
    def test_demo_imports_exist(self):
        # the demos run for minutes, so only their imports are checked
        demos = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
        assert demos
        for path in demos:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.ImportFrom) and node.module
                        and node.module.split(".")[0] == "nematic2d"):
                    module = importlib.import_module(node.module)
                    for alias in node.names:
                        assert hasattr(module, alias.name), (path.name,
                                                             alias.name)
