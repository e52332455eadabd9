import ast
import ctypes
import importlib
import json
import math
import platform
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from nematic2d import (Grid2D, RunMonitors, ScalarField2D, SimConfig,
                       SimState, VectorField2D, cfl_number, export_heatmap,
                       initial_state, make_scenario, parse_config, read_csv,
                       read_snapshot, replay_csv, simulate, step_once,
                       write_snapshot)
from nematic2d import diagnostics, simulation
from nematic2d.cli import main as cli_main
from nematic2d.fields import half_spectrum
from nematic2d.io import CSV_COLUMNS
from nematic2d.simulation import (STEP_STAGES, _sample, energy_slack,
                                  keep_heap_pages)

from helpers import count_transforms


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
cg_tol = 1e-10
cg_max_iter = 400
scenario = vacuum-bubble
scenario.vortex_amp = 0.25
out_dir = runs/demo
"""
        path = tmp_path / "run.cfg"
        path.write_text(text)
        cfg = parse_config(path)
        assert cfg.nx == 32 and cfg.rho_bar == 1.5 and cfg.cadence == 2
        assert cfg.scenario == "vacuum-bubble"
        assert cfg.scenario_params == {"vortex_amp": 0.25}
        assert cfg.out_dir == "runs/demo"

    @pytest.mark.parametrize("first, again", [
        ("nx = 32", "nx = 16"), ("e1 = 0", "e1 = 1"),
        ("scenario.vortex_amp = 0.25", "scenario.vortex_amp = 0.5")])
    def test_repeated_key_is_an_error(self, tmp_path, first, again):
        # the last value used to win silently
        path = tmp_path / "twice.cfg"
        path.write_text(f"{first}\nscenario = small-director\n# again\n"
                        f"{again}\n")
        key = first.partition(" =")[0]
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value) == (f"{path}:4: duplicate key {key!r} "
                                  "(first set on line 1)")
        assert cli_main(["run", str(path)]) == 2

    def test_unknown_key_is_an_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nx = 32\nviscosity = 2.0\n")
        with pytest.raises(ValueError, match="viscosity"):
            parse_config(path)

    @pytest.mark.parametrize("line, message", [
        ("nx = 64.0", "nx expects an integer"),
        ("dt = fast", "dt expects a number")])
    def test_bad_number_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# grid\n{line}\n")
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("line, message", [
        ("scenario.epsilon = abc", "scenario.epsilon expects a number"),
        ("scenario.epsilon = nan",
         "scenario parameter epsilon must be finite, got nan"),
        ("scenario.vortex_sigma_frac = 0", "scenario parameter "
         "vortex_sigma_frac is a width and must be positive, got 0.0"),
        ("scenario.ke_target = -1", "scenario parameter ke_target is a "
         "target and must be nonnegative, got -1.0")])
    def test_bad_scenario_parameter_names_its_line(self, tmp_path, line,
                                                   message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"scenario = small-director\n{line}\n")
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize("text, line, message", [
        ("scenario = angle-condition\nscenario.epsilon = 2\n", 2,
         "scenario parameter epsilon must lie in (0, 1], got 2.0"),
        ("scenario = supercritical\nscenario.w_max = 0.5\n", 2,
         "scenario parameter w_max must exceed 1 for the texture to cross "
         "the equator, got 0.5"),
        ("scenario = small-director\nscenario.rho_blob_amp = -2\n", 2,
         "scenario parameter rho_blob_amp must exceed -1, got -2.0"),
        # the scenario line may come after its parameters
        ("nx = 16\nscenario.w_max = 2.5\nscenario = angle-condition\n", 2,
         "unknown parameters for scenario angle-condition: ['w_max']; it "
         "takes ['epsilon', 'sigma_frac', 'vortex_amp']"),
        ("nx = 16\nscenario = bogus\n", 2,
         "unknown scenario 'bogus'; pick one of ('rest', 'vacuum-bubble', "
         "'small-director', 'angle-condition', 'supercritical', "
         "'taylor-green')")])
    def test_scenario_error_names_its_line(self, tmp_path, text, line,
                                           message):
        # range and name errors used to surface from make_scenario, in
        # simulate, without the file
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize("text, message", [
        ("cfl = -1\n", "cfl must be positive and finite"),
        ("nx = 7\n", "grid sizes must be even integers of at least 8, "
         "got nx=7, ny=64"),
        ("e3 = 0.5\n", "far-field director must be a unit vector"),
        ("serrin_r = 1\n", "inadmissible exponents (r=1.0, s=4.0)")])
    def test_setting_error_names_the_file(self, tmp_path, text, message):
        # SimConfig's errors used to print without the file
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}: {message}"

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

    def test_rejects_unknown_scenario(self):
        # used to be found only when simulate built the initial state
        with pytest.raises(ValueError, match="unknown scenario 'bogus'"):
            SimConfig(scenario="bogus")

    @pytest.mark.parametrize("params, message", [
        ({"w_max": 2.5}, r"scenario angle-condition: \['w_max'\]"),
        ({"epsilon": 2.0}, r"epsilon must lie in \(0, 1\]")])
    def test_rejects_bad_scenario_parameters(self, params, message):
        # checked at construction: simulate builds the initial state before
        # its try block, so a bad parameter there writes no summary.json
        with pytest.raises(ValueError, match=message):
            SimConfig(scenario="angle-condition", scenario_params=params)

    def test_rejects_inadmissible_serrin(self):
        with pytest.raises(ValueError):
            SimConfig(serrin_r=2.5, serrin_s=4.0)

    @pytest.mark.parametrize("key, value", [
        ("cfl", 0.0), ("cfl", -0.5), ("cfl", math.nan),
        ("cg_tol", 0.0), ("cg_tol", -1e-10), ("cg_tol", math.nan),
        ("cg_max_iter", 0), ("cg_max_iter", -1),
        ("t_end", math.nan), ("t_end", math.inf), ("t_end", 0.0),
        ("rho_bar", math.nan), ("rho_bar", math.inf), ("rho_bar", -1.0),
        ("dt", math.nan), ("dt", math.inf), ("dt", 0.0),
        ("nx", 0), ("nx", 7), ("ny", 6),
        ("lx", math.inf), ("ly", math.inf), ("lx", math.nan),
        ("ly", 0.0),
        ("e", (math.nan, 0.0, 1.0)), ("e", (0.0, 0.0, math.nan)),
        ("e", (math.inf, 0.0, 1.0)), ("e", (0.0, -math.inf, 0.0)),
        ("cfl", math.inf), ("cg_tol", math.inf)])
    def test_rejects_out_of_range_solver_settings(self, key, value):
        # a cfl <= 0 used to surface from advect_density as an uncaught
        # ValueError, and cg_tol <= 0 spent the whole CG budget; an
        # infinite cfl took all of t_end in one step and an infinite cg_tol
        # accepted any residual, both reporting "completed"; a NaN or
        # infinite t_end completed after 0 steps, a non-finite rho_bar
        # raised out of simulate, and a bad grid size or an infinite box
        # side failed only there; a NaN far-field director e was built as
        # (nan, nan, nan) and failed only in simulate
        match = "far-field director" if key == "e" else key
        with pytest.raises(ValueError, match=match):
            SimConfig(**{key: value})


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


    @pytest.mark.parametrize("text, where", [
        ("", ""), (",".join(CSV_COLUMNS) + "\n0.0,1.0\n", ":2"),
        (",".join(CSV_COLUMNS) + "\n" + ",".join(["x"] * 15) + "\n", ":2")])
    def test_malformed_file_raises_value_error_naming_it(self, tmp_path,
                                                          text, where):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}{where}:"):
            read_csv(path)


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

    @pytest.mark.parametrize("edit", [
        lambda raw: raw[:6],  # a header cut short
        lambda raw: raw[:-3],  # a payload that is not whole values
        lambda raw: raw[:8] + bytes(4) + raw[12:],  # nx = 0
        lambda raw: raw[:-8] + np.float64(np.nan).tobytes()])
    def test_malformed_file_raises_value_error_naming_it(self, tmp_path,
                                                         edit):
        path = tmp_path / "s.nlc2"
        write_snapshot(path, make_scenario("rest", {},
                                           Grid2D(8, 8, 1.0, 1.0)))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}"):
            read_snapshot(path)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_named_on_read(self, tmp_path, t):
        # a run resumed from such a file would fail at step 0 on its
        # first diagnostic, without naming the file
        path = tmp_path / "s.nlc2"
        write_snapshot(path, make_scenario("rest", {},
                                           Grid2D(8, 8, 1.0, 1.0)))
        raw = path.read_bytes()  # t is the header's last field, bytes 32-40
        path.write_bytes(raw[:32] + np.array(t, "<f8").tobytes() + raw[40:])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             "snapshot time t is not finite"):
            read_snapshot(path)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_is_refused_on_write(self, tmp_path, t):
        st = make_scenario("rest", {}, Grid2D(8, 8, 1.0, 1.0))
        st.t = t
        path = tmp_path / "s.nlc2"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                             "snapshot time t must be finite"):
            write_snapshot(path, st)
        assert not path.exists()


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
            cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=0.02,
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


class TestFixedStep:
    def test_last_step_ends_at_t_end(self):
        # 0.01 is not a multiple of 0.003: the fourth step is shortened to
        # 0.001 instead of running on to 0.012
        cfg = SimConfig(nx=16, ny=16, dt=0.003, t_end=0.01,
                        scenario="taylor-green")
        res = simulate(cfg, write_files=False)
        assert res.summary["steps"] == 4
        assert res.summary["t_final"] == 0.01
        assert len(res.records) == 5 and res.records[-1].t == 0.01


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

    @pytest.mark.parametrize("cfg, cause", [
        # the director step fails (at step 15) after the transport read the
        # velocity's bundle
        (SimConfig(nx=32, ny=32, dt=0.01, t_end=0.2, scenario="supercritical",
                   scenario_params={"w_max": 3.0, "vortex_amp": 0.0,
                                    "sigma_frac": 0.05}),
         "DegenerateDirectorError"),
        # the sample fails after the momentum step seeded the bundle
        (SimConfig(nx=16, ny=16, dt=1e-3, t_end=5e-3, cfl=1e300,
                   scenario="vacuum-bubble",
                   scenario_params={"vortex_amp": 1e6}),
         "NonFiniteError"),
    ], ids=["director-step", "sample"])
    def test_failed_run_keeps_its_velocity_bundle(self, cfg, cause):
        # the returned velocity keeps its derivative bundle, as a completed
        # run's does, and the bundle is that velocity's own
        with np.errstate(all="ignore"):
            res = simulate(cfg, write_files=False)
            u = res.state.u
            assert res.summary["failure"]["cause"] == cause
            assert res.summary["failure"]["step"] > 0
            assert "derivatives" in vars(u)
            fresh = VectorField2D.from_arrays(u.grid,
                                              *u.as_array()).derivatives
            for kept, want in zip(u.derivatives, fresh):
                scale = np.abs(want).max()
                assert np.abs(kept - want).max() <= 1e-12 * scale

    def test_summary_is_strict_json(self, tmp_path):
        # the smallness value overflows to inf, which strict JSON has no
        # token for
        cfg = SimConfig(nx=16, ny=16, dt=1e-3, t_end=2e-3,
                        scenario="small-director",
                        scenario_params={"ke_target": 1000.0},
                        out_dir=str(tmp_path / "o"))
        res = simulate(cfg)
        assert res.summary["smallness_value"] == math.inf

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        text = (tmp_path / "o" / "summary.json").read_text()
        assert json.loads(text, parse_constant=reject)["smallness_value"] is None

    def test_rejected_sample_leaves_the_monitors_alone(self):
        cfg = SimConfig(nx=16, ny=16, dt=1e-3, t_end=5e-3, cfl=1e300,
                        scenario="vacuum-bubble",
                        scenario_params={"vortex_amp": 1e6})
        with np.errstate(all="ignore"):
            res = simulate(cfg, write_files=False)
        assert res.summary["failure"]["cause"] == "NonFiniteError"
        e = [r.energy_total for r in res.records]
        slack = energy_slack(res.monitors.e0, cfg.dt)
        kept = max([0.0] + [b - a - slack for a, b in zip(e, e[1:])])
        assert res.summary["max_energy_excess"] == pytest.approx(kept,
                                                                 rel=1e-12)

    def test_overflow_is_logged_without_warnings(self):
        cfg = SimConfig(nx=16, ny=16, dt=1e-3, t_end=5e-3,
                        scenario="taylor-green",
                        scenario_params={"amplitude": 1e200})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = simulate(cfg, write_files=False)
        assert res.summary["failure"]["cause"] == "NonFiniteError"

    def test_stalled_cg_stops_early_and_reports_its_iterations(self):
        # 1e-15 is below what rounding lets the true residual reach, so
        # restarts cannot help
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=0.02, cg_tol=1e-15,
                        scenario="vacuum-bubble")
        res = simulate(cfg, write_files=False)
        failure = res.summary["failure"]
        assert failure["cause"] == "ConvergenceError"
        assert failure["step"] == 0
        iters = res.summary["max_cg_iterations"]
        assert 0 < iters < 100  # measured 28; the cap is 500
        assert f"after {iters} iterations" in failure["message"]

    def test_cli_reports_a_rejected_first_sample(self, tmp_path, capsys):
        # the first sample overflows, so no d3 run minimum exists
        cfg = tmp_path / "r.cfg"
        cfg.write_text("nx = 16\nny = 16\ndt = 0.001\nt_end = 0.005\n"
                       "scenario = taylor-green\nscenario.amplitude = 1e200\n"
                       f"out_dir = {tmp_path / 'out'}\n")
        with np.errstate(all="ignore"):
            assert cli_main(["run", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "NonFiniteError" in out
        assert "run min None" in out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["d3_min_run"] is None

    def test_adaptive_mode_survives_fast_flow(self):
        cfg = SimConfig(nx=32, ny=32, dt=None, t_end=0.01,
                        scenario="taylor-green",
                        scenario_params={"amplitude": 2.0})
        res = simulate(cfg, write_files=False)
        assert res.summary["status"] == "completed"
        assert res.state.t == pytest.approx(0.01)

    def test_adaptive_run_writes_its_summary(self, tmp_path):
        # without dt the first steps sit at the CFL cap, so dt, t and the
        # director bound all derive from cfl_number
        cfg = tmp_path / "r.cfg"
        cfg.write_text("nx = 32\nny = 32\nt_end = 0.05\n"
                       "scenario = small-director\n"
                       f"out_dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", str(cfg)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                             parse_constant=reject)
        assert summary["status"] == "completed"
        assert summary["director_bound_held"] is True

    def test_adaptive_summary_holds_plain_values(self):
        res = simulate(SimConfig(nx=32, ny=32, t_end=0.05,
                                 scenario="small-director"),
                       write_files=False)
        assert res.summary["status"] == "completed"

        def plain(v):
            if isinstance(v, dict):
                return all(plain(x) for x in v.values())
            return type(v) in (bool, int, float, str, type(None))

        bad = {k: type(v).__name__ for k, v in res.summary.items()
               if not plain(v)}
        assert not bad

    def test_step_at_the_cfl_cap_is_accepted(self):
        # uniform flow u1 = 1.051 on a 16^2 unit box: nu = 16.816, and the
        # capped step 0.9 / nu gives fl(dt * nu) = 0.9000000000000001
        cfg = SimConfig(nx=16, ny=16, dt=None, cfl=0.9, t_end=0.15,
                        scenario="rest")
        g = cfg.grid()
        rest = make_scenario("rest", None, g)
        u = VectorField2D.from_arrays(g, np.full(g.shape, 1.051),
                                      np.zeros(g.shape))
        nu = cfl_number(u, 1.0)
        assert 0.9 / nu < 0.9 * min(g.dx, g.dy)  # the cap, not dt_ref, sets dt
        assert (0.9 / nu) * nu > 0.9
        res = simulate(cfg, SimState(rest.rho, u, rest.d), write_files=False)
        assert res.summary["status"] == "completed", res.summary["failure"]
        assert res.state.step >= 2


class TestEnergyBudget:
    """The energy law E(t) + 2 int_0^t D = E(0) as an equality: its largest
    residual over the samples, summary["energy_budget_residual_max"], has
    to shrink with dt."""

    @staticmethod
    def residuals(scenario):
        return [simulate(SimConfig(nx=32, ny=32, dt=dt, t_end=0.1,
                                   scenario=scenario),
                         write_files=False).summary["energy_budget_residual_max"]
                for dt in (2e-3, 1e-3)]

    def test_residual_converges_on_small_director(self):
        coarse, fine = self.residuals("small-director")
        assert fine * 3.0 <= coarse  # measured 0.0180 -> 0.00475

    @pytest.mark.xfail(strict=True, reason="Crank-Nicolson leaves the "
                       "velocity undamped where rho = 0 (ROADMAP item 2b)")
    def test_residual_converges_on_vacuum_bubble(self):
        coarse, fine = self.residuals("vacuum-bubble")
        assert fine * 1.8 <= coarse  # measured 0.090 -> 0.077

    @pytest.mark.parametrize("dt, want", [(None, 41.05 / 16.41),
                                          (1e-3, 0.1431)])
    def test_relative_residual_shows_a_broken_law(self, dt, want):
        # CFL mode takes 4 steps, too long for the director's reaction
        # (ROADMAP item 11): the law breaks by 2.5 times E(0), against 14%
        # at the fixed dt
        res = simulate(SimConfig(nx=64, ny=64, dt=dt, t_end=0.05,
                                 scenario="angle-condition"),
                       write_files=False)
        rel = res.summary["energy_budget_residual_rel"]
        assert rel == (res.summary["energy_budget_residual_max"]
                       / res.monitors.e0)
        assert rel == pytest.approx(want, rel=2e-3)

    def test_relative_residual_is_null_without_energy(self, tmp_path,
                                                      capsys):
        cfg = tmp_path / "rest.cfg"
        cfg.write_text("nx = 16\nny = 16\ndt = 0.001\nt_end = 0.002\n"
                       f"scenario = rest\nout_dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "budget residual max 0 (None of E(0))" in out
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["energy_budget_residual_rel"] is None

    def test_residual_matches_the_records(self):
        res = simulate(SimConfig(nx=32, ny=32, dt=1e-3, t_end=0.02,
                                 cadence=2, scenario="vacuum-bubble"),
                       write_files=False)
        t = np.array([r.t for r in res.records])
        e = np.array([r.energy_total for r in res.records])
        d = np.array([r.dissipation for r in res.records])
        acc = np.concatenate([[0.0], np.cumsum(0.5 * (d[1:] + d[:-1])
                                                * np.diff(t))])
        want = np.abs(e + 2.0 * acc - e[0]).max()
        assert want > 0.0
        assert res.summary["energy_budget_residual_max"] == pytest.approx(
            want, rel=1e-12)

    def test_resumed_run_continues_the_integral(self):
        common = dict(nx=32, ny=32, dt=1e-3, scenario="small-director")
        full = simulate(SimConfig(t_end=0.04, **common), write_files=False)
        first = simulate(SimConfig(t_end=0.02, **common), write_files=False)
        second = simulate(SimConfig(t_end=0.04, **common), state=first.state,
                          monitors=first.monitors, write_files=False)
        want = full.summary["energy_budget_residual_max"]
        assert want > first.summary["energy_budget_residual_max"]
        assert second.summary["energy_budget_residual_max"] == pytest.approx(
            want, rel=1e-12)
        # the resumed run's sample times sit on the straight run's lattice
        assert [r.t for r in first.records + second.records] == [
            r.t for r in full.records]

    def test_cg_residual_is_reported(self):
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=0.01,
                        scenario="vacuum-bubble")
        res = simulate(cfg, write_files=False)
        assert res.summary["max_cg_iterations"] > 1
        assert 0.0 < res.summary["max_cg_residual"] <= cfg.cg_tol


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

    def test_malformed_inputs_exit_with_an_error(self, tmp_path, capsys):
        # each used to end in a traceback: struct.error, IndexError and an
        # int() ValueError without the file
        snap, csv = tmp_path / "s.nlc2", tmp_path / "d.csv"
        cfg = tmp_path / "r.cfg"
        snap.write_bytes(b"NLC2\x01\x00")
        csv.write_text("")
        cfg.write_text("nx = 64.0\n")
        assert cli_main(["render", str(snap), "rho",
                         str(tmp_path / "o.pgm")]) == 2
        assert cli_main(["replay", str(csv)]) == 2
        assert cli_main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3
        assert str(snap) in err[0] and str(csv) in err[1]
        assert err[2] == f"error: {cfg}:1: nx expects an integer"

    def test_non_numeric_scenario_parameter_exits_with_an_error(
            self, tmp_path, capsys):
        # used to end in a TypeError traceback from the epsilon range check
        cfg = tmp_path / "r.cfg"
        cfg.write_text("nx = 16\nny = 16\nscenario = angle-condition\n"
                       "scenario.epsilon = abc\n")
        assert cli_main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}:4: scenario.epsilon expects a number"]

    def test_foreign_scenario_parameter_exits_with_an_error(
            self, tmp_path, capsys):
        # w_max is supercritical's; angle-condition used to ignore it and
        # complete
        cfg = tmp_path / "r.cfg"
        cfg.write_text("nx = 16\nny = 16\ndt = 0.001\nt_end = 0.002\n"
                       "scenario = angle-condition\nscenario.w_max = 2.5\n"
                       f"out_dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "angle-condition" in err and "w_max" in err
        assert not (tmp_path / "out").exists()

    def test_bad_setting_exits_naming_the_config(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(f"nx = 16\nny = 16\ncfl = -1\n"
                       f"out_dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {cfg}: cfl must be positive and finite"]
        assert not (tmp_path / "out").exists()

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
        # the demos run end to end in CI (under half a minute for all of
        # them), so here only their imports are checked
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


class TestKeptSpectra:
    """The velocity's and the director's derivative bundles store their
    arrays read-only, so no reader can write into a kept spectrum."""

    def test_bundles_are_read_only_and_keep_their_spectra(self):
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, scenario="angle-condition")
        state = initial_state(cfg)
        mon = RunMonitors.fresh(cfg, state)
        _sample(state, cfg, mon, cfg.dt)
        state = step_once(state, cfg, cfg.dt)
        adv, u_hat = state.u.derivatives
        kept = u_hat.copy()
        mon.serrin.update(state.d, cfg.dt)
        _sample(state, cfg, mon, cfg.dt)
        ders, grad_sq = state.d.derivatives
        for a in (adv, u_hat, ders[0][2], grad_sq):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] += 1.0
        assert np.array_equal(u_hat, kept)
        for c, (_, _, c_hat) in zip(state.d.components, ders):
            assert np.array_equal(c_hat, half_spectrum(c.values))


class TestTransformBudget:
    """numpy.fft calls per stage at 32^2, pinned as measured: a change
    that adds a pass to a stage shows here. A 2-D transform is two calls,
    its x-pass and its y-pass, and a derivative along x takes the x-pass
    alone. Each director is transformed forward once: RunMonitors.fresh
    and then ericksen_stress seed its derivative bundle
    [dx c, dy c, c_hat] per component, which the Serrin update, the
    samples and the next director step read. A constant director,
    vacuum-bubble's, is not transformed at all. The
    velocity has the same rule: step_momentum seeds its derivative bundle
    [(u . grad)u, u_hat] from the half spectrum it holds, with five inverse
    passes, and the sample and the next step read it, so neither
    transforms that velocity again."""

    @pytest.mark.parametrize("scenario",
                             ["angle-condition", "vacuum-bubble",
                              "small-director"])
    def test_transforms_per_stage(self, scenario, monkeypatch):
        calls = count_transforms(monkeypatch)
        staged = {}  # calls of each call of a stage

        def cost(fn, *args, **kwargs):
            before = calls.calls()
            out = fn(*args, **kwargs)
            return calls.calls() - before, out

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                n, out = cost(fn, *args, **kwargs)
                staged.setdefault(name, []).append(n)
                return out
            return wrapper

        for module, name in ((simulation, "step_director"),
                             (simulation, "ericksen_stress"),
                             (simulation, "step_momentum"),
                             (diagnostics, "director_norms")):
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))

        def momentum(iters):
            # a constant density: the spectral step's forward transform (2)
            # and the seed's inverse passes (5). CG: lap(u) of the right
            # side (2), the first preconditioning and the exit check (4
            # each; the check's forward transform is the half spectrum the
            # projection takes), 4 per iteration after the first and the
            # seed (5)
            return 4 * iters + 11 if iters else 7

        cfg = SimConfig(nx=32, ny=32, dt=1e-3, scenario=scenario)
        state = initial_state(cfg)
        constant = scenario == "vacuum-bubble"  # its director is constant
        # the director step (one transform pair per component), the stress
        # (per component rfft, irfft for dx, fft, and ifft, irfft for each
        # of dy and lap) and director_norms (the inverse of lap from the
        # bundle's c_hat per component)
        step, stress, norms = (0, 0, 0) if constant else (12, 21, 6)
        n, mon = cost(RunMonitors.fresh, cfg, state)
        # the director's bundle: no scenario makes it
        assert n == (0 if constant else 15)
        # the first sample makes the initial velocity's bundle: rfft,
        # irfft for dx, fft, then ifft, irfft for dy
        assert cost(_sample, state, cfg, mon, cfg.dt)[0] == 5 + norms
        info = {}
        n, state = cost(step_once, state, cfg, cfg.dt, info)
        iters = [info["cg_iterations"]]
        assert (iters[0] == 0) is (scenario == "angle-condition")
        # the step reads that bundle, and the momentum step seeds the new
        # velocity's
        assert n == step + stress + momentum(iters[0])
        assert cost(mon.serrin.update, state.d, cfg.dt)[0] == 0
        # later samples read u_hat and (u . grad)u from the bundle and
        # add one forward transform of d_t, unless both directors are
        # constant
        n = cost(_sample, state, cfg, mon, cfg.dt)[0]
        assert n == norms + (0 if constant else 2)
        n, state = cost(step_once, state, cfg, cfg.dt, info)
        iters.append(info["cg_iterations"])
        assert n == step + stress + momentum(iters[1])
        assert staged == {"director_norms": [norms] * 2,
                          "step_director": [step] * 2,
                          "ericksen_stress": [stress] * 2,
                          "step_momentum": [momentum(k) for k in iters]}
        if scenario == "angle-condition":
            assert staged["step_momentum"] == [7, 7]


    @pytest.mark.parametrize("scenario, calls", [
        ("rest", 0), ("vacuum-bubble", 5), ("small-director", 7),
        ("angle-condition", 5), ("supercritical", 5), ("taylor-green", 0)])
    def test_transforms_of_initial_state(self, scenario, calls, monkeypatch):
        # the vortex takes the gradient of its stream function (5 passes);
        # small-director also takes the half spectrum of its angle (2) and
        # leaves its director's bundle to the monitors
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, scenario=scenario)
        counter = count_transforms(monkeypatch)
        initial_state(cfg)
        assert counter.calls() == calls


class TestStageTiming:
    def test_stage_sums_fit_in_the_wall_time(self, tmp_path):
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=0.01, cadence=2,
                        scenario="vacuum-bubble", out_dir=str(tmp_path))
        res = simulate(cfg)
        timing = res.summary["timing"]
        stages = STEP_STAGES + ("t_serrin", "t_sample")
        assert sorted(timing) == sorted(stages + ("t_wall",))
        assert all(timing[k] > 0.0 for k in stages)
        # the stages are nearly all of a run; set-up (the initial state and
        # monitors) and the loop's own bookkeeping are the rest
        assert (0.5 * timing["t_wall"] <= sum(timing[k] for k in stages)
                <= timing["t_wall"])
        written = json.loads((tmp_path / "summary.json").read_text())
        assert written["timing"] == timing
        faults = res.summary["minor_page_faults"]
        assert isinstance(faults, int) and faults >= 0
        assert written["minor_page_faults"] == faults
        assert len(read_csv(res.csv_path)) == len(CSV_COLUMNS) == 15

    def test_step_once_reports_its_stages(self):
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, scenario="small-director")
        info = {}
        step_once(initial_state(cfg), cfg, cfg.dt, info)
        assert all(info[k] > 0.0 for k in STEP_STAGES)
        assert info["cg_iterations"] >= 1


class TestHeapPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap policy is set on glibc only")
    def test_warm_run_takes_almost_no_page_faults(self):
        # the first run grows the heap to the run's peak, and the policy
        # keeps those pages for the second (measured 0 faults per step;
        # 1,670 with glibc's default thresholds)
        assert keep_heap_pages()
        cfg = SimConfig(nx=128, ny=128, dt=1e-3, t_end=1e-2,
                        scenario="small-director")
        simulate(cfg, write_files=False)
        summary = simulate(cfg, write_files=False).summary
        assert summary["steps"] == 10
        assert summary["minor_page_faults"] < 50 * summary["steps"]

    def test_does_nothing_off_glibc(self, monkeypatch):
        def no_library(*args, **kwargs):
            raise AssertionError("no C library is loaded off glibc")
        monkeypatch.setattr(platform, "libc_ver", lambda *a, **k: ("", ""))
        monkeypatch.setattr(ctypes, "CDLL", no_library)
        keep_heap_pages.cache_clear()
        try:
            assert keep_heap_pages() is False
            cfg = SimConfig(nx=16, ny=16, dt=1e-3, t_end=3e-3,
                            scenario="small-director")
            assert simulate(cfg, write_files=False).summary["status"] == (
                "completed")
        finally:
            keep_heap_pages.cache_clear()


class TestSpectralLayout:
    def test_only_fields_owns_the_transforms(self):
        # the Fourier layout lives in fields.py, and every numpy.fft call
        src = Path(__file__).parents[1] / "src" / "nematic2d"
        users = set()
        for path in src.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if ((isinstance(node, ast.Attribute) and node.attr == "fft"
                     and isinstance(node.value, ast.Name)
                     and node.value.id in ("np", "numpy"))
                        or (isinstance(node, ast.ImportFrom) and node.module
                            and node.module.startswith("numpy"))):
                    users.add(path.name)
        assert users == {"fields.py"}, sorted(users)
