"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The coupled-run fixtures are shared across criteria and dominate the
runtime (a few minutes total); every test here carries the `acceptance`
marker, so `pytest -m "not acceptance"` runs the rest of the suite alone.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from nematic2d import (DirectorField2D, Grid2D, ScalarField2D,
                       SerrinExponents, SerrinMonitor, SimConfig,
                       VectorField2D, admissible_exponents,
                       check_gagliardo_nirenberg, check_ladyzhenskaya,
                       check_poincare_density, d3_min,
                       advect_density, density_deviation, gaussian_blob,
                       director_norms, make_scenario, random_band_limited,
                       read_snapshot, serrin_norm, simulate, step_director,
                       velocity_from_stream, write_snapshot)

pytestmark = pytest.mark.acceptance

BOUND = 1.0 / 16.0


def report(num, ok, desc):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tg_run():
    cfg = SimConfig(nx=128, ny=128, lx=1.0, ly=1.0, rho_bar=1.0, dt=1e-3,
                    t_end=0.1, scenario="taylor-green", cadence=10)
    t0 = time.time()
    res = simulate(cfg, write_files=False)
    return res, time.time() - t0


@pytest.fixture(scope="module")
def run_b():
    cfg = SimConfig(nx=64, ny=64, dt=1e-3, t_end=1.0,
                    scenario="vacuum-bubble")
    return simulate(cfg, write_files=False)


@pytest.fixture(scope="module")
def run_c():
    cfg = SimConfig(nx=64, ny=64, dt=1e-3, t_end=1.0,
                    scenario="small-director")
    return simulate(cfg, write_files=False)


@pytest.fixture(scope="module")
def run_d():
    cfg = SimConfig(nx=96, ny=96, dt=5e-4, t_end=0.5,
                    scenario="angle-condition",
                    scenario_params={"epsilon": 0.5})
    return simulate(cfg, write_files=False)


def test_criterion_01_taylor_green_decay(tg_run):
    res, elapsed = tg_run
    amp = np.abs(res.state.u.u1.values).max()
    exact = math.exp(-8.0 * math.pi**2 * 0.1)
    rel = abs(amp / exact - 1.0)
    ok = res.summary["status"] == "completed" and rel <= 5e-3 and elapsed < 60.0
    report(1, ok, f"Taylor-Green amplitude error {rel:.3%} <= 0.5% "
                  f"in {elapsed:.1f}s")


def test_criterion_02_director_heat_flow_amplitude():
    grid = Grid2D(128, 128, 1.0, 1.0)
    a, dt, n = 0.5, 1e-4, 500
    X, _ = grid.meshgrid()
    phi0 = a * np.sin(2 * np.pi * X)
    d = DirectorField2D.from_arrays(grid, np.cos(phi0), np.sin(phi0),
                                    np.zeros(grid.shape))
    u0 = VectorField2D.zeros(grid)
    for _ in range(n):
        d = step_director(d, u0, dt)
    phi = np.arctan2(d.d2.values, d.d1.values)
    amp = 2.0 * np.abs(np.fft.rfft(phi[0])[1]) / grid.nx
    exact = a * math.exp(-(2.0 * math.pi) ** 2 * n * dt)
    rel = abs(amp / exact - 1.0)
    report(2, rel <= 1e-2,
           f"director angle-mode amplitude error {rel:.3%} <= 1% at t=0.05")


def test_criterion_03_energy_law(run_b, run_c, run_d):
    worst = -np.inf
    ok = True
    for res, dt in ((run_b, 1e-3), (run_c, 1e-3), (run_d, 5e-4)):
        recs = res.records
        ok &= res.summary["steps"] >= 1000
        e0 = recs[0].energy_total
        slack = 1e-6 * e0 + 10.0 * dt * dt
        for a, b in zip(recs, recs[1:]):
            worst = max(worst, b.energy_total - a.energy_total - slack)
        ok &= res.monitors.max_energy_excess <= 0.0
    ok &= worst <= 0.0
    report(3, ok, "energy nonincreasing on vacuum-bubble, small-director, "
                  f"angle-condition runs (worst excess {worst:.2e})")


def test_criterion_04_smallness_regime(run_c):
    s = run_c.summary
    value = s["smallness_value"]
    ok = (abs(value - math.exp(2.01) * 0.005) < 1e-4
          and s["smallness_satisfied"]
          and run_c.state.t >= 1.0 - 1e-9
          and s["director_bound_value"] <= BOUND + 1e-3)
    report(4, ok, f"smallness value {value:.5f} <= 1/16; director bound "
                  f"{s['director_bound_value']:.5f} <= 1/16 + 1e-3 at t=1")


def test_criterion_05_transport_invariants():
    grid = Grid2D(128, 128, 1.0, 1.0)
    X, Y = grid.meshgrid()
    rho0 = ScalarField2D(grid, 1.0 + 0.5 * np.exp(
        -((X - 0.5) ** 2 + (Y - 0.5) ** 2) / (2 * 0.1**2)))
    u = VectorField2D.from_arrays(grid, np.sin(2 * np.pi * Y),
                                  np.zeros(grid.shape))
    rho = rho0
    lo, hi = rho0.values.min(), rho0.values.max()
    in_range = True
    for _ in range(100):
        rho = advect_density(rho, u, 1e-3)
        in_range &= lo <= rho.values.min() and rho.values.max() <= hi
    n0 = density_deviation(rho0, 1.0)
    drift = abs(density_deviation(rho, 1.0) - n0) / n0

    r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
    s = np.clip((r - 0.12) / 0.15, 0.0, 1.0)
    vac = ScalarField2D(grid, s * s * (3 - 2 * s))
    vmin = 0.0
    for _ in range(100):
        vac = advect_density(vac, u, 1e-3)
        vmin = min(vmin, vac.values.min())
    ok = drift <= 1e-3 and in_range and vmin >= -1e-12
    report(5, ok, f"q=2 drift {drift:.2e} <= 1e-3; range exact; "
                  f"vacuum floor {vmin:.1e} >= -1e-12")


def test_criterion_06_director_maximum_principle(run_d):
    s = run_d.summary
    ok = s["d3_min_initial"] >= 0.5 and s["d3_min_run"] >= 0.5 - 1e-4
    report(6, ok, f"d3 floor {s['d3_min_run']:.6f} >= 0.5 - 1e-4 over "
                  f"{s['steps']} steps")


def test_criterion_07_tension_identity(run_b, run_c, run_d, tg_run):
    worst = -np.inf
    for res in (run_b, run_c, run_d, tg_run[0]):
        for rec in res.records:
            worst = max(worst, rec.tension_identity_residual
                        - (10.0 * rec.unit_drift + 1e-8))
    report(7, worst <= 0.0,
           f"identity residual <= 10*unit_drift + 1e-8 on every sample "
           f"(worst excess {worst:.2e})")


def test_criterion_08_rigidity_gap():
    ok = True
    count = 0
    for nx in (64, 128):
        grid = Grid2D(nx, nx, 1.0, 1.0)
        for eps in np.linspace(0.5, 0.95, 10):
            for sf in (0.06, 0.08, 0.10, 0.12, 0.14):
                d = make_scenario("angle-condition",
                                  {"epsilon": float(eps), "sigma_frac": sf},
                                  grid).d
                ok &= d3_min(d) >= 0.5
                rep = director_norms(d)
                ok &= rep.gap_ratio is not None and rep.gap_ratio > 0.0
                count += 1
    report(8, ok and count >= 50,
           f"strict rigidity gap on {count // 2} fields at two resolutions")


def test_criterion_09_inequality_lab():
    g256 = Grid2D(256, 256, 16.0, 16.0)
    rep = check_ladyzhenskaya(gaussian_blob(g256, 1.0))
    gauss_ok = (abs(rep.lhs - math.sqrt(math.pi / 2)) < 1e-3
                and abs(rep.rhs - math.sqrt(2) * math.pi) < 1e-3
                and rep.holds)

    g = Grid2D(128, 128, 16.0, 16.0)
    rng = np.random.default_rng(2024)
    sweep_ok = all(check_ladyzhenskaya(random_band_limited(g, rng)).holds
                   for _ in range(200))

    def families(grid):
        X, Y = grid.meshgrid()
        cx = cy = grid.lx / 2
        out = []
        for sigma in (0.5, 0.8, 1.2, 1.9):
            env = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * sigma**2))
            for k in (0, 1, 2):
                out.append(ScalarField2D(grid, env * np.cos(k * (X - cx))))
        return out

    stable_ok = True
    for p in (4.0, 6.0):
        maxima = {}
        for nx in (128, 256):
            gg = Grid2D(nx, nx, 16.0, 16.0)
            maxima[nx] = max(check_gagliardo_nirenberg(f, p).ratio
                             for f in families(gg))
        stable_ok &= abs(maxima[256] / maxima[128] - 1.0) < 0.01
    maxima = {}
    for nx in (128, 256):
        gg = Grid2D(nx, nx, 16.0, 16.0)
        rho = ScalarField2D.full(gg, 1.0)
        maxima[nx] = max(check_poincare_density(rho, 1.0,
                                                velocity_from_stream(f)).ratio
                         for f in families(gg))
    stable_ok &= abs(maxima[256] / maxima[128] - 1.0) < 0.01

    ok = gauss_ok and sweep_ok and stable_ok
    report(9, ok, "Ladyzhenskaya closed forms within 1e-3, 200-field sweep "
                  "holds, ratio statistics stable within 1%")


def test_criterion_10_serrin_monitor(run_c):
    lattice_ok = True
    count = 0
    for r in (2, 3, 4, 5, 6, 8, 10, 12, 16, 20):
        for s in (1, 2, 3, 4, 5, 6, 8, 10):
            expected = (r > 2
                        and Fraction(1, r) + Fraction(1, s) <= Fraction(1, 2))
            lattice_ok &= admissible_exponents(float(r), float(s))[0] == expected
            count += 1

    grid = Grid2D(64, 64, 1.0, 1.0)
    X, _ = grid.meshgrid()
    phi = 0.3 * np.sin(2 * np.pi * X)
    d = DirectorField2D.from_arrays(grid, np.cos(phi), np.sin(phi),
                                    np.zeros(grid.shape))
    c = serrin_norm(d, 4.0)
    mon = SerrinMonitor(SerrinExponents(4.0, 4.0))
    n, dt = 200, 5e-4
    for _ in range(n):
        mon.update(d, dt)
    frozen_ok = abs(mon.accumulated - c**4 * n * dt) <= 1e-12 * c**4 * n * dt

    # with (r, s) = (4, 4) the per-step increment is the logged |grad d|_L4^4
    # column times dt, the pairing entering the large-data dissipation bound;
    # the tolerance carries an ulp term because tiny late increments vanish
    # against the accumulated total
    recs = run_c.records
    eps = np.finfo(float).eps
    tie_ok = all(
        abs((b.serrin_accumulated - a.serrin_accumulated)
            - b.grad_d_l4_4 * 1e-3)
        <= 1e-10 * b.grad_d_l4_4 * 1e-3 + 4 * eps * b.serrin_accumulated
        for a, b in zip(recs, recs[1:]))

    ok = lattice_ok and count >= 80 and frozen_ok and tie_ok
    report(10, ok, f"admissibility matches rational arithmetic on {count} "
                   "pairs; frozen-field accumulator exact; (4,4) ties to the "
                   "logged gradient column")


def test_criterion_11_determinism_and_restart(tmp_path):
    common = dict(nx=32, ny=32, dt=1e-3, scenario="vacuum-bubble")
    runs = []
    for sub in ("a", "b"):
        cfg = SimConfig(t_end=0.05, out_dir=str(tmp_path / sub), **common)
        runs.append(simulate(cfg))
    identical = (open(runs[0].csv_path, "rb").read()
                 == open(runs[1].csv_path, "rb").read())

    full = simulate(SimConfig(t_end=0.1, **common), write_files=False)
    first = simulate(SimConfig(t_end=0.05, **common), write_files=False)
    snap = tmp_path / "mid.nlc2"
    write_snapshot(snap, first.state)
    resumed = read_snapshot(snap)
    resumed.step = first.state.step
    second = simulate(SimConfig(t_end=0.1, **common), state=resumed,
                      monitors=first.monitors, write_files=False)
    stitched = first.records + second.records
    max_diff = 0.0
    restart_ok = len(stitched) == len(full.records)
    if restart_ok:
        for a, b in zip(full.records, stitched):
            for name in ("t", "energy_total", "dissipation", "serrin_accumulated",
                         "phi_value", "ke", "rho_drift_q2", "d3_min"):
                va, vb = getattr(a, name), getattr(b, name)
                max_diff = max(max_diff, abs(va - vb) / max(1.0, abs(va)))
        restart_ok = max_diff <= 1e-12
    report(11, identical and restart_ok,
           f"bit-identical CSVs; snapshot resume matches within "
           f"{max_diff:.1e} <= 1e-12")


def test_criterion_12_vacuum_safety(run_b):
    s = run_b.summary
    rho_min_run = min(rec.rho_min for rec in run_b.records)
    final_min = run_b.state.rho.values.min()
    ok = (s["status"] == "completed" and s["steps"] >= 1000
          and s["max_cg_iterations"] <= 500
          and rho_min_run >= -1e-12 and final_min == 0.0)
    report(12, ok, f"vacuum run completed {s['steps']} steps, CG max "
                   f"{s['max_cg_iterations']} <= 500, vacuum intact "
                   f"(min rho = {final_min})")
