import math

import numpy as np
import pytest

from nematic2d import (DiagnosticsRecord, DirectorField2D, Grid2D,
                       SampleIntegral, ScalarField2D, SerrinExponents,
                       SerrinMonitor, SimConfig, VectorField2D,
                       admissible_exponents, d3_min, director_norms,
                       make_scenario, renormalize, serrin_norm, simulate,
                       smallness_condition, step_director)
from nematic2d.diagnostics import SMALL_DATA_BOUND
from nematic2d.fields import integral, lp_norm_array

from helpers import (PhiSample, basic_energy, circle_director,
                     fft2_derivatives, phi_functional, random_unit_director)


@pytest.fixture
def grid():
    return Grid2D(64, 64, 1.0, 1.0)


class TestBasicEnergy:
    def test_rest_state(self, grid):
        rho = ScalarField2D.full(grid, 1.0)
        e, diss = basic_energy(rho, VectorField2D.zeros(grid),
                               DirectorField2D.constant(grid, (0, 0, 1)))
        assert e < 1e-20
        assert diss < 1e-20

    def test_circle_valued_closed_form(self, grid):
        # |grad d|^2 = (phi_x)^2 for equator-valued maps, so the energy of
        # phi = a sin(2 pi x) is a^2 (2 pi)^2 / 2
        a = 0.3
        X, _ = grid.meshgrid()
        d = circle_director(grid, a * np.sin(2 * np.pi * X))
        e, _ = basic_energy(ScalarField2D.full(grid, 1.0),
                            VectorField2D.zeros(grid), d)
        assert e == pytest.approx(a**2 * (2 * math.pi) ** 2 / 2, rel=1e-12)

    def test_director_dissipation_equals_identity_form(self, grid):
        rng = np.random.default_rng(3)
        d = renormalize(random_unit_director(grid, rng))
        _, diss = basic_energy(ScalarField2D.full(grid, 1.0),
                               VectorField2D.zeros(grid), d)
        n = director_norms(d)
        alt = n.hess_l2_sq - n.grad_l4_4
        assert diss == pytest.approx(alt, rel=1e-7)


class TestTensionIdentity:
    def test_constant_director(self, grid):
        assert director_norms(DirectorField2D.constant(
            grid, (0, 0, 1))).identity_residual < 1e-15

    def test_circle_valued_matches_angle_laplacian(self, grid):
        # for equator-valued maps both sides equal int |lap phi|^2
        a = 0.8
        X, _ = grid.meshgrid()
        d = circle_director(grid, a * np.sin(2 * np.pi * X))
        n = director_norms(d)
        assert n.identity_residual < 1e-9
        closed = a**2 * (2 * math.pi) ** 4 / 2
        assert n.tension_l2_sq == pytest.approx(closed, rel=1e-12)

    def test_residual_scales_linearly_in_unit_drift(self, grid):
        rng = np.random.default_rng(8)
        d0 = renormalize(random_unit_director(grid, rng))
        res = {}
        for eps in (1e-3, 1e-4):
            stretched = DirectorField2D.from_arrays(
                grid, *(c.values * (1.0 + eps) for c in d0.components))
            res[eps] = director_norms(stretched).identity_residual
        assert res[1e-3] / res[1e-4] == pytest.approx(10.0, rel=0.2)


class TestSmallness:
    def test_constant_director_trivially_small(self, grid):
        rho = ScalarField2D.full(grid, 1.0)
        X, _ = grid.meshgrid()
        u = VectorField2D.from_arrays(grid, np.sin(2 * np.pi * X),
                                      np.zeros(grid.shape))
        value, ok = smallness_condition(rho, u,
                                        DirectorField2D.constant(grid, (0, 0, 1)))
        assert value < 1e-18
        assert ok

    def test_closed_form_value(self, grid):
        # weighted kinetic energy 1 and gradient energy 0.005 give
        # exp(2.01) * 0.005, comfortably below 1/16
        st = make_scenario("small-director",
                           {"ke_target": 1.0, "grad_d_sq_target": 0.005},
                           grid)
        value, ok = smallness_condition(st.rho, st.u, st.d)
        assert value == pytest.approx(math.exp(2.01) * 0.005, rel=1e-6)
        assert ok

    def test_large_director_gradient_fails(self, grid):
        st = make_scenario("small-director", {"grad_d_sq_target": 1.0}, grid)
        value, ok = smallness_condition(st.rho, st.u, st.d)
        assert value >= math.exp(2.0)
        assert not ok

    def test_monotone_in_both_arguments(self, grid):
        st = make_scenario("small-director", {}, grid)
        base, _ = smallness_condition(st.rho, st.u, st.d)
        bigger_u = VectorField2D.from_arrays(grid, 2 * st.u.u1.values,
                                             2 * st.u.u2.values)
        v_up, _ = smallness_condition(st.rho, bigger_u, st.d)
        assert v_up > base


class TestSerrin:
    def test_admissible_examples(self):
        ok, thr = admissible_exponents(4.0, 4.0)
        assert ok and thr == pytest.approx(4.0)
        ok, thr = admissible_exponents(math.inf, 2.0)
        assert ok and thr == pytest.approx(2.0)
        ok, thr = admissible_exponents(3.0, 6.0)
        assert ok and thr == pytest.approx(6.0)
        assert not admissible_exponents(2.0, 100.0)[0]
        assert not admissible_exponents(2.5, 4.0)[0]   # 1/2.5 + 1/4 > 1/2
        assert not admissible_exponents(8.0, 2.0)[0]   # 1/8 + 1/2 > 1/2

    def test_constructor_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            SerrinExponents(2.5, 4.0)
        SerrinExponents(4.0, 4.0)

    def test_constant_director_accumulates_nothing(self, grid):
        mon = SerrinMonitor(SerrinExponents(4.0, 4.0))
        d = DirectorField2D.constant(grid, (0, 0, 1))
        for _ in range(10):
            mon.update(d, 0.01)
        assert mon.accumulated < 1e-20

    def test_frozen_field_closed_form(self, grid):
        # constant integrand: accumulated = c^s * T exactly under the
        # rectangle rule
        a = 0.3
        X, _ = grid.meshgrid()
        d = circle_director(grid, a * np.sin(2 * np.pi * X))
        c = serrin_norm(d, 4.0)
        assert c == pytest.approx(a * 2 * math.pi * (3.0 / 8.0) ** 0.25,
                                  rel=1e-12)
        mon = SerrinMonitor(SerrinExponents(4.0, 4.0))
        n, dt = 50, 2e-3
        for _ in range(n):
            mon.update(d, dt)
        assert mon.accumulated == pytest.approx(c**4 * n * dt, rel=1e-12)

    def test_sup_norm_exponents(self, grid):
        # r = inf uses the grid max of |grad d|
        a = 0.3
        X, _ = grid.meshgrid()
        d = circle_director(grid, a * np.sin(2 * np.pi * X))
        c = serrin_norm(d, math.inf)
        assert c == pytest.approx(a * 2 * math.pi, rel=1e-12)
        mon = SerrinMonitor(SerrinExponents(math.inf, 2.0))
        for _ in range(10):
            mon.update(d, 1e-2)
        assert mon.accumulated == pytest.approx(c**2 * 0.1, rel=1e-12)

    @pytest.mark.parametrize("r", [3.0, 4.0, 6.0, math.inf])
    def test_norm_from_the_squared_gradient_matches_lp_norm(self, grid, r):
        # (int (|grad d|^2)^(r/2))^(1/r) against the L^r norm of
        # sqrt(|grad d|^2) that it replaces
        d = random_unit_director(grid, np.random.default_rng(71))
        want = lp_norm_array(grid, np.sqrt(d.derivatives[1]), r)
        assert serrin_norm(d, r) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_infinite_s_keeps_the_running_sup(self, grid):
        # s = inf stands for the L^inf-in-time norm: the running sup over
        # steps of ||grad d||_{L^r}, not a sum of norm^inf * dt
        X, _ = grid.meshgrid()
        small = circle_director(grid, 0.01 * np.sin(2 * np.pi * X))
        big = circle_director(grid, 0.3 * np.sin(2 * np.pi * X))
        lo, hi = serrin_norm(small, 4.0), serrin_norm(big, 4.0)
        assert 0.0 < lo < 1.0 < hi
        mon = SerrinMonitor(SerrinExponents(4.0, math.inf))
        seen = []
        for d in (small, big, small):
            mon.update(d, 1e-3)
            seen.append(mon.accumulated)
        assert seen == [lo, hi, hi]

    def test_infinite_s_run_reports_the_sup(self):
        common = dict(nx=32, ny=32, dt=1e-3, t_end=0.01,
                      scenario="small-director")
        finite = simulate(SimConfig(**common), write_files=False)
        sup = simulate(SimConfig(serrin_s=math.inf, **common),
                       write_files=False)
        acc = sup.summary["serrin_accumulated"]
        assert 0.0 < acc < 1.0
        # no step's norm exceeds the sup, so it bounds the s = 4 integral
        bound = acc**4 * common["t_end"]
        assert finite.summary["serrin_accumulated"] <= bound * (1 + 1e-9)

    def test_accumulator_never_decreases(self, grid):
        rng = np.random.default_rng(5)
        mon = SerrinMonitor(SerrinExponents(6.0, 3.0))
        prev = 0.0
        for _ in range(5):
            mon.update(random_unit_director(grid, rng), 1e-3)
            assert mon.accumulated >= prev
            prev = mon.accumulated


class TestRigidity:
    def test_constant_director_degenerate(self, grid):
        rep = director_norms(DirectorField2D.constant(grid, (0, 0, 1)))
        assert rep.gap_ratio is None
        assert rep.grad_l4_4 < 1e-20

    def test_polar_cap_has_positive_gap(self, grid):
        st = make_scenario("angle-condition", {"epsilon": 0.5}, grid)
        assert d3_min(st.d) >= 0.5
        rep = director_norms(st.d)
        assert rep.hess_l2_sq > 0.0
        assert rep.gap_ratio is not None and rep.gap_ratio > 0.0
        assert rep.prop_bound_ratio is not None and rep.prop_bound_ratio > 0.0

    def test_equator_touching_field_still_reports(self, grid):
        st = make_scenario("supercritical", {"w_max": 2.0}, grid)
        assert d3_min(st.d) < 0.0
        rep = director_norms(st.d)
        assert np.isfinite(rep.grad_l4_4) and np.isfinite(rep.hess_l2_sq)


class TestD3Floor:
    def test_north_pole(self, grid):
        assert d3_min(DirectorField2D.constant(grid, (0, 0, 1))) == 1.0

    def test_heat_flow_keeps_floor(self, grid):
        st = make_scenario("angle-condition", {"epsilon": 0.3}, grid)
        d = st.d
        floor0 = d3_min(d)
        assert floor0 >= 0.3
        u0 = VectorField2D.zeros(grid)
        for _ in range(40):
            d = step_director(d, u0, 1e-3)
            assert d3_min(d) >= floor0 - 1e-6


class TestSampleIntegral:
    def test_trapezoid_arithmetic(self):
        acc = SampleIntegral()
        acc.update(0.0, 2.0, 0.01)
        acc.update(0.5, 4.0, 0.03)
        acc.update(1.0, 0.0, 0.02)
        assert acc.sup == pytest.approx(0.03)
        assert acc.integral == pytest.approx(0.5 * (2 + 4) * 0.5
                                             + 0.5 * (4 + 0) * 0.5)


class TestDirectorBound:
    def test_summary_matches_the_records(self):
        # sup ||grad d||^2 + int ||lap d||^2 by the trapezoid rule over the
        # sample times, against the paper's 1/16 with the summary's slack
        res = simulate(SimConfig(nx=32, ny=32, dt=1e-3, t_end=0.02,
                                 cadence=2, scenario="small-director"),
                       write_files=False)
        t = np.array([r.t for r in res.records])
        grad = np.array([r.grad_d_l2_sq for r in res.records])
        hess = np.array([r.hess_d_l2_sq for r in res.records])
        want = grad.max() + np.sum(0.5 * (hess[1:] + hess[:-1]) * np.diff(t))
        value = res.summary["director_bound_value"]
        assert value == pytest.approx(want, rel=1e-12)
        assert res.summary["director_bound_held"] is (
            value <= SMALL_DATA_BOUND + 1e-3)
        assert SMALL_DATA_BOUND == 1.0 / 16.0


class TestPhi:
    def test_rest_state_is_euler_offset(self):
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=5e-3, scenario="rest")
        res = simulate(cfg, write_files=False)
        assert res.records[-1].phi_value == pytest.approx(math.e, abs=1e-12)

    def test_incremental_monitor_matches_batch(self):
        rng = np.random.default_rng(0)
        samples = [PhiSample(t=float(t), grad_u_l2_sq=rng.random(),
                             grad_d_h1_sq=rng.random(),
                             rho_udot_l2_sq=rng.random(),
                             dt_d_h1_sq=rng.random(),
                             hess_d_h1_sq=rng.random())
                   for t in np.linspace(0.0, 1.0, 17)]
        acc = SampleIntegral()
        for s in samples:
            acc.update(s.t, s.rho_udot_l2_sq + s.dt_d_h1_sq + s.hess_d_h1_sq,
                       s.grad_u_l2_sq + s.grad_d_h1_sq)
        assert math.e + acc.sup + acc.integral == pytest.approx(
            phi_functional(samples), rel=1e-14)

    def test_first_order_refinement(self):
        # halving dt roughly halves the time-integration error of phi
        values = {}
        for dt in (4e-3, 2e-3, 1e-3):
            cfg = SimConfig(nx=32, ny=32, dt=dt, t_end=0.08,
                            scenario="small-director",
                            scenario_params={"ke_target": 0.5})
            values[dt] = simulate(cfg, write_files=False).records[-1].phi_value
        e1 = abs(values[4e-3] - values[2e-3])
        e2 = abs(values[2e-3] - values[1e-3])
        assert e2 < 0.8 * e1


class TestHessianNorm:
    def test_matches_explicit_second_derivatives(self, grid):
        # laplacian-based value equals the sum over all Hessian entries
        rng = np.random.default_rng(4)
        d = renormalize(random_unit_director(grid, rng))
        total = 0.0
        for c in d.components:
            gx, gy = fft2_derivatives(grid, c.values, 1)
            gxx, gxy = fft2_derivatives(grid, gx, 1)
            gyx, gyy = fft2_derivatives(grid, gy, 1)
            total += integral(grid, gxx**2 + gxy**2 + gyx**2 + gyy**2)
        assert director_norms(d).hess_l2_sq == pytest.approx(total, rel=1e-8)


class TestRecordValidation:
    def _kwargs(self):
        names = ("t", "energy_total", "dissipation", "grad_d_l2_sq",
                 "hess_d_l2_sq", "grad_d_l4_4", "rho_min", "rho_max",
                 "rho_drift_q2", "d3_min", "unit_drift",
                 "serrin_accumulated", "phi_value", "ke", "divu_res")
        return {n: 0.0 for n in names}

    def test_rejects_nonfinite(self):
        kw = self._kwargs()
        kw["dissipation"] = math.nan
        with pytest.raises(ValueError):
            DiagnosticsRecord(**kw)

    def test_rejects_negative_energy(self):
        kw = self._kwargs()
        kw["energy_total"] = -1.0
        with pytest.raises(ValueError):
            DiagnosticsRecord(**kw)

    def test_rejects_vacuum_violation(self):
        kw = self._kwargs()
        kw["rho_min"] = -1e-6
        with pytest.raises(ValueError):
            DiagnosticsRecord(**kw)
