import math

import numpy as np
import pytest

from nematic2d import (DegenerateDirectorError, DirectorField2D, Grid2D,
                       SerrinExponents, SerrinMonitor, SimConfig,
                       VectorField2D, director_derivatives,
                       director_grad_l2_sq, director_norms, ericksen_stress,
                       leray_project, renormalize, simulate, step_director,
                       unit_drift)
from nematic2d.director import _BUNDLE, FLOOR
from nematic2d.fields import half_spectrum, integral, real_array

from helpers import (circle_director, count_transforms, ericksen_tensor,
                     fd_gradient, fd_laplacian, random_unit_director,
                     rotate_director, rotation_matrix, solenoidal_field,
                     stress_divergence)


@pytest.fixture
def grid():
    return Grid2D(64, 64, 1.0, 1.0)


def analytic_director(nx):
    g = Grid2D(nx, nx, 1.0, 1.0)
    X, Y = g.meshgrid()
    wr = 0.6 * np.sin(2 * np.pi * X) * np.cos(4 * np.pi * Y)
    wi = 0.5 * np.cos(2 * np.pi * (X + Y))
    wsq = wr**2 + wi**2
    den = 1.0 + wsq
    return g, DirectorField2D.from_arrays(g, 2 * wr / den, 2 * wi / den,
                                          (1 - wsq) / den)


class TestStepDirector:
    def test_constant_director_is_fixed_point(self, grid):
        e = np.array([0.6, 0.0, 0.8])
        d = DirectorField2D.constant(grid, e)
        out = step_director(d, VectorField2D.zeros(grid), 1e-3)
        assert np.abs(out.as_array() - d.as_array()).max() < 1e-14

    def test_circle_valued_reduces_to_heat_equation(self, grid):
        # the angle of an equator-valued map obeys the scalar heat equation,
        # so the mode amplitude decays like a exp(-(2 pi)^2 t)
        a, dt, n = 0.5, 1e-4, 50
        X, _ = grid.meshgrid()
        d = circle_director(grid, a * np.sin(2 * np.pi * X))
        for _ in range(n):
            d = step_director(d, VectorField2D.zeros(grid), dt)
        phi = np.arctan2(d.d2.values, d.d1.values)
        amp = 2.0 * np.abs(np.fft.rfft(phi[0])[1]) / grid.nx
        exact = a * math.exp(-(2 * math.pi) ** 2 * n * dt)
        assert abs(amp / exact - 1.0) < 1.5e-3  # measured 4.3e-4

    @pytest.mark.parametrize("dt", [1e-4, 1e-3])
    def test_dirichlet_energy_decays_without_flow(self, grid, dt):
        rng = np.random.default_rng(0)
        d = random_unit_director(grid, rng)
        u0 = VectorField2D.zeros(grid)
        prev = director_grad_l2_sq(d)
        for _ in range(30):
            d = step_director(d, u0, dt)
            cur = director_grad_l2_sq(d)
            assert cur <= prev + 1e-8
            prev = cur

    def test_rotation_equivariance(self, grid):
        rng = np.random.default_rng(21)
        d = random_unit_director(grid, rng)
        u = solenoidal_field(grid, rng, amplitude=0.5)
        R = rotation_matrix([1.0, 2.0, 0.5], 1.1)
        evolved_then_rotated = rotate_director(step_director(d, u, 1e-3), R)
        rotated_then_evolved = step_director(rotate_director(d, R), u, 1e-3)
        assert np.abs(evolved_then_rotated.as_array()
                      - rotated_then_evolved.as_array()).max() < 1e-10

    def test_tangency_of_explicit_right_side(self, grid):
        # -u . grad d + lap d + |grad d|^2 d is L2-orthogonal to a unit d
        rng = np.random.default_rng(33)
        d = renormalize(random_unit_director(grid, rng))
        u = solenoidal_field(grid, rng, amplitude=0.5)
        ders, gsq = director_derivatives(d)
        ip = sq = 0.0
        for c, (gx, gy, h) in zip(d.components, ders):
            lap = real_array(grid, h, -grid.k2)
            rhs = (-(u.u1.values * gx + u.u2.values * gy)
                   + lap + gsq * c.values)
            ip += integral(grid, rhs * c.values)
            sq += integral(grid, rhs * rhs)
        assert abs(ip) <= 1e-12 * math.sqrt(sq)

    def test_rejects_nonpositive_dt(self, grid):
        d = DirectorField2D.constant(grid, (0, 0, 1))
        with pytest.raises(ValueError):
            step_director(d, VectorField2D.zeros(grid), -1e-3)

    def test_signals_degeneracy_for_oversized_steps(self, grid):
        # a narrow equator-crossing bubble diffusing into the opposite-pole
        # background cancels to near-zero length when dt outruns the texture
        from nematic2d import make_scenario
        d = make_scenario("supercritical", {"w_max": 3.0, "sigma_frac": 0.05},
                          grid).d
        with pytest.raises(DegenerateDirectorError):
            step_director(d, VectorField2D.zeros(grid), 0.01)


@pytest.fixture
def calls(monkeypatch):
    """numpy.fft calls made while the test runs (count_transforms)."""
    return count_transforms(monkeypatch)


class TestDerivativeBundle:
    """A director's first derivatives are computed once and shared until
    the director step that consumes it drops them."""

    def test_stress_seeds_the_bundle(self, grid, calls):
        d = random_unit_director(grid, np.random.default_rng(5))
        ericksen_stress(d)
        before = calls.calls()
        ders, gsq = director_derivatives(d)
        assert calls.calls() == before
        fresh_ders, fresh_gsq = director_derivatives(
            DirectorField2D.from_arrays(grid, *d.as_array()))
        # per component: rfft, irfft for dx, fft, then ifft, irfft for dy
        assert calls.calls() == before + 15
        assert np.array_equal(gsq, fresh_gsq)
        # [dx c, dy c, c_hat] per component, c_hat the half spectrum
        for c, entry, fresh in zip(d.components, ders, fresh_ders):
            assert len(entry) == len(fresh) == 3
            for a, b in zip(entry, fresh):
                assert np.array_equal(a, b)
            assert np.array_equal(entry[2], half_spectrum(c.values))
        assert director_derivatives(d)[1] is gsq

    def test_norms_read_the_seeded_spectra(self, grid, calls):
        # director_norms takes lap c and int |grad lap c|^2 from c_hat:
        # one inverse transform per component, ifft and irfft
        d = random_unit_director(grid, np.random.default_rng(9))
        fresh = DirectorField2D.from_arrays(grid, *d.as_array())
        ericksen_stress(d)
        before = calls.calls()
        seeded = director_norms(d)
        assert calls.calls() == before + 6
        assert seeded == director_norms(fresh)
        assert calls.calls() == before + 6 + 15 + 6

    def test_step_drops_its_input_bundle(self, grid, calls):
        d = random_unit_director(grid, np.random.default_rng(6))
        ericksen_stress(d)
        before = calls.calls()
        step_director(d, VectorField2D.zeros(grid), 1e-3)
        # the implicit solve only: one transform pair per component
        assert calls.calls() == before + 12
        director_derivatives(d)
        assert calls.calls() == before + 27

    def test_a_run_keeps_only_the_newest_bundle(self):
        common = dict(nx=32, ny=32, dt=1e-3, cadence=3,
                      scenario="vacuum-bubble")
        first = simulate(SimConfig(t_end=0.01, **common), write_files=False)
        second = simulate(SimConfig(t_end=0.02, **common), state=first.state,
                          monitors=first.monitors, write_files=False)
        # the state the second segment stepped from gave its bundle up
        assert _BUNDLE not in vars(first.state.d)
        last = second.monitors.prev.d
        assert set(vars(last)) <= {"d1", "d2", "d3", _BUNDLE}


class TestConstantDirector:
    """A constant director is a steady solution with zero derivatives: its
    step renormalizes it, its force and its norms are zero, and none of
    them makes a transform."""

    E = (0.6, 0.0, 0.8)

    def flow(self, grid):
        return solenoidal_field(grid, np.random.default_rng(8), amplitude=1.0)

    def test_stages_make_no_transform(self, grid, calls):
        d = DirectorField2D.constant(grid, self.E)
        u = self.flow(grid)
        calls.clear()
        out = step_director(d, u, 1e-3)
        force = ericksen_stress(out)
        norms = director_norms(out)
        serrin = SerrinMonitor(SerrinExponents(4.0, 4.0))
        serrin.update(out, 1e-3)
        assert calls.calls() == 0
        assert np.array_equal(out.as_array(), renormalize(d).as_array())
        assert out.is_constant
        assert not force.as_array().any()
        assert norms.grad_l2_sq == norms.grad_l4_4 == norms.hess_l2_sq == 0.0
        assert norms.third_l2_sq == norms.tension_l2_sq == 0.0
        assert serrin.accumulated == 0.0

    def test_matches_the_general_path(self, grid):
        # the flag only picks the path: a constant director whose components
        # are marked nonconstant takes the transforms and gets the same
        # answer
        u = self.flow(grid)
        fast = DirectorField2D.constant(grid, self.E)
        slow = DirectorField2D.constant(grid, self.E)
        for c in slow.components:
            vars(c)["is_constant"] = False
        assert not slow.is_constant
        assert np.array_equal(step_director(fast, u, 1e-3).as_array(),
                              step_director(slow, u, 1e-3).as_array())
        assert not ericksen_stress(slow).as_array().any()
        ders, gsq = director_derivatives(fast)
        assert not gsq.any() and not any(a.any() for x in ders for a in x)
        assert director_norms(slow) == director_norms(fast)

    def test_step_drops_the_bundle_it_stepped_from(self, grid, calls):
        d = DirectorField2D.constant(grid, self.E)
        assert director_grad_l2_sq(d) == 0.0 and calls.calls() == 0
        assert _BUNDLE in vars(d)
        u = self.flow(grid)
        calls.clear()
        out = step_director(d, u, 1e-3)
        assert _BUNDLE not in vars(d) and _BUNDLE not in vars(out)
        assert calls.calls() == 0

    def test_the_flag_is_set_once_per_field(self, grid):
        # the rule lives on each scalar component and is cached there
        d = DirectorField2D.constant(grid, self.E)
        assert not any("is_constant" in vars(c) for c in d.components)
        assert d.is_constant
        assert all(vars(c)["is_constant"] is True for c in d.components)
        a = d.as_array()
        a[2, 3, 5] = 0.81
        bumped = DirectorField2D.from_arrays(grid, *a)
        assert not bumped.is_constant
        assert vars(bumped.d3)["is_constant"] is False
        out = step_director(bumped, VectorField2D.zeros(grid), 1e-3)
        assert not out.is_constant

    def test_a_general_step_that_lands_on_a_constant_is_recognized(
            self, grid, calls):
        # (0, 0, a) with a > FLOOR renormalizes to (0, 0, 1) exactly, and
        # the result is read as constant from its own values
        X, _ = grid.meshgrid()
        a = 0.8 + 0.1 * np.sin(2 * np.pi * X)
        d = DirectorField2D.from_arrays(grid, 0 * a, 0 * a, a)
        assert not d.is_constant and a.min() > FLOOR
        out = step_director(d, VectorField2D.zeros(grid), 1e-3)
        assert np.array_equal(
            out.as_array(),
            DirectorField2D.constant(grid, (0, 0, 1)).as_array())
        assert out.is_constant
        calls.clear()
        ericksen_stress(out)
        step_director(out, VectorField2D.zeros(grid), 1e-3)
        assert calls.calls() == 0

    def test_a_short_constant_still_degenerates(self, grid, calls):
        d = DirectorField2D.constant(grid, (0.0, 0.3, 0.3))
        assert np.sqrt(0.18) < FLOOR
        with pytest.raises(DegenerateDirectorError):
            step_director(d, VectorField2D.zeros(grid), 1e-3)
        assert calls.calls() == 0

    def test_keeps_the_input_checks(self, grid):
        d = DirectorField2D.constant(grid, self.E)
        for dt in (0.0, -1e-3):
            with pytest.raises(ValueError, match="dt"):
                step_director(d, VectorField2D.zeros(grid), dt)
        with pytest.raises(ValueError, match="grids"):
            step_director(d, VectorField2D.zeros(Grid2D(32, 32, 1.0, 1.0)),
                          1e-3)


class TestRenormalize:
    def test_idempotent_on_unit_fields(self, grid):
        rng = np.random.default_rng(5)
        d = renormalize(random_unit_director(grid, rng))
        again = renormalize(d)
        assert np.abs(again.as_array() - d.as_array()).max() < 1e-15

    def test_rescales_constant(self, grid):
        d = DirectorField2D.from_arrays(grid, np.zeros(grid.shape),
                                        np.zeros(grid.shape),
                                        np.full(grid.shape, 2.0))
        out = renormalize(d)
        assert np.array_equal(out.d3.values, np.ones(grid.shape))

    def test_unit_length_after_random_scaling(self, grid):
        rng = np.random.default_rng(6)
        d = random_unit_director(grid, rng)
        scale = 0.8 + 0.4 * rng.random(grid.shape)
        scaled = DirectorField2D.from_arrays(grid, *(c.values * scale
                                                     for c in d.components))
        out = renormalize(scaled)
        lengths = np.sqrt(sum(c.values**2 for c in out.components))
        assert np.abs(lengths - 1.0).max() <= 1e-14
        assert unit_drift(out) <= 1e-13

    def test_rejects_degenerate_nodes(self, grid):
        vals = np.full(grid.shape, 0.3)
        d = DirectorField2D.from_arrays(grid, vals, np.zeros(grid.shape),
                                        np.zeros(grid.shape))
        with pytest.raises(DegenerateDirectorError):
            renormalize(d)


class TestUnitDrift:
    def test_exact_unit_field(self, grid):
        assert unit_drift(DirectorField2D.constant(grid, (0, 0, 1))) == 0.0

    def test_single_node_perturbation(self, grid):
        eps = 1e-3
        vals = np.zeros(grid.shape)
        d3 = np.ones(grid.shape)
        d3[4, 7] = 1.0 + eps
        d = DirectorField2D.from_arrays(grid, vals, vals.copy(), d3)
        assert unit_drift(d) == pytest.approx((1 + eps) ** 2 - 1, rel=1e-12)


class TestEricksenStress:
    def test_constant_director_gives_zero(self, grid):
        d = DirectorField2D.constant(grid, (0, 0, 1))
        force = ericksen_stress(d)
        assert np.abs(ericksen_tensor(d)[0]).max() < 1e-20
        assert np.abs(force.u1.values).max() < 1e-20

    def test_one_dimensional_texture_drives_no_flow(self, grid):
        # force is the pure gradient of |d'(x)|^2/2, annihilated by projection
        X, _ = grid.meshgrid()
        d = circle_director(grid, 0.7 * np.sin(2 * np.pi * X))
        force = ericksen_stress(d)
        w, _ = leray_project(force)
        scale = np.abs(force.u1.values).max()
        assert np.abs(w.u1.values).max() < 1e-11 * scale
        assert np.abs(w.u2.values).max() < 1e-11 * scale

    def test_force_matches_finite_difference_oracle(self):
        # central-difference oracle converges at O(h^2) to the spectral force
        diffs = {}
        for nx in (64, 128, 256):
            g = Grid2D(nx, nx, 1.0, 1.0)
            X, Y = g.meshgrid()
            d = circle_director(g, 0.8 * np.sin(2 * np.pi * X)
                                * np.sin(2 * np.pi * Y))
            f = ericksen_stress(d)
            f1 = np.zeros(g.shape)
            f2 = np.zeros(g.shape)
            for c in d.components:
                gx, gy = fd_gradient(c.values, g.dx, g.dy)
                lap = fd_laplacian(c.values, g.dx, g.dy)
                f1 += gx * lap
                f2 += gy * lap
            diffs[nx] = max(np.abs(f.u1.values - f1).max(),
                            np.abs(f.u2.values - f2).max())
        assert diffs[64] < 1.0  # force scale is ~160 here
        assert diffs[128] < diffs[64] / 3.5
        assert diffs[256] < diffs[128] / 3.5

    def test_divergence_of_stress_matches_force_after_projection(self):
        # div(M) - f is a pure gradient; the gap after projection decays
        # spectrally for analytic textures
        gaps = {}
        for nx in (32, 64, 96):
            g, d = analytic_director(nx)
            force = ericksen_stress(d)
            wf, _ = leray_project(force)
            wm, _ = leray_project(stress_divergence(g, *ericksen_tensor(d)))
            gap = math.sqrt(integral(g, (wf.u1.values - wm.u1.values) ** 2
                                     + (wf.u2.values - wm.u2.values) ** 2))
            fn = math.sqrt(integral(g, force.u1.values**2 + force.u2.values**2))
            gaps[nx] = gap / fn
        assert gaps[64] < 1e-6
        assert gaps[96] < 1e-9
        assert gaps[96] < gaps[32]
