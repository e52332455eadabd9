import math

import numpy as np
import pytest

from nematic2d import (DegenerateDirectorError, DirectorField2D, Grid2D,
                       VectorField2D, director_derivatives, director_grad_l2_sq,
                       ericksen_stress, leray_project, renormalize,
                       step_director, unit_drift)
from nematic2d.fields import grad_arrays, integral, laplacian_array

from helpers import (circle_director, ericksen_tensor, fd_gradient,
                     fd_laplacian, random_unit_director, rotate_director,
                     rotation_matrix, solenoidal_field, stress_divergence)


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
        _, gsq = director_derivatives(d)
        ip = sq = 0.0
        for c in d.components:
            gx, gy = grad_arrays(grid, c.values)
            rhs = (-(u.u1.values * gx + u.u2.values * gy)
                   + laplacian_array(grid, c.values) + gsq * c.values)
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
