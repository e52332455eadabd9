import numpy as np
import pytest

import nematic2d.transport
from nematic2d import (CFLError, Grid2D, ScalarField2D, VectorField2D,
                       advect_density, cfl_number, density_deviation)
from nematic2d.transport import foot_points, sample_bicubic

from helpers import catmull_rom_read, count_transforms, solenoidal_field


def gaussian_bump(grid, sigma=0.08, amp=1.0, base=0.0):
    X, Y = grid.meshgrid()
    cx, cy = grid.lx / 2, grid.ly / 2
    return ScalarField2D(grid, base + amp * np.exp(
        -((X - cx) ** 2 + (Y - cy) ** 2) / (2 * sigma**2)))


def constant_velocity(grid, c1, c2):
    return VectorField2D.from_arrays(grid, np.full(grid.shape, float(c1)),
                                     np.full(grid.shape, float(c2)))


class TestAdvectDensity:
    def test_no_flow_is_identity(self):
        g = Grid2D(32, 32, 1.0, 1.0)
        rho = gaussian_bump(g)
        out = advect_density(rho, VectorField2D.zeros(g), 0.01)
        assert np.array_equal(out.values, rho.values)

    def test_uniform_translation_matches_shift(self):
        # exact characteristics: output(x, y) = rho(x - c dt, y); tolerances
        # frozen at ~2x the measured interpolation error
        expected = {64: 2.2e-4, 128: 3.2e-5}
        errs = {}
        for nx, tol in expected.items():
            g = Grid2D(nx, nx, 1.0, 1.0)
            rho = gaussian_bump(g)
            c, dt = 0.7, 0.01
            out = advect_density(rho, constant_velocity(g, c, 0.0), dt)
            X, Y = g.meshgrid()
            exact = np.exp(-((X - c * dt - 0.5) ** 2 + (Y - 0.5) ** 2)
                           / (2 * 0.08**2))
            errs[nx] = np.abs(out.values - exact).max()
            assert errs[nx] < tol
        # at least second-order convergence under refinement
        assert errs[128] < errs[64] / 3.5

    def test_shear_against_characteristics_oracle(self):
        # u = (sin(2 pi y), 0) transports rho0 to rho0(x - t sin(2 pi y), y)
        g = Grid2D(64, 64, 1.0, 1.0)
        rho0 = gaussian_bump(g, sigma=0.1, amp=0.5, base=1.0)
        X, Y = g.meshgrid()
        u = VectorField2D.from_arrays(g, np.sin(2 * np.pi * Y),
                                      np.zeros(g.shape))
        rho = rho0
        nsteps, dt = 100, 1e-3
        for _ in range(nsteps):
            rho = advect_density(rho, u, dt)
        xs = np.mod(X - nsteps * dt * np.sin(2 * np.pi * Y), 1.0)
        exact = 1.0 + 0.5 * np.exp(-((xs - 0.5) ** 2 + (Y - 0.5) ** 2)
                                   / (2 * 0.1**2))
        l2_err = np.sqrt(((rho.values - exact) ** 2).sum() * g.cell_area)
        assert l2_err < 4.5e-4  # measured 2.1e-4 at this resolution

    def test_discrete_maximum_principle_exact(self):
        g = Grid2D(48, 48, 1.0, 1.0)
        rng = np.random.default_rng(2)
        rho = gaussian_bump(g, sigma=0.1, amp=2.0, base=0.3)
        u = solenoidal_field(g, rng, amplitude=1.5)
        lo, hi = rho.values.min(), rho.values.max()
        for _ in range(20):
            rho = advect_density(rho, u, 5e-3)
            assert rho.values.min() >= lo
            assert rho.values.max() <= hi

    def test_vacuum_stays_nonnegative_exactly(self):
        g = Grid2D(48, 48, 1.0, 1.0)
        rng = np.random.default_rng(4)
        X, Y = g.meshgrid()
        r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
        vals = np.clip(4.0 * (r - 0.15), 0.0, 1.0) ** 2  # vacuum disk
        rho = ScalarField2D(g, vals)
        assert rho.values.min() == 0.0
        u = solenoidal_field(g, rng, amplitude=1.0)
        for _ in range(30):
            rho = advect_density(rho, u, 5e-3)
        assert rho.values.min() >= 0.0

    def test_reversibility_on_smooth_data(self):
        g = Grid2D(64, 64, 1.0, 1.0)
        rng = np.random.default_rng(1)
        u = solenoidal_field(g, rng, amplitude=1.0)
        um = VectorField2D.from_arrays(g, -u.u1.values, -u.u2.values)
        rho0 = gaussian_bump(g, sigma=0.12, amp=0.5, base=1.0)
        errs = []
        for dt in (2e-3, 1e-3):
            back = advect_density(advect_density(rho0, u, dt), um, dt)
            errs.append(np.abs(back.values - rho0.values).max())
        assert errs[0] < 8e-6   # measured 4.7e-6
        assert errs[1] < errs[0]

    def test_rejects_nonpositive_dt(self):
        g = Grid2D(32, 32, 1.0, 1.0)
        with pytest.raises(ValueError):
            advect_density(gaussian_bump(g), VectorField2D.zeros(g), 0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_rejects_non_finite_dt(self, dt):
        g = Grid2D(32, 32, 1.0, 1.0)
        u = constant_velocity(g, 0.1, 0.0)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            advect_density(gaussian_bump(g), u, dt)

    def test_rejects_cfl_breach(self):
        g = Grid2D(64, 64, 1.0, 1.0)
        u = constant_velocity(g, 10.0, 0.0)
        assert cfl_number(u, 0.01) > 0.9
        with pytest.raises(CFLError):
            advect_density(gaussian_bump(g), u, 0.01)


class TestConstantDensity:
    """A constant density is its own transport: advect_density returns it
    after the dt, grid and CFL checks, with no foot points and no gather."""

    def test_returns_its_input_without_gather_or_transform(self,
                                                          monkeypatch):
        g = Grid2D(32, 32, 1.0, 1.0)
        rho = ScalarField2D.full(g, 1.3)
        u = solenoidal_field(g, np.random.default_rng(5), amplitude=1.5)
        gathers = []
        monkeypatch.setattr(nematic2d.transport, "sample_bicubic",
                            lambda *args: gathers.append(args))
        calls = count_transforms(monkeypatch)
        assert advect_density(rho, u, 5e-3) is rho
        assert gathers == [] and calls.calls() == 0
        assert "derivatives" not in vars(u)  # no foot points read the velocity

    def test_keeps_the_input_checks(self):
        g = Grid2D(32, 32, 1.0, 1.0)
        rho = ScalarField2D.full(g, 1.0)
        u = constant_velocity(g, 10.0, 0.0)
        with pytest.raises(CFLError):
            advect_density(rho, u, 0.01)
        for dt in (0.0, -1e-3):
            with pytest.raises(ValueError, match="dt"):
                advect_density(rho, u, dt)
        with pytest.raises(ValueError, match="grids"):
            advect_density(ScalarField2D.full(Grid2D(16, 16, 1.0, 1.0), 1.0),
                           u, 1e-3)

    @pytest.mark.parametrize("value", [1.0, 0.3, 7.25e-3, 1e5])
    def test_limited_read_of_a_constant_is_that_constant(self, value):
        # the oracle behind returning the input: the general path would
        # give the same bits
        g = Grid2D(24, 16, 2.0, 1.0)
        rng = np.random.default_rng(23)
        ix = rng.uniform(-30.0, 50.0, g.shape)
        iy = rng.uniform(-20.0, 35.0, g.shape)
        out = sample_bicubic(g, np.full(g.shape, value), ix, iy)
        assert np.array_equal(out, np.full(g.shape, value))


class TestFootPoints:
    """Feet against characteristics integrated by RK4. Uniform translation
    and shear have (u . grad)u = 0, where any second-order locator is
    exact; the cellular flow does not."""

    @staticmethod
    def cellular(x, y):
        return np.sin(x) * np.cos(y), -np.cos(x) * np.sin(y)

    def rk4_feet(self, X, Y, dt, substeps=64):
        h = -dt / substeps
        for _ in range(substeps):
            k1 = self.cellular(X, Y)
            k2 = self.cellular(X + 0.5 * h * k1[0], Y + 0.5 * h * k1[1])
            k3 = self.cellular(X + 0.5 * h * k2[0], Y + 0.5 * h * k2[1])
            k4 = self.cellular(X + h * k3[0], Y + h * k3[1])
            X = X + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            Y = Y + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        return X, Y

    def test_cellular_flow_against_rk4_characteristics(self):
        errs = {}
        for n in (64, 128):
            g = Grid2D(n, n, 2 * np.pi, 2 * np.pi)
            X, Y = g.meshgrid()
            u = VectorField2D.from_arrays(g, *self.cellular(X, Y))
            dt = 0.9 * g.dx  # CFL 0.9: max |u| = 1
            assert cfl_number(u, dt) == pytest.approx(0.9, rel=1e-12)
            ix, iy = foot_points(u, dt)
            ex, ey = self.rk4_feet(X, Y, dt)
            errs[n] = max(np.abs(ix - ex / g.dx).max(),
                          np.abs(iy - ey / g.dy).max())  # in cells
        assert errs[64] < 2.5e-3  # measured 1.17e-3
        assert errs[128] < errs[64] / 3.5  # second order: measured 4.0x


class TestSampleBicubic:
    @pytest.fixture
    def case(self):
        g = Grid2D(24, 16, 2.0, 1.0)
        rng = np.random.default_rng(17)
        values = rng.standard_normal(g.shape)
        # points well outside one period exercise the wrap-around
        ix = rng.uniform(-30.0, 50.0, g.shape)
        iy = rng.uniform(-20.0, 35.0, g.shape)
        return g, values, ix, iy

    def test_limited_value_stays_within_its_four_corners(self, case):
        g, values, ix, iy = case
        i0 = np.floor(ix).astype(int)
        j0 = np.floor(iy).astype(int)
        corners = np.stack([values[(j0 + b) % g.ny, (i0 + a) % g.nx]
                            for a in (0, 1) for b in (0, 1)])
        lo, hi = corners.min(axis=0), corners.max(axis=0)
        out = sample_bicubic(g, values, ix, iy)
        assert out.shape == ix.shape
        assert np.all((lo <= out) & (out <= hi))
        free = catmull_rom_read(values, ix, iy)
        outside = (free < lo) | (free > hi)
        assert np.any(outside)  # the limiter did act
        # elsewhere the read is the unlimited interpolant
        assert np.allclose(out[~outside], free[~outside], rtol=0.0,
                           atol=1e-12)


def drift(rho, rho0, q=2.0):
    """Relative drift of ||rho - 1||_{L^q} against rho0, as logged."""
    n0 = density_deviation(rho0, 1.0, q)
    return abs(density_deviation(rho, 1.0, q) - n0) / max(n0, 1e-12)


class TestDensityInvariants:
    def test_identity_has_zero_drift(self):
        g = Grid2D(32, 32, 1.0, 1.0)
        rho = gaussian_bump(g, base=1.0)
        assert drift(rho, rho, 2.0) == 0.0
        assert drift(rho, rho, 4.0) == 0.0

    def test_reports_vacuum_floor(self):
        g = Grid2D(48, 48, 1.0, 1.0)
        X, Y = g.meshgrid()
        r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
        rho0 = ScalarField2D(g, np.clip(4.0 * (r - 0.15), 0.0, 1.0) ** 2)
        rng = np.random.default_rng(9)
        rho = rho0
        u = solenoidal_field(g, rng, amplitude=0.8)
        for _ in range(10):
            rho = advect_density(rho, u, 5e-3)
        assert rho.values.min() >= -1e-12

    def test_drift_small_after_shear(self):
        g = Grid2D(64, 64, 1.0, 1.0)
        rho0 = gaussian_bump(g, sigma=0.1, amp=0.5, base=1.0)
        _, Y = g.meshgrid()
        u = VectorField2D.from_arrays(g, np.sin(2 * np.pi * Y),
                                      np.zeros(g.shape))
        rho = rho0
        for _ in range(100):
            rho = advect_density(rho, u, 1e-3)
        assert drift(rho, rho0) < 6e-4  # measured 2.9e-4 at nx = 64
