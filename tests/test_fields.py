import numpy as np
import pytest

from nematic2d import (Grid2D, ScalarField2D, VectorField2D, divergence,
                       gradient, laplacian, leray_project, lp_norm,
                       material_derivative, spectral_tail_fraction,
                       vector_lp_norm, velocity_from_stream,
                       velocity_grad_l2_sq)
from nematic2d.fields import (TAIL_CUT, apply_multiplier, derivative_arrays,
                              integral, parseval_derivatives,
                              solenoidal_arrays)
from nematic2d.inequalities import grad_l2

from helpers import (band_limited_field, count_transforms, fft2_derivatives,
                     fft2_multiplier, fft2_project, fft2_tail_fraction,
                     full_wavenumbers, solenoidal_field)


@pytest.fixture
def grid():
    return Grid2D(64, 64, 1.0, 1.0)


class TestGrid:
    def test_spacing(self, grid):
        assert grid.dx == 1.0 / 64
        assert grid.cell_area == pytest.approx(1.0 / 64**2)

    @pytest.mark.parametrize("nx,ny,lx,ly", [
        (7, 64, 1.0, 1.0),    # odd
        (64, 6, 1.0, 1.0),    # too small
        (64, 64, 0.0, 1.0),   # degenerate box
        (64, 64, 1.0, -2.0),
    ])
    def test_rejects_bad_grids(self, nx, ny, lx, ly):
        with pytest.raises(ValueError):
            Grid2D(nx, ny, lx, ly)

    def test_rejects_nonfinite_values(self, grid):
        vals = np.zeros(grid.shape)
        vals[3, 5] = np.nan
        with pytest.raises(ValueError):
            ScalarField2D(grid, vals)


class TestLpNorm:
    def test_zero_field(self, grid):
        assert lp_norm(ScalarField2D.zeros(grid), 2.0) == 0.0

    def test_constant_on_2pi_box(self):
        g = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
        # sqrt(area) of the box
        assert lp_norm(ScalarField2D.full(g, 1.0), 2.0) == pytest.approx(
            2 * np.pi, rel=1e-14)

    def test_single_mode(self, grid):
        # int sin^2 over the unit box is 1/2
        f = ScalarField2D.from_function(grid, lambda X, Y: np.sin(2 * np.pi * X))
        assert lp_norm(f, 2.0) == pytest.approx(np.sqrt(0.5), rel=1e-13)

    def test_sup_norm(self, grid):
        f = ScalarField2D.from_function(grid, lambda X, Y: np.sin(2 * np.pi * X))
        assert lp_norm(f, np.inf) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_small_p(self, grid):
        with pytest.raises(ValueError):
            lp_norm(ScalarField2D.zeros(grid), 0.5)

    def test_pythagoras_for_stacked_components(self, grid):
        rng = np.random.default_rng(7)
        f = band_limited_field(grid, rng)
        h = band_limited_field(grid, rng)
        v = VectorField2D(f, h)
        lhs = vector_lp_norm(v, 2.0) ** 2
        rhs = lp_norm(f, 2.0) ** 2 + lp_norm(h, 2.0) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDerivatives:
    def test_gradient_of_constant(self, grid):
        g = gradient(ScalarField2D.full(grid, 3.7))
        assert np.abs(g.u1.values).max() < 1e-12
        assert np.abs(g.u2.values).max() < 1e-12

    def test_gradient_single_mode(self, grid):
        f = ScalarField2D.from_function(grid, lambda X, Y: np.sin(2 * np.pi * X))
        g = gradient(f)
        X, _ = grid.meshgrid()
        assert np.abs(g.u1.values - 2 * np.pi * np.cos(2 * np.pi * X)).max() < 1e-11
        assert np.abs(g.u2.values).max() < 1e-11

    def test_gradient_product_mode(self):
        g = Grid2D(64, 32, 2.0, 1.0)
        X, Y = g.meshgrid()
        f = ScalarField2D(g, np.sin(2 * np.pi * X / 2.0) * np.sin(2 * np.pi * Y))
        gr = gradient(f)
        gx = np.pi * np.cos(np.pi * X) * np.sin(2 * np.pi * Y)
        gy = 2 * np.pi * np.sin(np.pi * X) * np.cos(2 * np.pi * Y)
        assert np.abs(gr.u1.values - gx).max() < 1e-11
        assert np.abs(gr.u2.values - gy).max() < 1e-11

    def test_laplacian_single_mode(self, grid):
        X, _ = grid.meshgrid()
        f = ScalarField2D(grid, np.sin(2 * np.pi * X))
        lap = laplacian(f)
        assert np.abs(lap.values + (2 * np.pi) ** 2 * np.sin(2 * np.pi * X)).max() < 1e-9

    def test_divergence_of_gradient_is_laplacian(self, grid):
        rng = np.random.default_rng(3)
        f = band_limited_field(grid, rng, kmax=8)
        lhs = divergence(gradient(f)).values
        rhs = laplacian(f).values
        assert np.abs(lhs - rhs).max() < 1e-10 * max(np.abs(rhs).max(), 1.0)

    def test_shift_equivariance(self, grid):
        rng = np.random.default_rng(5)
        f = band_limited_field(grid, rng, kmax=8)
        shifted = ScalarField2D(grid, np.roll(f.values, (3, -7), axis=(0, 1)))
        a = gradient(shifted).u1.values
        b = np.roll(gradient(f).u1.values, (3, -7), axis=(0, 1))
        assert np.abs(a - b).max() < 1e-11 * max(np.abs(b).max(), 1.0)
        la = laplacian(shifted).values
        lb = np.roll(laplacian(f).values, (3, -7), axis=(0, 1))
        assert np.abs(la - lb).max() < 1e-10 * max(np.abs(lb).max(), 1.0)


class TestLerayProjection:
    def test_annihilates_pure_gradients(self, grid):
        rng = np.random.default_rng(11)
        f = band_limited_field(grid, rng)
        w, phi = leray_project(gradient(f))
        assert np.abs(w.u1.values).max() < 1e-12
        assert np.abs(w.u2.values).max() < 1e-12
        assert np.abs(phi.values - (f.values - f.values.mean())).max() < 1e-12

    def test_fixes_solenoidal_fields(self, grid):
        rng = np.random.default_rng(13)
        v = solenoidal_field(grid, rng)
        w, phi = leray_project(v)
        assert np.abs(w.u1.values - v.u1.values).max() < 1e-13
        assert np.abs(phi.values).max() < 1e-13

    def test_two_mode_helmholtz_split(self, grid):
        X, Y = grid.meshgrid()
        sol = np.sin(2 * np.pi * Y)
        v = VectorField2D.from_arrays(
            grid, sol + 2 * np.pi * np.cos(2 * np.pi * X), np.zeros(grid.shape))
        w, phi = leray_project(v)
        assert np.abs(w.u1.values - sol).max() < 1e-12
        assert np.abs(w.u2.values).max() < 1e-12
        assert np.abs(phi.values - np.sin(2 * np.pi * X)).max() < 1e-12

    def test_mean_flow_passes_through(self, grid):
        v = VectorField2D.from_arrays(grid, np.full(grid.shape, 0.4),
                                      np.full(grid.shape, -1.1))
        w, phi = leray_project(v)
        assert np.abs(w.u1.values - 0.4).max() < 1e-14
        assert np.abs(w.u2.values + 1.1).max() < 1e-14
        assert np.abs(phi.values).max() < 1e-14

    def test_idempotent(self, grid):
        rng = np.random.default_rng(17)
        v = VectorField2D(band_limited_field(grid, rng),
                          band_limited_field(grid, rng))
        w1, _ = leray_project(v)
        w2, _ = leray_project(w1)
        scale = vector_lp_norm(w1, 2.0)
        assert np.abs(w2.u1.values - w1.u1.values).max() < 1e-12 * scale
        assert np.abs(w2.u2.values - w1.u2.values).max() < 1e-12 * scale

    def test_decomposition_reconstructs_input(self, grid):
        # v = w + grad(phi) holds exactly by construction, modewise
        rng = np.random.default_rng(29)
        v = VectorField2D(band_limited_field(grid, rng, kmax=12),
                          band_limited_field(grid, rng, kmax=12))
        w, phi = leray_project(v)
        gphi = gradient(phi)
        assert np.abs(w.u1.values + gphi.u1.values - v.u1.values).max() < 1e-13
        assert np.abs(w.u2.values + gphi.u2.values - v.u2.values).max() < 1e-13

    def test_projected_field_is_divergence_free(self, grid):
        rng = np.random.default_rng(19)
        for _ in range(5):
            v = VectorField2D(band_limited_field(grid, rng, kmax=10),
                              band_limited_field(grid, rng, kmax=10))
            w, _ = leray_project(v)
            assert lp_norm(divergence(w), 2.0) <= 1e-10 * vector_lp_norm(v, 2.0)

    def test_stream_function_fields_are_divergence_free(self, grid):
        rng = np.random.default_rng(23)
        u = velocity_from_stream(band_limited_field(grid, rng))
        assert lp_norm(divergence(u), 2.0) < 1e-11 * vector_lp_norm(u, 2.0)


def assert_matches(a, oracle, rel=1e-12):
    assert np.abs(a - oracle).max() <= rel * np.abs(oracle).max()


class TestHalfSpectrum:
    """The rfft2 layer against a complex fft2 oracle on a non-square grid,
    so that swapped axes or a wrong half-spectrum width show."""

    @pytest.fixture
    def grid(self):
        return Grid2D(24, 16, 2.0, 1.0)

    @pytest.fixture
    def data(self, grid):
        # white noise: every mode, Nyquist ones included, is populated
        return np.random.default_rng(41).standard_normal((2,) + grid.shape)

    def test_wavenumber_shapes(self, grid):
        assert grid.kx.shape == (1, 13)
        assert grid.ky.shape == (16, 1)
        assert grid.k2.shape == (16, 13)
        kx, ky, k2 = full_wavenumbers(grid)
        assert np.array_equal(grid.kx, kx[:, :13])
        assert np.array_equal(grid.ky, ky)
        assert np.array_equal(grid.k2, k2[:, :13])

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivatives_match_oracle(self, grid, data, order):
        got = derivative_arrays(grid, data[0], order)
        want = fft2_derivatives(grid, data[0], order)
        assert len(got) == len(want) == order + 1
        for a, b in zip(got, want):
            assert a.shape == grid.shape
            assert_matches(a, b)

    def test_apply_multiplier_matches_oracle(self, grid, data):
        kx, ky, k2 = full_wavenumbers(grid)
        for half, full in ((1.0 / (1.0 + 0.01 * grid.k2),
                            1.0 / (1.0 + 0.01 * k2)),
                           (-grid.k2, -k2), (1j * grid.ky, 1j * ky),
                           (1j * grid.kx, 1j * kx)):
            assert_matches(apply_multiplier(grid, data[0], half),
                           fft2_multiplier(data[0], full))

    def test_leray_project_matches_oracle(self, grid, data):
        w, phi = leray_project(VectorField2D.from_arrays(grid, *data))
        for a, b in zip((w.u1.values, w.u2.values, phi.values),
                        fft2_project(grid, data[0], data[1])):
            assert_matches(a, b)

    def test_solenoidal_arrays_matches_oracle(self, grid, data):
        w, h = solenoidal_arrays(grid, data)
        assert w.shape == data.shape
        for a, b in zip(w, fft2_project(grid, data[0], data[1])[:2]):
            assert_matches(a, b)
        # the returned spectrum stands for w in the derivative pass
        for a, b in zip(derivative_arrays(grid, None, 2, spectrum=h),
                        derivative_arrays(grid, w, 2)):
            assert_matches(a, b)

    def test_solenoidal_arrays_applies_a_multiplier(self, grid, data,
                                                    monkeypatch):
        _, _, k2 = full_wavenumbers(grid)
        calls = count_transforms(monkeypatch)
        w, _ = solenoidal_arrays(grid, data, 1.0 / (3.0 + 0.5 * grid.k2))
        assert calls["fft"] == 2
        m = 1.0 / (3.0 + 0.5 * k2)
        want = fft2_project(grid, fft2_multiplier(data[0], m),
                            fft2_multiplier(data[1], m))
        for a, b in zip(w, want[:2]):
            assert_matches(a, b)

    @pytest.mark.parametrize("shape", [(24, 16, 2.0, 1.0), (32, 32, 1.0, 1.0)])
    def test_parseval_derivatives_match_real_space(self, shape):
        # white noise populates the Nyquist row and column, whose first
        # derivatives derivative_arrays drops
        g = Grid2D(*shape)
        a = np.random.default_rng(47).standard_normal((2,) + g.shape)
        ders = derivative_arrays(g, a, 2)
        grad, lap, grad_lap = parseval_derivatives(g, a, 3)
        assert grad == pytest.approx(
            integral(g, ders[0] ** 2 + ders[1] ** 2), rel=1e-12, abs=0.0)
        assert np.array_equal(lap, ders[2])
        lx, ly = derivative_arrays(g, ders[2])
        assert grad_lap == pytest.approx(
            integral(g, lx * lx + ly * ly), rel=1e-12, abs=0.0)
        # one field alone, at order 1
        gx, gy = derivative_arrays(g, a[1])
        (one,) = parseval_derivatives(g, a[1])
        assert one == pytest.approx(integral(g, gx * gx + gy * gy),
                                    rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("shape", [(24, 16, 2.0, 1.0), (32, 32, 1.0, 1.0)])
    def test_spectral_tail_fraction_matches_oracle(self, shape):
        g = Grid2D(*shape)
        rng = np.random.default_rng(43)
        for f in (ScalarField2D(g, rng.standard_normal(g.shape)),
                  band_limited_field(g, rng, kmax=g.nx // 4 + 1)):
            want = fft2_tail_fraction(g, f.values, TAIL_CUT)
            assert 0.0 < want < 1.0
            assert abs(spectral_tail_fraction(f) - want) <= 1e-12

    @pytest.mark.parametrize("n", [10, 14, 80, 112])
    @pytest.mark.parametrize("c", [0.3, 1.0 / 3.0])
    def test_spectral_tail_fraction_of_a_constant_is_zero(self, n, c,
                                                          monkeypatch):
        # FFTs of radix 5 and 7 leave rounding noise in the non-mean modes
        # of a constant, which would read as a tail of up to one half
        f = ScalarField2D.full(Grid2D(n, n, 1.0, 1.0), c)
        transforms = count_transforms(monkeypatch)
        assert spectral_tail_fraction(f) == 0.0
        assert transforms["fft"] == 0


class TestConstantField:
    def test_is_constant_is_min_equals_max_taken_once(self, grid):
        a = np.full(grid.shape, 0.7)
        a[3, 5] = np.nextafter(0.7, 1.0)
        assert not ScalarField2D(grid, a).is_constant
        f = ScalarField2D.full(grid, 0.7)
        assert "is_constant" not in vars(f)
        assert f.is_constant and vars(f)["is_constant"] is True
        vars(f)["is_constant"] = False  # the cached answer is what is read
        assert not f.is_constant


# numpy.fft calls per call of each derivative helper: one forward transform
# of the stacked velocity (or of the scalar), and one inverse per output
HELPER_TRANSFORMS = {
    "divergence": (lambda u, f: divergence(u), 2),
    "material_derivative": (lambda u, f: material_derivative(u, u, 0.1), 3),
    "velocity_grad_l2_sq": (lambda u, f: velocity_grad_l2_sq(u), 1),
    "grad_l2": (lambda u, f: grad_l2(f), 1),
}


@pytest.mark.parametrize("name", sorted(HELPER_TRANSFORMS))
def test_helper_transform_counts(grid, monkeypatch, name):
    rng = np.random.default_rng(53)
    u, f = solenoidal_field(grid, rng), band_limited_field(grid, rng)
    helper, want = HELPER_TRANSFORMS[name]
    calls = count_transforms(monkeypatch)
    helper(u, f)
    assert calls["fft"] == want
