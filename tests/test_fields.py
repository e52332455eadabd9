import math

import numpy as np
import pytest

from nematic2d import (DirectorField2D, Grid2D, ScalarField2D, SimConfig,
                       VectorField2D, divergence, gradient, laplacian,
                       leray_project, lp_norm, material_derivative,
                       serrin_norm, spectral_tail_fraction, vector_lp_norm,
                       velocity_from_stream, velocity_grad_l2_sq)
from nematic2d.fields import (TAIL_CUT, _irfft2, apply_multiplier,
                              gradient_and_spectrum, gradient_integral,
                              half_spectrum, integral, project_spectrum,
                              real_array, values_and_gradient)
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
        (32.0, 32, 1.0, 1.0),  # not an integer
        (32, True, 1.0, 1.0),
    ])
    def test_rejects_bad_grids(self, nx, ny, lx, ly):
        with pytest.raises(ValueError):
            Grid2D(nx, ny, lx, ly)
        # the config validates its grid before a run starts
        with pytest.raises(ValueError):
            SimConfig(nx=nx, ny=ny, lx=lx, ly=ly)

    def test_accepts_numpy_integer_sizes(self):
        assert Grid2D(np.int64(32), 32, 1.0, 1.0).shape == (32, 32)

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
        # NaN fails the check too, instead of giving a NaN norm
        f = ScalarField2D.zeros(grid)
        d = DirectorField2D.constant(grid, (0, 0, 1))
        for p in (0.5, math.nan):
            with pytest.raises(ValueError):
                lp_norm(f, p)
            with pytest.raises(ValueError):
                vector_lp_norm(VectorField2D(f, f), p)
            with pytest.raises(ValueError):
                serrin_norm(d, p)

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
        # [dx, dy] from the forward pass, then lap from its half spectrum
        dx, dy, h = gradient_and_spectrum(grid, data[0])
        got = [dx, dy] + [real_array(grid, h, -grid.k2)] * (order - 1)
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

    def test_project_spectrum_matches_oracle(self, grid, data):
        h = half_spectrum(data)
        project_spectrum(grid, h)
        w = real_array(grid, h)
        assert w.shape == data.shape
        for a, b in zip(w, fft2_project(grid, data[0], data[1])[:2]):
            assert_matches(a, b)
        # the kept spectrum stands for w and its gradient, and is kept
        kept = h.copy()
        got = values_and_gradient(grid, h)
        assert np.array_equal(got[0], w)
        for a, b in zip(got[1:], gradient_and_spectrum(grid, w)[:2]):
            assert_matches(a, b)
        assert np.array_equal(h, kept)

    def test_project_spectrum_after_a_multiplier(self, grid, data,
                                                 monkeypatch):
        _, _, k2 = full_wavenumbers(grid)
        calls = count_transforms(monkeypatch)
        h = half_spectrum(data)
        h *= 1.0 / (3.0 + 0.5 * grid.k2)
        project_spectrum(grid, h)
        w = real_array(grid, h)
        # one stacked call each way per axis: rfft, fft; ifft, irfft
        assert calls.calls() == 4
        m = 1.0 / (3.0 + 0.5 * k2)
        want = fft2_project(grid, fft2_multiplier(data[0], m),
                            fft2_multiplier(data[1], m))
        for a, b in zip(w, want[:2]):
            assert_matches(a, b)

    @pytest.mark.parametrize("shape", [(24, 16, 2.0, 1.0), (32, 32, 1.0, 1.0)])
    def test_gradient_integrals_match_real_space(self, shape):
        # white noise populates the Nyquist row and column, whose first
        # derivatives gradient_and_spectrum drops
        g = Grid2D(*shape)
        a = np.random.default_rng(47).standard_normal((2,) + g.shape)
        dx, dy, h = gradient_and_spectrum(g, a)
        assert gradient_integral(g, h) == pytest.approx(
            integral(g, dx**2 + dy**2), rel=1e-12, abs=0.0)
        lap_h = -g.k2 * h
        lx, ly, _ = gradient_and_spectrum(g, real_array(g, lap_h))
        assert gradient_integral(g, lap_h) == pytest.approx(
            integral(g, lx * lx + ly * ly), rel=1e-12, abs=0.0)
        # one field alone
        gx, gy, _ = gradient_and_spectrum(g, a[1])
        assert gradient_integral(g, half_spectrum(a[1])) == pytest.approx(
            integral(g, gx * gx + gy * gy), rel=1e-12, abs=0.0)

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
        calls = count_transforms(monkeypatch)
        assert spectral_tail_fraction(f) == 0.0
        assert calls.calls() == 0


class TestTransformPair:
    """fields' two transforms make the 1-D passes of numpy's rfft2 and
    irfft2 in their order, so they equal them bitwise; the inverse writes
    into its input only when handed it with overwrite."""

    @pytest.fixture(params=[(16, 10), (10, 16), (2, 16, 10), (2, 10, 16)],
                    ids=str)
    def data(self, request):
        return np.random.default_rng(59).standard_normal(request.param)

    def test_forward_equals_rfft2(self, data):
        assert np.array_equal(half_spectrum(data), np.fft.rfft2(data))

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_inverse_equals_irfft2(self, data, overwrite):
        h = np.fft.rfft2(data)
        h *= np.random.default_rng(61).standard_normal(h.shape[-2:])
        kept = h.copy()
        want = np.fft.irfft2(h, s=data.shape[-2:])
        got = _irfft2(h, data.shape[-1], overwrite=overwrite)
        assert got.shape == data.shape
        assert np.array_equal(got, want)
        if not overwrite:
            assert np.array_equal(h, kept)

    def test_x_derivative_takes_the_x_pass_alone(self, data, monkeypatch):
        ny, nx = data.shape[-2:]
        g = Grid2D(nx, ny, 1.3, 0.7)
        want = _irfft2(1j * g.kx * half_spectrum(data), nx)
        calls = count_transforms(monkeypatch)
        dx, dy, h = gradient_and_spectrum(g, data)
        # rfft, irfft for dx; fft completes h; ifft, irfft for dy
        assert calls.x_passes == 3 and calls.y_passes == 2
        assert calls.calls() == 5
        assert dx.shape == dy.shape == data.shape
        assert_matches(dx, want, rel=1e-13)
        assert np.array_equal(h, np.fft.rfft2(data))
        # the Nyquist column (-1)^i has no first derivative: adding it
        # leaves dx as it was
        nyquist = np.cos(np.pi * np.arange(nx)) * np.ones(data.shape)
        assert_matches(gradient_and_spectrum(g, data + 5.0 * nyquist)[0],
                       want, rel=1e-13)

    def test_values_and_gradient_share_a_y_pass(self, data, monkeypatch):
        ny, nx = data.shape[-2:]
        g = Grid2D(nx, ny, 1.3, 0.7)
        h = np.fft.rfft2(data)
        kept = h.copy()
        calls = count_transforms(monkeypatch)
        a, dx, dy = values_and_gradient(g, h)
        # ifft, irfft for a and irfft for dx; ifft, irfft for dy
        assert calls.x_passes == 3 and calls.y_passes == 2
        assert calls.calls() == 5
        assert np.array_equal(h, kept)
        assert np.array_equal(a, np.fft.irfft2(kept, s=(ny, nx)))
        assert_matches(dx, _irfft2(1j * g.kx * kept, nx), rel=1e-13)
        assert np.array_equal(dy, _irfft2(1j * g.ky * kept, nx))

    def test_laplacian_leaves_its_spectrum_for_the_third_derivatives(self):
        # the inverse transform of -k^2 h must not overwrite it, since the
        # gradient integral of lap a reads it after (diagnostics'
        # director_norms)
        g = Grid2D(16, 10, 1.6, 1.0)
        a = np.random.default_rng(67).standard_normal((2,) + g.shape)
        lap_h = -g.k2 * np.fft.rfft2(a)
        kept = lap_h.copy()
        lap = real_array(g, lap_h)
        assert np.array_equal(lap_h, kept)
        assert np.array_equal(lap, np.fft.irfft2(kept, s=g.shape))


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


@pytest.mark.parametrize("cls, odd", [
    (cls, odd) for cls in (VectorField2D, DirectorField2D)
    for odd in range(len(cls.__dataclass_fields__))])
def test_components_on_different_grids_are_rejected(grid, cls, odd):
    # one component, in each position, on a grid of another box
    other = Grid2D(64, 64, 2.0, 1.0)
    comps = [ScalarField2D.full(other if i == odd else grid, 1.0)
             for i in range(len(cls.__dataclass_fields__))]
    with pytest.raises(ValueError, match="different grids"):
        cls(*comps)
    assert cls(*comps[:odd], ScalarField2D.full(grid, 1.0),
               *comps[odd + 1:]).grid == grid


# numpy.fft calls per call of each derivative helper: a 2-D transform of
# the stacked velocity (or of the scalar) is two calls, its x-pass and its
# y-pass; material_derivative reads the velocity's derivative bundle, which
# a velocity without one gets from gradient_and_spectrum (rfft, irfft for
# dx, fft, then ifft, irfft for dy)
HELPER_TRANSFORMS = {
    "divergence": (lambda u, f: divergence(u), 4),
    "material_derivative": (lambda u, f: material_derivative(u, u, 0.1), 5),
    "velocity_grad_l2_sq": (lambda u, f: velocity_grad_l2_sq(u), 2),
    "grad_l2": (lambda u, f: grad_l2(f), 2),
}


@pytest.mark.parametrize("name", sorted(HELPER_TRANSFORMS))
def test_helper_transform_counts(grid, monkeypatch, name):
    rng = np.random.default_rng(53)
    u, f = solenoidal_field(grid, rng), band_limited_field(grid, rng)
    helper, want = HELPER_TRANSFORMS[name]
    calls = count_transforms(monkeypatch)
    helper(u, f)
    assert calls.calls() == want
