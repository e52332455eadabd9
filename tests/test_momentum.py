import math

import numpy as np
import pytest

import nematic2d.momentum
import nematic2d.transport
from nematic2d import (ConvergenceError, Grid2D, ScalarField2D, SimConfig,
                       VectorField2D, advect_density, divergence,
                       initial_state, kinetic_energy, lp_norm,
                       material_derivative, step_momentum, step_once,
                       vector_lp_norm, velocity_from_stream)
from nematic2d.diagnostics import velocity_grad_l2_sq
from nematic2d.fields import apply_multiplier
from nematic2d.momentum import _TERMS, velocity_terms

from helpers import (band_limited_field, count_transforms, momentum_system,
                     reference_pcg)


@pytest.fixture
def grid():
    return Grid2D(64, 64, 1.0, 1.0)


def taylor_green(grid, amp):
    X, Y = grid.meshgrid()
    return VectorField2D.from_arrays(
        grid, amp * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y),
        -amp * np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y))


def vacuum_disk_density(grid, r0=0.12, width=0.15):
    X, Y = grid.meshgrid()
    r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
    s = np.clip((r - r0) / width, 0.0, 1.0)
    return ScalarField2D(grid, s * s * (3 - 2 * s))


def small_vortex(grid, peak):
    X, Y = grid.meshgrid()
    r2 = (X - 0.5) ** 2 + (Y - 0.5) ** 2
    u = velocity_from_stream(ScalarField2D(grid, np.exp(-r2 / (2 * 0.15**2))))
    pk = np.hypot(u.u1.values, u.u2.values).max()
    return VectorField2D.from_arrays(grid, peak * u.u1.values / pk,
                                     peak * u.u2.values / pk)


class TestStepMomentum:
    def test_rest_state_stays_at_rest(self, grid):
        rho = ScalarField2D.full(grid, 1.0)
        u = step_momentum(rho, VectorField2D.zeros(grid),
                          VectorField2D.zeros(grid), 1e-3)
        assert np.abs(u.u1.values).max() == 0.0

    def test_taylor_green_viscous_decay(self, grid):
        # exact constant-density solution: the vortex amplitude decays like
        # exp(-((2 pi/lx)^2 + (2 pi/ly)^2) t / rho)
        rho = ScalarField2D.full(grid, 1.0)
        u = taylor_green(grid, 1.0)
        zero = VectorField2D.zeros(grid)
        dt, n = 1e-3, 20
        for _ in range(n):
            u = step_momentum(rho, u, zero, dt)
        exact = math.exp(-8 * math.pi**2 * n * dt)
        amp = np.abs(u.u1.values).max()
        assert abs(amp / exact - 1.0) < 1.5e-3  # measured 8.2e-4

    def test_taylor_green_respects_density_scaling(self, grid):
        # doubling the density halves the decay rate
        rho = ScalarField2D.full(grid, 2.0)
        u = taylor_green(grid, 1.0)
        zero = VectorField2D.zeros(grid)
        dt, n = 1e-3, 20
        for _ in range(n):
            u = step_momentum(rho, u, zero, dt)
        exact = math.exp(-8 * math.pi**2 * n * dt / 2.0)
        assert abs(np.abs(u.u1.values).max() / exact - 1.0) < 1e-3

    def test_projection_exactness_every_step(self, grid):
        rng = np.random.default_rng(12)
        rho = ScalarField2D(grid, 1.0 + 0.5 * np.abs(
            band_limited_field(grid, rng).values))
        u = small_vortex(grid, 0.5)
        force = VectorField2D(band_limited_field(grid, rng, amplitude=0.1),
                              band_limited_field(grid, rng, amplitude=0.1))
        for _ in range(5):
            u = step_momentum(rho, u, force, 1e-3)
            res = lp_norm(divergence(u), 2.0)
            assert res <= 1e-10 * max(vector_lp_norm(u, 2.0), 1e-6)

    def test_vacuum_disk_solve_converges_and_dissipates(self, grid):
        rho = vacuum_disk_density(grid)
        assert rho.values.min() == 0.0
        u = small_vortex(grid, 0.3)
        zero = VectorField2D.zeros(grid)
        ke = kinetic_energy(rho, u)
        for _ in range(30):
            info = {}
            u = step_momentum(rho, u, zero, 1e-3, info=info)
            assert info["cg_iterations"] <= 60  # measured max 16
            ke_new = kinetic_energy(rho, u)
            assert ke_new <= ke
            ke = ke_new

    def test_force_free_energy_law(self, grid):
        # kinetic energy plus twice the time-integrated gradient norm is a
        # discrete invariant up to O(dt) per unit time
        rho = ScalarField2D.full(grid, 1.0)
        zero = VectorField2D.zeros(grid)
        drifts = {}
        for dt in (1e-3, 5e-4):
            u = taylor_green(grid, 1.0)
            ke0 = kinetic_energy(rho, u)
            acc = 0.0
            gu_prev = velocity_grad_l2_sq(u)
            n = int(round(0.05 / dt))
            for _ in range(n):
                u = step_momentum(rho, u, zero, dt)
                gu = velocity_grad_l2_sq(u)
                acc += 0.5 * (gu_prev + gu) * dt
                gu_prev = gu
            drifts[dt] = abs(kinetic_energy(rho, u) + 2.0 * acc - ke0)
        assert drifts[1e-3] < 25.0 * 1e-3 * 0.05  # measured 7.8e-4
        assert drifts[5e-4] < 0.7 * drifts[1e-3]

    def test_rejects_bad_inputs(self, grid):
        rho = ScalarField2D.full(grid, 1.0)
        zero = VectorField2D.zeros(grid)
        with pytest.raises(ValueError):
            step_momentum(rho, zero, zero, 0.0)
        with pytest.raises(ValueError):
            step_momentum(ScalarField2D.full(grid, 0.0), zero, zero, 1e-3)
        neg = np.full(grid.shape, 1.0)
        neg[0, 0] = -0.1
        with pytest.raises(ValueError):
            step_momentum(ScalarField2D(grid, neg), zero, zero, 1e-3)

    def test_signals_cg_stagnation(self, grid):
        rho = vacuum_disk_density(grid)
        u = small_vortex(grid, 0.3)
        with pytest.raises(ConvergenceError):
            step_momentum(rho, u, VectorField2D.zeros(grid), 1e-3,
                          cg_max_iter=2)


def norm(a):
    return math.sqrt(np.sum(a * a))


def smooth_density(grid):
    rng = np.random.default_rng(21)
    return ScalarField2D(grid, 0.2 + band_limited_field(grid, rng).values ** 2)


def random_force(grid, amplitude):
    rng = np.random.default_rng(22)
    return VectorField2D(band_limited_field(grid, rng, amplitude=amplitude),
                         band_limited_field(grid, rng, amplitude=amplitude))


class TestCgSolve:
    """The solve inside step_momentum carries M p by recurrence; the
    textbook PCG in helpers.reference_pcg applies A in full."""

    @pytest.mark.parametrize("density", [vacuum_disk_density, smooth_density])
    def test_solve_matches_reference_pcg(self, grid, density, monkeypatch):
        rho, u, force = density(grid), small_vortex(grid, 0.3), random_force(
            grid, 2.0)
        dt, tol = 1e-3, 1e-10
        solves = []
        real = nematic2d.momentum._pcg

        def spy(*args):
            out = real(*args)
            solves.append(out[0].copy())
            return out

        monkeypatch.setattr(nematic2d.momentum, "_pcg", spy)
        info = {}
        step_momentum(rho, u, force, dt, cg_tol=tol, info=info)
        (x,) = solves
        apply_a, apply_minv, b = momentum_system(rho, u, force, dt)
        want, iters = reference_pcg(apply_a, apply_minv, b, tol, 500)
        assert norm(x - want) <= 1e-8 * norm(want)
        # same Krylov iterates in exact arithmetic; rounding may move the
        # exit by one iteration
        assert abs(info["cg_iterations"] - iters) <= 1
        residual = norm(b - apply_a(x)) / norm(b)
        assert residual <= tol
        assert info["cg_residual"] == pytest.approx(residual, rel=1e-2)

    def test_two_transforms_per_iteration(self, grid, monkeypatch):
        rho, u, force = (vacuum_disk_density(grid), small_vortex(grid, 0.3),
                         random_force(grid, 5.0))
        calls = count_transforms(monkeypatch)
        info = {}
        step_momentum(rho, u, force, 1e-3, info=info)
        iters = info["cg_iterations"]
        assert iters >= 10  # measured 22
        # the right-hand side, the exit check and the projection take a
        # fixed number, the iterations two each (measured 2 iters + 8)
        assert calls["fft"] <= 2 * iters + 12

    def _drifting_system(self):
        # apply_minv inverts 1.1 M instead of M, so M z = r fails and the
        # recurrence converges to the wrong system until CG restarts from
        # the true residual
        g = Grid2D(16, 16, 1.0, 1.0)
        rng = np.random.default_rng(23)
        shift = 10.0 * np.abs(band_limited_field(g, rng).values)
        m = 5.0 + 0.5 * g.k2
        b = np.stack([band_limited_field(g, rng).values for _ in range(2)])
        return (lambda a: apply_multiplier(g, a, m),
                lambda a: apply_multiplier(g, a, 1.0 / (1.1 * m)), shift, b)

    def test_restarts_from_the_true_residual(self):
        apply_m, apply_minv, shift, b = self._drifting_system()
        x, iters, residual = nematic2d.momentum._pcg(
            apply_m, apply_minv, shift, b, 1e-10, 500)
        true = norm(b - apply_m(x) - shift * x) / norm(b)
        assert true <= 1e-10
        assert residual == pytest.approx(true, rel=1e-6)
        # a single pass solves 1.1 M + shift, 9% away from the system
        _, one_pass = reference_pcg(
            lambda a: 1.1 * apply_m(a) + shift * a, apply_minv, b, 1e-10, 500)
        assert iters > one_pass

    def test_restarts_share_the_iteration_budget(self):
        apply_m, apply_minv, shift, b = self._drifting_system()
        _, iters, _ = nematic2d.momentum._pcg(apply_m, apply_minv, shift, b,
                                              1e-10, 500)
        with pytest.raises(ConvergenceError) as exc:
            nematic2d.momentum._pcg(apply_m, apply_minv, shift, b, 1e-10,
                                    iters - 1)
        assert exc.value.iterations == iters - 1


class TestVelocityTerms:
    """A step takes the velocity's derivatives once: the transport's foot
    points seed (u . grad)u and lap(u) on the velocity, and the momentum
    step reads them and drops them before its solve."""

    def test_step_once_gathers_once(self, monkeypatch):
        gathers = []
        real = nematic2d.transport.sample_bicubic

        def spy(*args, **kwargs):
            gathers.append(kwargs.get("limit", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(nematic2d.transport, "sample_bicubic", spy)
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, scenario="vacuum-bubble")
        step_once(initial_state(cfg), cfg, cfg.dt)
        assert gathers == [True]  # the limited density read alone

    def test_transport_seeds_and_the_momentum_step_drops(self, monkeypatch):
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, scenario="vacuum-bubble")
        state = initial_state(cfg)
        u = state.u
        advect_density(state.rho, u, cfg.dt)
        assert _TERMS in vars(u)
        calls = count_transforms(monkeypatch)
        terms = velocity_terms(u)
        assert calls["fft"] == 0
        assert terms is velocity_terms(u)
        new = step_once(state, cfg, cfg.dt)
        assert _TERMS not in vars(u)
        assert _TERMS not in vars(new.u)

    def test_seeded_and_fresh_steps_are_bitwise_equal(self, grid,
                                                      monkeypatch):
        rho, force = vacuum_disk_density(grid), random_force(grid, 2.0)
        u = small_vortex(grid, 0.3)
        copy = VectorField2D.from_arrays(grid, *u.as_array())
        velocity_terms(u)
        calls = count_transforms(monkeypatch)
        seeded = step_momentum(rho, u, force, 1e-3)
        n_seeded = calls["fft"]
        fresh = step_momentum(rho, copy, force, 1e-3)
        # the fresh step adds the order-2 pass: one forward, three inverse
        assert calls["fft"] - n_seeded == n_seeded + 4
        assert np.array_equal(seeded.as_array(), fresh.as_array())
        assert _TERMS not in vars(u) and _TERMS not in vars(copy)


class TestKineticEnergy:
    def test_zero_velocity(self, grid):
        assert kinetic_energy(ScalarField2D.full(grid, 1.0),
                              VectorField2D.zeros(grid)) == 0.0

    def test_single_mode_value(self, grid):
        # int sin^2 over the unit box = 1/2
        X, _ = grid.meshgrid()
        u = VectorField2D.from_arrays(grid, np.sin(2 * np.pi * X),
                                      np.zeros(grid.shape))
        ke = kinetic_energy(ScalarField2D.full(grid, 1.0), u)
        assert ke == pytest.approx(0.5, rel=1e-13)

    def test_vacuum_hides_velocity(self, grid):
        # density vanishing on the support of u gives zero weighted energy
        X, Y = grid.meshgrid()
        r = np.sqrt((X - 0.5) ** 2 + (Y - 0.5) ** 2)
        rho = ScalarField2D(grid, np.where(r < 0.25, 0.0, 1.0))
        bump = np.where(r < 0.2, np.exp(-r**2 / 0.02), 0.0)
        u = VectorField2D.from_arrays(grid, bump, np.zeros(grid.shape))
        assert kinetic_energy(rho, u) == 0.0


class TestMaterialDerivative:
    def test_steady_unidirectional_shear_vanishes(self, grid):
        _, Y = grid.meshgrid()
        u = VectorField2D.from_arrays(grid, np.sin(2 * np.pi * Y),
                                      np.zeros(grid.shape))
        ud = material_derivative(u, u, 1e-3)
        assert np.abs(ud.u1.values).max() < 1e-10
        assert np.abs(ud.u2.values).max() < 1e-10

    def test_traveling_wave_cancellation(self, grid):
        # rigid translation: the finite-difference part reproduces u_t and
        # the transport part vanishes, within O(dt)
        X, _ = grid.meshgrid()
        c = 0.8
        errs = {}
        for dt in (1e-3, 5e-4):
            u_old = VectorField2D.from_arrays(grid, np.zeros(grid.shape),
                                              np.sin(2 * np.pi * X))
            u_new = VectorField2D.from_arrays(grid, np.zeros(grid.shape),
                                              np.sin(2 * np.pi * (X - c * dt)))
            ud = material_derivative(u_new, u_old, dt)
            exact = -c * 2 * np.pi * np.cos(2 * np.pi * X)
            errs[dt] = np.abs(ud.u2.values - exact).max()
        assert errs[1e-3] < 2.5e-2  # measured 1.26e-2
        assert errs[5e-4] < 0.65 * errs[1e-3]

    def test_taylor_green_against_analytic_acceleration(self, grid):
        X, Y = grid.meshgrid()
        dt = 1e-3

        def tg(t):
            amp = math.exp(-8 * math.pi**2 * t)
            return VectorField2D.from_arrays(
                grid, amp * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y),
                -amp * np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y))

        ud = material_derivative(tg(dt), tg(0.0), dt)
        amp = math.exp(-8 * math.pi**2 * dt)
        exact1 = (-8 * math.pi**2 * amp * np.sin(2 * np.pi * X)
                  * np.cos(2 * np.pi * Y) + math.pi * amp**2 * np.sin(4 * np.pi * X))
        exact2 = (8 * math.pi**2 * amp * np.cos(2 * np.pi * X)
                  * np.sin(2 * np.pi * Y) + math.pi * amp**2 * np.sin(4 * np.pi * Y))
        # backward-difference error is dt |u_tt|/2 ~ 2.9 here
        assert np.abs(ud.u1.values - exact1).max() < 4.0
        assert np.abs(ud.u2.values - exact2).max() < 4.0
