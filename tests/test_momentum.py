import math

import numpy as np
import pytest

import nematic2d.momentum
import nematic2d.simulation
import nematic2d.transport
from nematic2d import (ConvergenceError, Grid2D, RunMonitors, ScalarField2D,
                       SimConfig, SimState, VectorField2D, advect_density,
                       divergence, ericksen_stress, initial_state,
                       kinetic_energy, lp_norm, material_derivative, simulate,
                       step_momentum, step_once, vector_lp_norm,
                       velocity_from_stream)
from nematic2d.diagnostics import velocity_grad_l2_sq
from nematic2d.fields import (_irfft2, apply_multiplier, integral,
                              project_spectrum, real_array)
from nematic2d.momentum import _BUNDLE, advection, velocity_derivatives
from nematic2d.simulation import _sample

from helpers import (band_limited_field, constant_density_step,
                     count_transforms, fft2_derivatives, momentum_system,
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
            solves.append(real_array(grid, out[0]))
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
        advection(u)  # seeds the bundle, as the step's foot points do
        calls = count_transforms(monkeypatch)
        info = {}
        step_momentum(rho, u, force, 1e-3, info=info)
        iters = info["cg_iterations"]
        assert iters >= 10  # measured 22
        # a 2-D transform is two calls. lap(u) of the right side (2), the
        # first preconditioning and the exit check (4 each; the check's
        # forward transform is the half spectrum the projection takes) and
        # the seed (5) are fixed, and each iteration after the first takes 4
        assert calls.calls() == 4 * iters + 11

    def _drifting_system(self):
        # apply_minv inverts 1.1 M instead of M, so M z = r fails and the
        # recurrence converges to the wrong system until CG restarts from
        # the true residual
        g = Grid2D(16, 16, 1.0, 1.0)
        rng = np.random.default_rng(23)
        shift = 10.0 * np.abs(band_limited_field(g, rng).values)
        m = 5.0 + 0.5 * g.k2
        b = np.stack([band_limited_field(g, rng).values for _ in range(2)])
        return (g, m, lambda a: apply_multiplier(g, a, 1.0 / (1.1 * m)),
                shift, b)

    def test_restarts_from_the_true_residual(self):
        g, m, apply_minv, shift, b = self._drifting_system()
        h, iters, residual = nematic2d.momentum._pcg(
            g, m, apply_minv, shift, b, 1e-10, 500)
        x = real_array(g, h)
        true = norm(b - apply_multiplier(g, x, m) - shift * x) / norm(b)
        assert true <= 1e-10
        assert residual == pytest.approx(true, rel=1e-6)
        # a single pass solves 1.1 M + shift, 9% away from the system
        _, one_pass = reference_pcg(
            lambda a: 1.1 * apply_multiplier(g, a, m) + shift * a, apply_minv,
            b, 1e-10, 500)
        assert iters > one_pass

    def test_restarts_share_the_iteration_budget(self):
        system = self._drifting_system()
        _, iters, _ = nematic2d.momentum._pcg(*system, 1e-10, 500)
        with pytest.raises(ConvergenceError) as exc:
            nematic2d.momentum._pcg(*system, 1e-10, iters - 1)
        assert exc.value.iterations == iters - 1


class TestVelocityTerms:
    """A step reads the velocity's derivatives from its one bundle
    (velocity_derivatives). A velocity without one, such as an initial
    velocity, gets it on first request: from the transport's foot points
    when the density varies, from the momentum right side otherwise. The
    right side is the bundle's last reader and drops it."""

    def test_step_once_gathers_once(self, monkeypatch):
        gathers, seeded = [], []
        real = nematic2d.transport.sample_bicubic

        def spy(*args, **kwargs):
            gathers.append(args[1])
            return real(*args, **kwargs)

        def right_side(real_side):
            # the CG right side, or the spectral step of a constant
            # density; u is the second argument of either
            def spied(*args):
                seeded.append(_BUNDLE in vars(args[1]))
                return real_side(*args)
            return spied

        monkeypatch.setattr(nematic2d.transport, "sample_bicubic", spy)
        for name in ("_right_side", "_spectral_step"):
            monkeypatch.setattr(nematic2d.momentum, name, right_side(
                getattr(nematic2d.momentum, name)))
        for scenario, gathered in (("vacuum-bubble", 1),
                                   ("angle-condition", 0)):
            gathers.clear()
            seeded.clear()
            cfg = SimConfig(nx=32, ny=32, dt=1e-3, scenario=scenario)
            state = initial_state(cfg)
            new = step_once(state, cfg, cfg.dt)
            # the density read alone, or nothing for a constant density
            assert len(gathers) == gathered
            assert all(v is state.rho.values for v in gathers)
            # the right side makes the bundle itself when nothing gathered
            assert seeded == [gathered == 1]
            assert (new.rho is state.rho) is (gathered == 0)

    def test_transport_seeds_and_the_momentum_step_drops(self, monkeypatch):
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, scenario="vacuum-bubble")
        state = initial_state(cfg)
        u = state.u
        advect_density(state.rho, u, cfg.dt)
        assert _BUNDLE in vars(u)
        calls = count_transforms(monkeypatch)
        bundle = velocity_derivatives(u)
        assert calls.calls() == 0
        assert bundle is velocity_derivatives(u)
        new = step_once(state, cfg, cfg.dt)
        assert _BUNDLE not in vars(u)
        assert _BUNDLE in vars(new.u)  # seeded by the momentum step

    def test_seeded_and_fresh_steps_are_bitwise_equal(self, grid,
                                                      monkeypatch):
        rho, force = vacuum_disk_density(grid), random_force(grid, 2.0)
        u = small_vortex(grid, 0.3)
        copy = VectorField2D.from_arrays(grid, *u.as_array())
        advection(u)  # seeds the bundle, as the step's foot points do
        calls = count_transforms(monkeypatch)
        seeded = step_momentum(rho, u, force, 1e-3)
        n_seeded = calls.calls()
        fresh = step_momentum(rho, copy, force, 1e-3)
        # the fresh step adds the bundle's pass: rfft, irfft for dx, fft,
        # then ifft, irfft for dy
        assert calls.calls() - n_seeded == n_seeded + 5
        assert np.array_equal(seeded.as_array(), fresh.as_array())
        for a, b in zip(velocity_derivatives(seeded),
                        velocity_derivatives(fresh)):
            assert np.array_equal(a, b)

    def test_right_side_drops_the_bundle(self, grid):
        rho, u = vacuum_disk_density(grid), small_vortex(grid, 0.3)
        velocity_derivatives(u)
        nematic2d.momentum._right_side(rho.values, u,
                                       VectorField2D.zeros(grid), 1e-3)
        assert _BUNDLE not in vars(u)

    def test_advection_is_formed_once_per_velocity(self, monkeypatch):
        # the foot points, the right side and the sample's material
        # derivative each read (u . grad)u; every read of one velocity
        # returns the one array of its bundle
        reads = {}  # id of a velocity -> the arrays its reads returned
        velocities = []  # kept alive, so that no id is reused

        def spy(real):
            def spied(u):
                velocities.append(u)
                reads.setdefault(id(u), []).append(real(u))
                return reads[id(u)][-1]
            return spied

        for module in (nematic2d.momentum, nematic2d.transport):
            monkeypatch.setattr(module, "advection", spy(module.advection))
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=5e-3, cadence=1,
                        scenario="vacuum-bubble")
        res = simulate(cfg, write_files=False)
        assert res.summary["status"] == "completed"
        assert res.summary["steps"] == 5
        # the initial velocity and the five stepped ones, read 3 times per
        # step: 2 reads of the initial one, 3 of each of the next four and
        # the last one's material derivative
        assert len(reads) == 6
        assert sum(len(arrays) for arrays in reads.values()) == 15
        formed = {id(a) for arrays in reads.values() for a in arrays}
        assert len(formed) == 6  # once per velocity, so once per step
        for arrays in reads.values():
            assert all(a is arrays[0] for a in arrays)

    def test_advection_is_the_convective_derivative(self, grid):
        X, Y = grid.meshgrid()
        k = 2.0 * np.pi
        # u = (sin kx sin ky, cos kx cos ky): (u . grad)u is
        # (k sin kx cos kx, -k sin ky cos ky)
        u = VectorField2D.from_arrays(grid, np.sin(k * X) * np.sin(k * Y),
                                      np.cos(k * X) * np.cos(k * Y))
        want = np.stack([k * np.sin(k * X) * np.cos(k * X),
                         -k * np.sin(k * Y) * np.cos(k * Y)])
        assert np.abs(advection(u) - want).max() <= 1e-12 * k


def relative_error(a, want):
    return np.abs(a - want).max() / np.abs(want).max()


class TestDirectSolve:
    """With a constant density A = M, so step_momentum solves with M's
    inverse and projects in one transform pair, without CG."""

    def test_matches_cg_and_projection(self, grid, monkeypatch):
        rho = ScalarField2D.full(grid, 1.3)
        u, force, dt = small_vortex(grid, 0.3), random_force(grid, 2.0), 1e-3
        _, apply_minv, b = momentum_system(rho, u, force, dt)
        h, iters, _ = nematic2d.momentum._pcg(
            grid, 1.3 / dt + 0.5 * grid.k2, apply_minv, np.zeros(grid.shape),
            b, 1e-10, 500)
        assert iters == 1  # A = M: the preconditioner solves it at once
        project_spectrum(grid, h)
        want = real_array(grid, h)
        advection(u)  # seeds the bundle, as the step's foot points do
        calls = count_transforms(monkeypatch)
        info = {}
        got = step_momentum(rho, u, force, dt, info=info)
        assert relative_error(got.as_array(), want) <= 1e-12
        assert info == {"cg_iterations": 0, "cg_residual": 0.0}
        # one forward transform for the spectral step and no inverse; the
        # new velocity and its bundle take five inverse passes of its half
        # spectrum, one y-pass serving u and dx u
        assert calls.calls() == 7
        assert calls["rfft"] == calls["fft"] == 1
        assert calls["irfft"] == 3 and calls["ifft"] == 2

    def test_spectral_step_matches_the_real_space_step(self):
        # from a velocity seeded by a momentum step: its bundle's half
        # spectrum replaces rho u/dt and lap(u)/2 of the real-space right
        # side
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, scenario="angle-condition")
        state = step_once(initial_state(cfg), cfg, cfg.dt)
        assert state.rho.is_constant and _BUNDLE in vars(state.u)
        force = ericksen_stress(state.d)
        want = constant_density_step(state.rho, state.u, force, cfg.dt)
        got = step_momentum(state.rho, state.u, force, cfg.dt)
        assert relative_error(got.as_array(), want) <= 1e-13
        # the seed wrote into no part of the kept half spectrum
        kept = velocity_derivatives(got)[1]
        assert np.array_equal(_irfft2(kept, cfg.nx), got.as_array())


class TestKeptSpectrum:
    """The velocity that step_momentum returns carries the derivative
    bundle of the half spectrum it was made from, taken with inverse
    transforms only: the foot points, the sample and the next right side
    read it, so no pass transforms that velocity forward again."""

    @pytest.mark.parametrize("density", [
        lambda g: ScalarField2D.full(g, 1.0), vacuum_disk_density])
    def test_seeded_and_fresh_steps_agree(self, grid, density, monkeypatch):
        rho, force = density(grid), random_force(grid, 2.0)
        u = step_momentum(rho, small_vortex(grid, 0.3), force, 1e-3)
        assert _BUNDLE in vars(u)
        copy = VectorField2D.from_arrays(grid, *u.as_array())
        calls = count_transforms(monkeypatch)
        seeded = step_momentum(rho, u, force, 1e-3)
        n_seeded = calls["rfft"]
        fresh = step_momentum(rho, copy, force, 1e-3)
        # the fresh step adds the forward transform of its velocity pass
        calls.assert_paired()
        assert calls["rfft"] - n_seeded == n_seeded + 1
        assert relative_error(seeded.as_array(), fresh.as_array()) <= 1e-13
        assert _BUNDLE not in vars(u)

    def test_bundle_is_seeded_from_the_spectrum(self, grid, monkeypatch):
        rho = vacuum_disk_density(grid)
        u = step_momentum(rho, small_vortex(grid, 0.3),
                          VectorField2D.zeros(grid), 1e-3)
        copy = VectorField2D.from_arrays(grid, *u.as_array())
        calls = count_transforms(monkeypatch)
        kept = velocity_derivatives(u)
        assert calls.calls() == 0
        fresh = velocity_derivatives(copy)
        # rfft, irfft for dx, fft, then ifft, irfft for dy
        assert calls.calls() == 5
        assert calls["rfft"] == calls["fft"] == calls["ifft"] == 1
        for a, b in zip(kept, fresh):
            assert relative_error(a, b) <= 1e-12

    def test_seeding_keeps_the_spectrum_of_the_velocity(self, grid,
                                                        monkeypatch):
        # the seed's inverse passes write into temporaries, never into the
        # kept half spectrum they are taken from, which the bundle holds
        kept = []

        def spy(grid, h):
            coeff = project_spectrum(grid, h)
            kept.append((h, h.copy()))
            return coeff

        monkeypatch.setattr(nematic2d.momentum, "project_spectrum", spy)
        u = step_momentum(vacuum_disk_density(grid), small_vortex(grid, 0.3),
                          random_force(grid, 2.0), 1e-3)
        (h, copy), = kept
        assert velocity_derivatives(u)[1] is h
        assert np.array_equal(h, copy)
        assert np.array_equal(u.as_array(), _irfft2(h, grid.nx))

    def test_a_later_sample_makes_no_velocity_transform(self, monkeypatch):
        # vacuum-bubble's director is constant and takes no transform, so
        # any transform of the sample would be the velocity's
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, scenario="vacuum-bubble")
        state = initial_state(cfg)
        mon = RunMonitors.fresh(cfg, state)
        _sample(state, cfg, mon, cfg.dt)
        state = step_once(state, cfg, cfg.dt)
        calls = count_transforms(monkeypatch)
        _sample(state, cfg, mon, cfg.dt)
        assert calls.calls() == 0

    def test_sample_takes_velocity_norms_by_parseval(self):
        # on a band-limited velocity that is not solenoidal, the sample's
        # int |grad u|^2 and ||div u|| from u_hat match the rectangle rule
        # on real-space derivatives
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, scenario="vacuum-bubble")
        state = initial_state(cfg)
        g = state.grid
        rng = np.random.default_rng(24)
        u = VectorField2D(band_limited_field(g, rng),
                          band_limited_field(g, rng))
        state = SimState(state.rho, u, state.d)
        rec = _sample(state, cfg, RunMonitors.fresh(cfg, state), cfg.dt)
        (u1x, u1y), (u2x, u2y) = (fft2_derivatives(g, c.values, 1)
                                  for c in (u.u1, u.u2))
        grad_u = integral(g, u1x**2 + u1y**2 + u2x**2 + u2y**2)
        divu = math.sqrt(integral(g, (u1x + u2y) ** 2))
        assert divu > 0.1 * math.sqrt(grad_u)
        # vacuum-bubble's director is constant, so the dissipation is
        # int |grad u|^2 alone
        assert state.d.is_constant
        assert rec.dissipation == pytest.approx(grad_u, rel=1e-12, abs=1e-15)
        assert rec.divu_res == pytest.approx(divu, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("scenario", ["vacuum-bubble", "angle-condition"])
    def test_no_forward_transform_of_a_stepped_velocity(self, scenario,
                                                        monkeypatch):
        stepped = []
        real_step = nematic2d.simulation.step_momentum

        def spy_step(*args, **kwargs):
            out = real_step(*args, **kwargs)
            stepped.append(out.as_array())
            return out

        forward = []
        for name in ("rfft2", "rfftn", "rfft", "fft2", "fftn", "fft"):
            def spy_fft(a, *args, _real=getattr(np.fft, name), **kwargs):
                forward.append(np.array(a))
                return _real(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, spy_fft)
        monkeypatch.setattr(nematic2d.simulation, "step_momentum", spy_step)
        cfg = SimConfig(nx=32, ny=32, dt=1e-3, t_end=5e-3, cadence=1,
                        scenario=scenario)
        res = simulate(cfg, write_files=False)
        assert res.summary["status"] == "completed"
        assert len(stepped) == 5 and len(res.records) == 6
        assert forward  # the right sides and the director are transformed

        def is_stepped(a):
            return any((a.shape == v.shape and np.array_equal(a, v))
                       or (a.shape == v.shape[1:]
                           and any(np.array_equal(a, c) for c in v))
                       for v in stepped)

        assert not any(is_stepped(a) for a in forward)


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
        assert ud.shape == (2,) + grid.shape
        assert np.abs(ud).max() < 1e-10

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
            errs[dt] = np.abs(ud[1] - exact).max()
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
        assert np.abs(ud[0] - exact1).max() < 4.0
        assert np.abs(ud[1] - exact2).max() < 4.0
