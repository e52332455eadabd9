"""Shared test utilities: random smooth fields and independent oracles."""

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from nematic2d import (DirectorField2D, ScalarField2D, VectorField2D,
                       director_grad_l2_sq, director_norms, kinetic_energy,
                       velocity_from_stream, velocity_grad_l2_sq)
from nematic2d.fields import apply_multiplier, gradient_integral
from nematic2d.scenarios import _orthonormal_to, _smooth_step, _stereographic


# every transform numpy.fft offers, so that a call routed through any of
# them is counted
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
                 "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn")


class TransformCounter(Counter):
    """numpy.fft calls under each function's name. fields makes every
    transform from 1-D passes: x-passes (rfft, irfft) and y-passes (fft,
    ifft); a stacked call is one call."""

    @property
    def x_passes(self) -> int:
        return self["rfft"] + self["irfft"]

    @property
    def y_passes(self) -> int:
        return self["fft"] + self["ifft"]

    def assert_paired(self) -> None:
        """Every forward y-pass follows an x-pass (fft == rfft), and no
        inverse y-pass goes without an inverse x-pass (ifft <= irfft); an
        inverse x-pass alone is a derivative along x."""
        assert (self["fft"] == self["rfft"]
                and self["ifft"] <= self["irfft"]), dict(self)

    def calls(self) -> int:
        """numpy.fft calls made so far, their passes paired."""
        self.assert_paired()
        return sum(self.values())


def count_transforms(monkeypatch) -> TransformCounter:
    """Counter of the numpy.fft calls made from now until the monkeypatch
    is undone. numpy's 2-D transforms call the n-D and 1-D ones inside
    numpy.fft's own module, so each call counts once, under its own
    name."""
    calls = TransformCounter()
    for name in FFT_FUNCTIONS:
        def counted(*args, _real=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def band_limited_field(grid, rng, kmax=4, amplitude=1.0):
    """Random real periodic field with modes only up to |k| <= kmax."""
    fx = np.fft.fftfreq(grid.nx) * grid.nx
    fy = np.fft.fftfreq(grid.ny) * grid.ny
    keep = (np.abs(fx)[None, :] <= kmax) & (np.abs(fy)[:, None] <= kmax)
    spec = (rng.standard_normal(grid.shape)
            + 1j * rng.standard_normal(grid.shape)) * keep
    vals = np.fft.ifft2(spec).real
    peak = np.abs(vals).max()
    if peak > 0:
        vals *= amplitude / peak
    return ScalarField2D(grid, vals)


def solenoidal_field(grid, rng, kmax=3, amplitude=1.0):
    """Random divergence-free velocity from a band-limited stream function."""
    psi = band_limited_field(grid, rng, kmax=kmax)
    u = velocity_from_stream(psi)
    peak = np.hypot(u.u1.values, u.u2.values).max()
    s = amplitude / peak if peak > 0 else 0.0
    return VectorField2D.from_arrays(grid, s * u.u1.values, s * u.u2.values)


def random_unit_director(grid, rng, kmax=3, amplitude=0.6):
    """Smooth unit director: stereographic lift of a random complex field."""
    wr = band_limited_field(grid, rng, kmax=kmax, amplitude=amplitude).values
    wi = band_limited_field(grid, rng, kmax=kmax, amplitude=amplitude).values
    wsq = wr**2 + wi**2
    den = 1.0 + wsq
    return DirectorField2D.from_arrays(grid, 2.0 * wr / den, 2.0 * wi / den,
                                       (1.0 - wsq) / den)


def circle_director(grid, angle_values):
    """Equator-valued director (cos(a), sin(a), 0) from an angle array."""
    return DirectorField2D.from_arrays(grid, np.cos(angle_values),
                                       np.sin(angle_values),
                                       np.zeros(grid.shape))


def rotation_matrix(axis, angle):
    """Rodrigues rotation about a unit axis."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def rotate_director(d, R):
    arr = d.as_array()
    out = np.einsum("ij,jyx->iyx", R, arr)
    return DirectorField2D.from_arrays(d.grid, out[0], out[1], out[2])


# Catmull-Rom spline in matrix form: p(t) = [1, t, t^2, t^3] C [p-1, p0, p1,
# p2] for t in [0, 1) between p0 and p1
CATMULL_ROM = 0.5 * np.array([[0.0, 2.0, 0.0, 0.0],
                              [-1.0, 0.0, 1.0, 0.0],
                              [2.0, -5.0, 4.0, -1.0],
                              [-1.0, 3.0, -3.0, 1.0]])


def catmull_rom_read(values, ix, iy):
    """Unlimited periodic bicubic Catmull-Rom read of values (ny, nx) at
    fractional index coordinates, node by node; an oracle of the
    interpolant that transport.sample_bicubic limits."""
    ny, nx = values.shape
    i0, j0 = np.floor(ix), np.floor(iy)

    def weights(t):
        powers = np.stack([np.ones_like(t), t, t * t, t * t * t], axis=-1)
        return powers @ CATMULL_ROM  # (..., 4): one weight per node

    wx, wy = weights(ix - i0), weights(iy - j0)
    i0, j0 = i0.astype(int), j0.astype(int)
    out = np.zeros(np.shape(ix))
    for a in range(4):
        for b in range(4):
            node = values[(j0 - 1 + a) % ny, (i0 - 1 + b) % nx]
            out += wy[..., a] * wx[..., b] * node
    return out


def fd_gradient(values, dx, dy):
    """Second-order central differences on the periodic grid; independent
    of the spectral path."""
    gx = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2 * dx)
    gy = (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2 * dy)
    return gx, gy


def fd_laplacian(values, dx, dy):
    return ((np.roll(values, -1, axis=1) - 2 * values
             + np.roll(values, 1, axis=1)) / dx**2
            + (np.roll(values, -1, axis=0) - 2 * values
               + np.roll(values, 1, axis=0)) / dy**2)


def basic_energy(rho, u, d):
    """Total energy int(rho |u|^2 + |grad d|^2) and the dissipation rate
    int(|grad u|^2 + |tension|^2), summed from the package's norms."""
    return (kinetic_energy(rho, u) + director_grad_l2_sq(d),
            velocity_grad_l2_sq(u) + director_norms(d).tension_l2_sq)


def ericksen_tensor(d):
    """Elastic stress M = grad(d) (x) grad(d) - |grad d|^2/2 I as the arrays
    (m11, m12, m22); M is symmetric and trace-free."""
    grads = [fft2_derivatives(d.grid, c.values, 1) for c in d.components]
    gsq = sum(gx * gx + gy * gy for gx, gy in grads)
    m11 = sum(gx * gx for gx, _ in grads) - 0.5 * gsq
    m12 = sum(gx * gy for gx, gy in grads)
    return m11, m12, -m11


def stress_divergence(grid, m11, m12, m22):
    """Row-wise divergence (d1 m11 + d2 m12, d1 m12 + d2 m22)."""
    (d1m11, _), (d1m12, d2m12), (_, d2m22) = (
        fft2_derivatives(grid, m, 1) for m in (m11, m12, m22))
    return VectorField2D.from_arrays(grid, d1m11 + d2m12, d1m12 + d2m22)


# Complex fft2 oracles of the spectral layer, on the full (ny, nx) spectrum;
# the package itself works on the rfft2 half spectrum.

def full_wavenumbers(grid):
    """(kx, ky, k2) on the full fft2 layout; kx and ky have their Nyquist
    entries zeroed, k2 keeps them."""
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.dy)
    k2 = (kx**2)[None, :] + (ky**2)[:, None]
    kx[grid.nx // 2] = 0.0
    ky[grid.ny // 2] = 0.0
    return kx[None, :], ky[:, None], k2


def fft2_multiplier(a, m):
    """Real part of the inverse fft2 of m times the fft2 of a."""
    return np.fft.ifft2(m * np.fft.fft2(a)).real


def fft2_derivatives(grid, a, order):
    """[dx a, dy a], then lap a at order 2."""
    kx, ky, k2 = full_wavenumbers(grid)
    out = [fft2_multiplier(a, 1j * kx), fft2_multiplier(a, 1j * ky)]
    if order >= 2:
        out.append(fft2_multiplier(a, -k2))
    return out


def fft2_project(grid, a1, a2):
    """Helmholtz split (w1, w2, phi) of a = w + grad(phi)."""
    kx, ky, _ = full_wavenumbers(grid)
    v1h, v2h = np.fft.fft2(a1), np.fft.fft2(a2)
    ksq = kx**2 + ky**2
    coeff = np.where(ksq == 0.0, 0.0, (kx * v1h + ky * v2h)
                     / np.where(ksq == 0.0, 1.0, ksq))
    return (np.fft.ifft2(v1h - kx * coeff).real,
            np.fft.ifft2(v2h - ky * coeff).real,
            np.fft.ifft2(-1j * coeff).real)


def fft2_tail_fraction(grid, values, cut):
    """Share of the non-mean power |fft2|^2 above cut times the Nyquist
    wavenumber in either direction."""
    power = np.abs(np.fft.fft2(values)) ** 2
    power[0, 0] = 0.0
    ix = np.abs(np.fft.fftfreq(grid.nx) * 2.0)[None, :]
    iy = np.abs(np.fft.fftfreq(grid.ny) * 2.0)[:, None]
    return power[(ix > cut) | (iy > cut)].sum() / power.sum()


def constant_density_step(rho, u, force, dt):
    """Real-space reference of step_momentum at a constant density: the
    solenoidal part of M^-1 (rho u/dt - rho (u . grad)u - f + lap(u)/2)
    with M = rho/dt - lap/2, every operator on the full fft2 layout."""
    g = u.grid
    rv = rho.values
    minv = 1.0 / (rv.max() / dt + 0.5 * full_wavenumbers(g)[2])
    u1, u2 = u.u1.values, u.u2.values
    rows = []
    for c, f in ((u1, force.u1.values), (u2, force.u2.values)):
        cx, cy, lap = fft2_derivatives(g, c, 2)
        b = (rv / dt) * c - rv * (u1 * cx + u2 * cy) - f + 0.5 * lap
        rows.append(fft2_multiplier(b, minv))
    return np.stack(fft2_project(g, *rows)[:2])


# Textbook preconditioned CG and the momentum system it solves, as an oracle
# of step_momentum's solve: A is applied with a transform per component, and
# M p is never carried by recurrence.

def reference_pcg(apply_a, apply_minv, b, tol, max_iter):
    """Standard preconditioned CG on stacked (2, ny, nx) arrays; returns the
    solution and the iteration count, or raises RuntimeError."""
    bnorm = np.sqrt(np.sum(b * b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0
    r = b.copy()
    z = apply_minv(r)
    p = z.copy()
    rz = np.sum(r * z)
    for k in range(1, max_iter + 1):
        ap = apply_a(p)
        alpha = rz / np.sum(p * ap)
        x += alpha * p
        r -= alpha * ap
        if np.sqrt(np.sum(r * r)) <= tol * bnorm:
            return x, k
        z = apply_minv(r)
        rz_new = np.sum(r * z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(f"CG missed tol {tol:g} after {max_iter} iterations")


def momentum_system(rho, u, force, dt):
    """(apply_a, apply_minv, b) of the viscous step rho/dt - lap/2, with
    the right-hand side assembled one component at a time."""
    g = u.grid
    rv = rho.values
    a = rv / dt
    u1, u2 = u.u1.values, u.u2.values
    rows = []
    for c, f in ((u1, force.u1.values), (u2, force.u2.values)):
        cx, cy, lap = fft2_derivatives(g, c, 2)
        rows.append(a * c - rv * (u1 * cx + u2 * cy) - f + 0.5 * lap)
    half_k2 = 0.5 * g.k2
    minv = 1.0 / (rv.mean() / dt + half_k2)

    def apply_a(w):
        return np.stack([a * c + apply_multiplier(g, c, half_k2) for c in w])

    def apply_minv(r):
        return np.stack([apply_multiplier(g, c, minv) for c in r])

    return apply_a, apply_minv, np.stack(rows)


# Batch form of the higher-order energy, an oracle of the run's incremental
# phi accumulation (a SampleIntegral).

@dataclass(frozen=True)
class PhiSample:
    """One cadence sample of the higher-order energy ingredients, for the
    batch reference phi_functional. Time derivatives are backward
    differences against the previous sample and vanish by convention on the
    first one."""

    t: float
    grad_u_l2_sq: float
    grad_d_h1_sq: float       # ||grad d||^2 + ||hess d||^2
    rho_udot_l2_sq: float     # int rho |udot|^2
    dt_d_h1_sq: float         # ||d_t||^2 + ||grad d_t||^2
    hess_d_h1_sq: float       # ||hess d||^2 + ||third derivs||^2


def phi_functional(samples):
    """e + sup over samples of (||grad u||^2 + ||grad d||_{H1}^2) plus the
    trapezoid-in-time integral of the dissipation-order terms."""
    if not samples:
        return math.e
    sup = max(s.grad_u_l2_sq + s.grad_d_h1_sq for s in samples)
    acc = 0.0
    for a, b in zip(samples, samples[1:]):
        ga = a.rho_udot_l2_sq + a.dt_d_h1_sq + a.hess_d_h1_sq
        gb = b.rho_udot_l2_sq + b.dt_d_h1_sq + b.hess_d_h1_sq
        acc += 0.5 * (ga + gb) * (b.t - a.t)
    return math.e + sup + acc


# The scenario builders' formulas on coordinate meshgrids, as references:
# the package builds the same values from 1-D factors, and must match them
# bitwise.

def meshgrid_radius(grid):
    """Distance from the box center."""
    X, Y = grid.meshgrid()
    return np.sqrt((X - grid.lx / 2.0) ** 2 + (Y - grid.ly / 2.0) ** 2)


def meshgrid_vortex(grid, sigma, peak_speed):
    """The Gaussian stream-function vortex, peak |u| = peak_speed."""
    r = meshgrid_radius(grid)
    psi = ScalarField2D(grid, np.exp(-r**2 / (2.0 * sigma**2)))
    u = velocity_from_stream(psi)
    mag = np.hypot(u.u1.values, u.u2.values).max()
    if mag == 0.0 or peak_speed == 0.0:
        return VectorField2D.zeros(grid)
    s = peak_speed / mag
    return VectorField2D.from_arrays(grid, s * u.u1.values, s * u.u2.values)


def meshgrid_winding_patch(grid, sigma_frac, w_max):
    """The degree-one stereographic patch, max |w| = w_max (1 - 1e-12)."""
    s = sigma_frac * math.pi * math.sqrt(2.0)
    X, Y = grid.meshgrid()
    xt = (X - grid.lx / 2.0) / grid.lx
    yt = (Y - grid.ly / 2.0) / grid.ly
    env = np.exp(-(np.sin(np.pi * xt) ** 2 + np.sin(np.pi * yt) ** 2) / s**2)
    wr = np.sin(2.0 * np.pi * xt) * env
    wi = np.sin(2.0 * np.pi * yt) * env
    c = w_max / np.sqrt(wr**2 + wi**2).max() * (1.0 - 1e-12)
    return _stereographic(grid, c * wr, c * wi)


def meshgrid_scenario(name, params, grid, rho_bar, e):
    """(rho, u, d) of make_scenario(name, params, grid, rho_bar, e) from
    the meshgrid formulas, for parameters make_scenario accepts; e is a
    unit vector."""
    e = np.asarray(e, dtype=float)
    L = min(grid.lx, grid.ly)
    if name == "vacuum-bubble":
        r0 = params.get("r0_frac", 0.12) * L
        r1 = params.get("r1_frac", 0.30) * L
        r = meshgrid_radius(grid)
        rho = ScalarField2D(grid, rho_bar * _smooth_step((r - r0) / (r1 - r0)))
        u = meshgrid_vortex(grid, params.get("vortex_sigma_frac", 0.12) * L,
                            params.get("vortex_amp", 0.3))
        return rho, u, DirectorField2D.constant(grid, e)
    if name == "small-director":
        r = meshgrid_radius(grid)
        blob = np.exp(-r**2 / (2.0 * (0.15 * L) ** 2))
        rho = ScalarField2D(grid, rho_bar * (1.0 + params.get(
            "rho_blob_amp", 0.5) * blob))
        p = _orthonormal_to(e)
        sig_t = params.get("theta_sigma_frac", 0.1) * L
        theta = np.exp(-r**2 / (2.0 * sig_t**2))
        # |grad d|^2 = |grad theta|^2, so theta is scaled by its own
        # gradient integral
        measured = gradient_integral(grid, np.fft.rfft2(theta))
        if measured > 0.0:
            theta = theta * math.sqrt(
                params.get("grad_d_sq_target", 0.005) / measured)
        d = DirectorField2D.from_arrays(
            grid, *(np.cos(theta) * e[i] + np.sin(theta) * p[i]
                    for i in range(3)))
        u = meshgrid_vortex(grid, params.get("vortex_sigma_frac", 0.12) * L,
                            1.0)
        ke = kinetic_energy(rho, u)
        s = (math.sqrt(params.get("ke_target", 1.0) / ke) if ke > 0.0
             else 0.0)
        return (rho, VectorField2D.from_arrays(grid, s * u.u1.values,
                                               s * u.u2.values), d)
    if name in ("angle-condition", "supercritical"):
        if name == "angle-condition":
            eps = params.get("epsilon", 0.5)
            w_max = math.sqrt((1.0 - eps) / (1.0 + eps))
            amp = params.get("vortex_amp", 0.5)
        else:
            w_max = params.get("w_max", 3.0)
            amp = params.get("vortex_amp", 1.0)
        d = meshgrid_winding_patch(grid, params.get("sigma_frac", 0.10),
                                   w_max)
        return (ScalarField2D.full(grid, rho_bar),
                meshgrid_vortex(grid, 0.12 * L, amp), d)
    if name == "taylor-green":
        amp = params.get("amplitude", 1.0)
        X, Y = grid.meshgrid()
        u = VectorField2D.from_arrays(
            grid,
            amp * np.sin(2.0 * np.pi * X / grid.lx)
                * np.cos(2.0 * np.pi * Y / grid.ly),
            -amp * (grid.ly / grid.lx) * np.cos(2.0 * np.pi * X / grid.lx)
                 * np.sin(2.0 * np.pi * Y / grid.ly))
        return (ScalarField2D.full(grid, rho_bar), u,
                DirectorField2D.constant(grid, e))
    assert name == "rest", name
    return (ScalarField2D.full(grid, rho_bar), VectorField2D.zeros(grid),
            DirectorField2D.constant(grid, e))
