"""Shared test utilities: random smooth fields and independent oracles."""

import numpy as np

from nematic2d import (DirectorField2D, ScalarField2D, VectorField2D,
                       director_grad_l2_sq, kinetic_energy, tension_l2_sq,
                       velocity_from_stream, velocity_grad_l2_sq)
from nematic2d.fields import grad_arrays


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
            velocity_grad_l2_sq(u) + tension_l2_sq(d))


def ericksen_tensor(d):
    """Elastic stress M = grad(d) (x) grad(d) - |grad d|^2/2 I as the arrays
    (m11, m12, m22); M is symmetric and trace-free."""
    grads = [grad_arrays(d.grid, c.values) for c in d.components]
    gsq = sum(gx * gx + gy * gy for gx, gy in grads)
    m11 = sum(gx * gx for gx, _ in grads) - 0.5 * gsq
    m12 = sum(gx * gy for gx, gy in grads)
    return m11, m12, -m11


def stress_divergence(grid, m11, m12, m22):
    """Row-wise divergence (d1 m11 + d2 m12, d1 m12 + d2 m22)."""
    (d1m11, _), (d1m12, d2m12), (_, d2m22) = (
        grad_arrays(grid, m) for m in (m11, m12, m22))
    return VectorField2D.from_arrays(grid, d1m11 + d2m12, d1m12 + d2m22)
