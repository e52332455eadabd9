"""Velocity update for variable, possibly vanishing density.

One step solves the variable-coefficient viscous system

    rho (u* - u)/dt = (lap(u*) + lap(u))/2 - rho (u . grad u) - f

and projects u* onto divergence-free fields. The pressure is the projection
potential; no diagnostic reads it, so it is neither kept nor transformed
back. The operator rho/dt - lap/2 stays uniformly elliptic as rho -> 0, so
vacuum regions need no density floor. Viscosity and director mobility are
fixed at 1.

step_momentum assembles one right side, whatever the density, from u's
bundle (u.derivatives: (u . grad)u and u_hat), which it then releases:
b_phys = rho u/dt - rho (u . grad)u - f and b_hat = -k^2 u_hat/2. `solve`
solves (rho/tau - lap/2) x = b_phys + F^-1[b_hat], tau = dt, and projects
x's half spectrum. The operator splits as A = M + (rho - mean(rho))/tau
with the constant-coefficient M = mean(rho)/tau - lap/2, which is inverted
spectrally and exactly. A constant rho has A = M: solve divides
F[b_phys] + b_hat by M's multiplier, with one forward transform, no
inverse and no conjugate gradients. Otherwise preconditioned conjugate
gradients solve A x = b_phys + F^-1[b_hat]. M z = r holds for every
preconditioned residual, M p is carried by the recurrence
M p_k = r_k + beta M p_(k-1) (Eisenstat, SIAM J. Sci. Stat. Comput. 2,
1981), and A p needs no transform: an iteration costs one forward and one
inverse transform of the stacked (2, ny, nx) residual. Because the
recurrence can drift, the true residual b - A x is formed once the
recursive one meets the tolerance, and CG restarts from it if it misses. A
restart whose true residual is not below the previous restart's cannot help
(rounding floors the residual), so the solve then fails at once instead of
spending the iteration cap. CG returns the half spectrum its exit check
transformed.

The new velocity and its bundle come from solve's half spectrum
(VectorField2D.from_spectrum, inverse passes only). The next step's foot
points, the sample and the next momentum step read the bundle, and that
step releases it, so no stage transforms a stepped velocity forward again
and (u . grad)u is formed once per velocity.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (ScalarField2D, VectorField2D, apply_multiplier,
                     half_spectrum, integral, project_spectrum, real_array,
                     release)


class ConvergenceError(RuntimeError):
    """The conjugate gradient solve missed its tolerance within the
    iteration cap or stalled above it (e.g. an extreme density ratio or a
    tolerance below rounding); `iterations` is what it spent."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


def _pcg(grid, m, apply_minv, shift, b, tol, max_iter):
    """Preconditioned CG for A = M + shift on stacked (2, ny, nx) arrays.

    M is the multiplier m on grid's half spectrum, apply_minv applies its
    exact inverse and returns a new array, and shift is pointwise. M p is
    carried by recurrence, so apply_minv is the only operator applied per
    iteration; M is applied once per exit check of the true residual, to
    the half spectrum of x. Returns that half spectrum, the iteration count
    and the true relative residual ||b - A x|| / ||b||.
    """
    bnorm = math.sqrt(np.vdot(b, b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return half_spectrum(x), 0, 0.0
    r = b.copy()
    k = 0
    last = math.inf  # true residual at the previous restart
    # p, mp and ap are freed while the true residual is formed, so that the
    # transforms' temporaries take their place; a restart rebuilds them
    while True:  # one pass per (re)start from the true residual r
        p = apply_minv(r)
        mp = r.copy()
        ap = np.empty_like(b)  # A p, then scratch for alpha p
        rz = np.vdot(r, p)
        while True:
            if k == max_iter:
                raise ConvergenceError(
                    f"CG missed tol {tol:g} after {max_iter} iterations",
                    max_iter)
            k += 1
            np.multiply(shift, p, out=ap)
            ap += mp
            alpha = rz / np.vdot(p, ap)
            ap *= alpha
            r -= ap
            x += np.multiply(p, alpha, out=ap)
            if math.sqrt(np.vdot(r, r)) <= tol * bnorm:
                break
            z = apply_minv(r)
            rz_new = np.vdot(r, z)
            beta = rz_new / rz
            rz = rz_new
            p *= beta
            p += z
            mp *= beta
            mp += r
        p = mp = ap = None
        h = half_spectrum(x)
        np.subtract(b, real_array(grid, h, m), out=r)
        r -= shift * x
        residual = math.sqrt(np.vdot(r, r)) / bnorm
        if residual <= tol:
            return h, k, residual
        if residual >= last:
            raise ConvergenceError(
                f"CG stalled at residual {residual:.3g} > tol {tol:g} after "
                f"{k} iterations", k)
        last = residual


def advection(u: VectorField2D) -> np.ndarray:
    """(u . grad)u as a stacked (2, ny, nx) array: the read-only array of
    u's bundle (u.derivatives), which readers must not write into."""
    return u.derivatives[0]


def solve(rho: ScalarField2D, tau: float, b_phys: np.ndarray,
          b_hat: np.ndarray, cg_tol: float, cg_max_iter: int):
    """(h, iterations, residual): h the projected half spectrum of the x
    with (rho/tau - lap/2) x = b_phys + F^-1[b_hat], b_phys stacked
    (2, ny, nx) and b_hat its half spectrum layout, both handed over. A
    constant rho is solved directly, h = (F[b_phys] + b_hat) /
    (rho/tau + k^2/2), with 0 iterations and residual 0.0; any other by
    _pcg on b_phys + F^-1[b_hat], with its iterations and true residual."""
    g = rho.grid
    rv = rho.values
    if rho.is_constant:
        # b_hat's buffer is kept as h: keeping the transform of b_phys
        # instead put the peak heap of a 256^2 run 1 MiB higher (glibc)
        h = b_hat
        h += half_spectrum(b_phys)
        h /= rv[0, 0] / tau + 0.5 * g.k2
        iters, residual = 0, 0.0
    else:
        b_phys += real_array(g, b_hat)
        del b_hat
        rho_bar = float(rv.mean())
        m = rho_bar / tau + 0.5 * g.k2
        minv = 1.0 / m
        h, iters, residual = _pcg(
            g, m, lambda a: apply_multiplier(g, a, minv), (rv - rho_bar) / tau,
            b_phys, cg_tol, cg_max_iter)
    project_spectrum(g, h)
    return h, iters, residual


def step_momentum(rho: ScalarField2D, u: VectorField2D, force: VectorField2D,
                  dt: float, cg_tol: float = 1e-10, cg_max_iter: int = 500,
                  info: dict | None = None) -> VectorField2D:
    """Advance the velocity one step of size dt.

    `force` is the director body force entering the momentum balance with a
    minus sign on the right-hand side. Returns the divergence-free velocity,
    with its derivative bundle seeded from the half spectrum `solve`
    returned. If `info` is given, it receives the CG iteration count
    (`cg_iterations`) and the true relative residual at exit
    (`cg_residual`); 0 and 0.0 mean the direct solve of a constant density.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    g = u.grid
    if not (rho.grid == g == force.grid):
        raise ValueError("fields live on different grids")
    rv = rho.values
    if rv.min() < 0.0:
        raise ValueError("density must be nonnegative")
    if rv.max() == 0.0:
        raise ValueError("density must not vanish identically")

    # b_phys = rho (u/dt - (u . grad)u) - f per component into one buffer,
    # freed before the new velocity is made; b_hat = -k^2 u_hat/2
    b = np.empty((2,) + g.shape)
    adv = advection(u)
    for k, (uk, fk) in enumerate(zip(u.components, force.components)):
        np.divide(uk.values, dt, out=b[k])
        b[k] -= adv[k]
        b[k] *= rv
        b[k] -= fk.values
    del adv
    h, iters, residual = solve(rho, dt, b, -0.5 * g.k2 * release(u)[1],
                               cg_tol, cg_max_iter)
    del b
    if info is not None:
        info["cg_iterations"] = iters
        info["cg_residual"] = residual
    return VectorField2D.from_spectrum(g, h)


def kinetic_energy(rho: ScalarField2D, u: VectorField2D) -> float:
    """Density-weighted energy integral of rho |u|^2 over the box."""
    if rho.grid != u.grid:
        raise ValueError("fields live on different grids")
    return integral(u.grid, rho.values * (u.u1.values**2 + u.u2.values**2))


def material_derivative(u_new: VectorField2D, u_old: VectorField2D,
                        dt: float) -> np.ndarray:
    """Acceleration along particle paths, (u_new - u_old)/dt
    + u_new . grad(u_new), as a stacked (2, ny, nx) array, with the
    advection from u_new's bundle. Not checked for finiteness: the
    diagnostics sample that reads it validates its record instead."""
    a = (u_new.as_array() - u_old.as_array()) / dt
    a += advection(u_new)
    return a
