"""Velocity update for variable, possibly vanishing density.

One step solves the variable-coefficient viscous system

    rho (u* - u)/dt = (lap(u*) + lap(u))/2 - rho (u . grad u) - f

and projects u* onto divergence-free fields. The pressure is the projection
potential; no diagnostic reads it, so it is neither kept nor transformed
back. The operator rho/dt - lap/2 stays uniformly elliptic as rho -> 0, so
vacuum regions need no density floor. Viscosity and director mobility are
fixed at 1.

The operator splits as A = M + (rho - mean(rho))/dt with the
constant-coefficient M = mean(rho)/dt - lap/2, which is inverted spectrally
and exactly. When rho is constant, A = M and the whole step is taken in
spectral space, from the half spectrum u_hat that u's bundle keeps: with
c = rho/dt, b_hat = (c - k^2/2) u_hat - F[rho (u . grad)u + f], then
u_hat+ = P(b_hat / (c + k^2/2)), with one forward transform, no inverse,
no conjugate gradients and no residual check. Otherwise preconditioned
conjugate gradients solve A u* = b. M z = r holds for every
preconditioned residual, M p is carried by the recurrence
M p_k = r_k + beta M p_(k-1) (Eisenstat, SIAM J. Sci. Stat. Comput. 2,
1981), and A p needs no transform: an iteration costs one forward and one
inverse transform of the stacked (2, ny, nx) residual. Because the
recurrence can drift, the true residual b - A x is formed once the
recursive one meets the tolerance, and CG restarts from it if it misses. A
restart whose true residual is not below the previous restart's cannot help
(rounding floors the residual), so the solve then fails at once instead of
spending the iteration cap. The solve returns the half spectrum its exit
check transformed.

Either way step_momentum projects a half spectrum, at one call site, and
seeds the new velocity's derivative bundle (velocity_derivatives:
(u . grad)u and u_hat) from it with inverse passes only; one y-pass serves
both u and dx u (fields.values_and_gradient). The next step's foot points,
the diagnostics sample and the next momentum step read the bundle, and
that step drops it, so no stage transforms a stepped velocity forward
again and (u . grad)u is formed once per velocity.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (ScalarField2D, VectorField2D, apply_multiplier,
                     gradient_and_spectrum, half_spectrum, integral,
                     project_spectrum, real_array, values_and_gradient)

# attribute under which a VectorField2D keeps its derivative bundle
_BUNDLE = "_derivatives"


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


def velocity_derivatives(u: VectorField2D) -> list[np.ndarray]:
    """[(u . grad)u, u_hat]: u's derivative bundle, memoized on u, with
    (u . grad)u stacked (2, ny, nx) and u_hat the stacked (2, ny, nx//2 + 1)
    half spectrum of u. A VectorField2D is frozen and its values are
    read-only, so the bundle cannot go stale.

    step_momentum seeds it on the velocity it returns from the half
    spectrum it holds; a velocity without one, such as an initial velocity
    or one read from a snapshot, gets u_hat and the gradient from one
    forward transform (fields.gradient_and_spectrum) on first request.
    Either way u1 dx u + u2 dy u is formed once and the gradient is not
    kept. The foot points, the diagnostics sample and the next momentum
    step read the bundle, and that step, its last reader, drops it. Its
    arrays are stored read-only, so no reader can write into them.
    """
    bundle = vars(u).get(_BUNDLE)
    if bundle is None:
        bundle = _keep(u, *gradient_and_spectrum(u.grid, u.as_array()))
    return bundle


def _keep(u, dx, dy, h):
    """Memoize [(u . grad)u, h] on u, read-only, forming (u . grad)u in dx
    (and writing into dy); returns the bundle."""
    dx *= u.u1.values
    dx += np.multiply(u.u2.values, dy, out=dy)
    dx.setflags(write=False)
    h.setflags(write=False)
    bundle = [dx, h]
    object.__setattr__(u, _BUNDLE, bundle)
    return bundle


def advection(u: VectorField2D) -> np.ndarray:
    """(u . grad)u as a stacked (2, ny, nx) array: the read-only array of
    u's bundle, which readers must not write into."""
    return velocity_derivatives(u)[0]


def _right_side(rv, u, force, dt):
    """rho u/dt - rho (u . grad u) - f + lap(u)/2 as a stacked (2, ny, nx)
    array, lap(u)/2 from the bundle's half spectrum. u's bundle is dropped
    once read, so the solve starts without it, and each array is freed as
    soon as it is used."""
    b = (rv / dt) * u.as_array()
    b -= rv * advection(u)
    b += real_array(u.grid, vars(u).pop(_BUNDLE)[1], -0.5 * u.grid.k2)
    b[0] -= force.u1.values
    b[1] -= force.u2.values
    return b


def _spectral_step(rho, u, force, dt):
    """Unprojected half spectrum of the step at the constant density rho,
    ((c - k^2/2) u_hat - F[rho (u . grad)u + f]) / (c + k^2/2) with
    c = rho/dt, from one forward transform; drops u's bundle once read."""
    g = u.grid
    r = rho * advection(u)
    r[0] += force.u1.values
    r[1] += force.u2.values
    h = half_spectrum(r)
    del r
    c, half_k2 = rho / dt, 0.5 * g.k2
    np.subtract((c - half_k2) * vars(u).pop(_BUNDLE)[1], h, out=h)
    h /= c + half_k2
    return h


def step_momentum(rho: ScalarField2D, u: VectorField2D, force: VectorField2D,
                  dt: float, cg_tol: float = 1e-10, cg_max_iter: int = 500,
                  info: dict | None = None) -> VectorField2D:
    """Advance the velocity one step of size dt.

    `force` is the director body force entering the momentum balance with a
    minus sign on the right-hand side. Returns the divergence-free velocity,
    with its derivative bundle (velocity_derivatives) seeded from the half
    spectrum it was made from, with inverse passes only. If `info` is
    given, it receives the CG iteration count (`cg_iterations`) and the
    true relative residual at exit (`cg_residual`). A constant density
    (rho.is_constant) is stepped in spectral space, without CG: 0
    iterations and residual 0.0 mean that direct step. (u . grad)u and
    u_hat come from u's bundle, which the step drops before the solve.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    g = u.grid
    if not (rho.grid == g == force.grid):
        raise ValueError("fields live on different grids")
    rv = rho.values
    lo, hi = rv.min(), rv.max()
    if lo < 0.0:
        raise ValueError("density must be nonnegative")
    if hi == 0.0:
        raise ValueError("density must not vanish identically")

    if rho.is_constant:
        h = _spectral_step(hi, u, force, dt)
        iters, residual = 0, 0.0
    else:
        rho_bar = float(rv.mean())
        m = rho_bar / dt + 0.5 * g.k2
        minv = 1.0 / m
        # the right side is passed as a temporary, so it is freed with the
        # solve
        h, iters, residual = _pcg(
            g, m, lambda a: apply_multiplier(g, a, minv), (rv - rho_bar) / dt,
            _right_side(rv, u, force, dt), cg_tol, cg_max_iter)
    project_spectrum(g, h)
    if info is not None:
        info["cg_iterations"] = iters
        info["cg_residual"] = residual
    w, dx, dy = values_and_gradient(g, h)
    out = VectorField2D.from_arrays(g, w[0], w[1])
    _keep(out, dx, dy, h)
    return out


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
