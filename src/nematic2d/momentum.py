"""Velocity update for variable, possibly vanishing density.

One step solves the variable-coefficient viscous system

    rho (u* - u)/dt = (lap(u*) + lap(u))/2 - rho (u . grad u) - f

by preconditioned conjugate gradients and then projects u* onto
divergence-free fields. The pressure is the projection potential; no
diagnostic reads it, so it is neither kept nor transformed back. The
operator rho/dt - lap/2 stays uniformly elliptic as rho -> 0, so vacuum
regions need no density floor. Viscosity and director mobility are fixed
at 1.

The operator splits as A = M + (rho - mean(rho))/dt with the
constant-coefficient M = mean(rho)/dt - lap/2, which the preconditioner
inverts spectrally and exactly. So M z = r holds for every preconditioned
residual, M p is carried by the recurrence M p_k = r_k + beta M p_(k-1)
(Eisenstat, SIAM J. Sci. Stat. Comput. 2, 1981), and A p needs no
transform: an iteration costs one forward and one inverse transform of the
stacked (2, ny, nx) residual. Because the recurrence can drift, the true
residual b - A x is formed once the recursive one meets the tolerance, and
CG restarts from it if it misses. A restart whose true residual is not
below the previous restart's cannot help (rounding floors the residual), so
the solve then fails at once instead of spending the iteration cap.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (ScalarField2D, VectorField2D, apply_multiplier,
                     derivative_arrays, integral, solenoidal_arrays)


class ConvergenceError(RuntimeError):
    """The conjugate gradient solve missed its tolerance within the
    iteration cap or stalled above it (e.g. an extreme density ratio or a
    tolerance below rounding); `iterations` is what it spent."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


def _pcg(apply_m, apply_minv, shift, b, tol, max_iter):
    """Preconditioned CG for A = M + shift on stacked (2, ny, nx) arrays.

    apply_m and apply_minv apply M and its exact inverse and return new
    arrays; shift is a pointwise multiplier. M p is carried by recurrence,
    so apply_minv is the only operator applied per iteration; apply_m is
    applied once per exit check of the true residual. Returns the solution,
    the iteration count and the true relative residual ||b - A x|| / ||b||.
    """
    bnorm = math.sqrt(np.vdot(b, b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0, 0.0
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
        np.subtract(b, apply_m(x), out=r)
        r -= shift * x
        residual = math.sqrt(np.vdot(r, r)) / bnorm
        if residual <= tol:
            return x, k, residual
        if residual >= last:
            raise ConvergenceError(
                f"CG stalled at residual {residual:.3g} > tol {tol:g} after "
                f"{k} iterations", k)
        last = residual


def _right_side(rv, u, force, dt):
    """rho u/dt - rho (u . grad u) - f + lap(u)/2 as a stacked (2, ny, nx)
    array; the derivative arrays are freed before the solve starts, and
    each as soon as it is used."""
    vel = u.as_array()
    dx, dy, lap = derivative_arrays(u.grid, vel, 2)
    adv = vel[0] * dx
    del dx
    adv += vel[1] * dy
    del dy
    adv *= rv
    b = (rv / dt) * vel
    b -= adv
    del adv
    lap *= 0.5
    b += lap
    b[0] -= force.u1.values
    b[1] -= force.u2.values
    return b


def step_momentum(rho: ScalarField2D, u: VectorField2D, force: VectorField2D,
                  dt: float, cg_tol: float = 1e-10, cg_max_iter: int = 500,
                  info: dict | None = None) -> VectorField2D:
    """Advance the velocity one step of size dt.

    `force` is the director body force entering the momentum balance with a
    minus sign on the right-hand side. Returns the divergence-free velocity.
    If `info` is given, it receives the CG iteration count
    (`cg_iterations`) and the true relative residual at exit
    (`cg_residual`).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    g = u.grid
    if not (rho.grid == g == force.grid):
        raise ValueError("fields live on different grids")
    rv = rho.values
    if rv.min() < 0.0:
        raise ValueError("density must be nonnegative")
    if rv.max() == 0.0:
        raise ValueError("density must not vanish identically")

    rho_bar = float(rv.mean())
    m = rho_bar / dt + 0.5 * g.k2
    minv = 1.0 / m
    # the right side is passed as a temporary, so it is freed with the solve
    star, iters, residual = _pcg(lambda a: apply_multiplier(g, a, m),
                                 lambda a: apply_multiplier(g, a, minv),
                                 (rv - rho_bar) / dt,
                                 _right_side(rv, u, force, dt), cg_tol,
                                 cg_max_iter)
    if info is not None:
        info["cg_iterations"] = iters
        info["cg_residual"] = residual
    w = solenoidal_arrays(g, star)
    return VectorField2D.from_arrays(g, w[0], w[1])


def kinetic_energy(rho: ScalarField2D, u: VectorField2D) -> float:
    """Density-weighted energy integral of rho |u|^2 over the box."""
    if rho.grid != u.grid:
        raise ValueError("fields live on different grids")
    return integral(u.grid, rho.values * (u.u1.values**2 + u.u2.values**2))


def material_derivative(u_new: VectorField2D, u_old: VectorField2D,
                        dt: float) -> VectorField2D:
    """Acceleration along particle paths: (u_new - u_old)/dt
    + u_new . grad(u_new)."""
    g = u_new.grid
    ux, uy = derivative_arrays(g, u_new.as_array())
    return VectorField2D.from_arrays(
        g, *acceleration_arrays(u_new, u_old, dt, zip(ux, uy)))


def acceleration_arrays(u_new: VectorField2D, u_old: VectorField2D, dt: float,
                        grads) -> list[np.ndarray]:
    """material_derivative as arrays, given [(dx, dy)] of u_new's components."""
    n1, n2 = u_new.u1.values, u_new.u2.values
    return [(c.values - c0.values) / dt + (n1 * gx + n2 * gy)
            for c, c0, (gx, gy) in zip((u_new.u1, u_new.u2),
                                       (u_old.u1, u_old.u2), grads)]
