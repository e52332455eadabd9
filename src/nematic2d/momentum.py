"""Velocity update for variable, possibly vanishing density.

One step solves the variable-coefficient viscous system

    rho (u* - u)/dt = (lap(u*) + lap(u))/2 - rho (u . grad u) - f

by preconditioned conjugate gradients and then projects u* onto
divergence-free fields. The pressure is the projection potential; no
diagnostic reads it, so it is not kept. The operator rho/dt - lap/2 stays
uniformly elliptic as rho -> 0, so vacuum regions need no density floor.
Viscosity and director mobility are fixed at 1.
"""

from __future__ import annotations

import numpy as np

from .fields import (ScalarField2D, VectorField2D, apply_multiplier,
                     derivative_arrays, integral, project_arrays)


class ConvergenceError(RuntimeError):
    """The conjugate gradient solve missed its tolerance within the
    iteration cap (e.g. an extreme density ratio)."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations


def _pcg(apply_a, apply_minv, b, tol, max_iter):
    """Standard preconditioned CG on stacked (2, ny, nx) arrays."""
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
    raise ConvergenceError(f"CG missed tol {tol:g} after {max_iter} iterations",
                           max_iter)


def step_momentum(rho: ScalarField2D, u: VectorField2D, force: VectorField2D,
                  dt: float, cg_tol: float = 1e-10, cg_max_iter: int = 500,
                  info: dict | None = None) -> VectorField2D:
    """Advance the velocity one step of size dt.

    `force` is the director body force entering the momentum balance with a
    minus sign on the right-hand side. Returns the divergence-free velocity.
    The preconditioner inverts the constant-coefficient operator
    mean(rho)/dt - lap/2 spectrally.
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

    a = rv / dt
    rho_bar = float(rv.mean())
    u1, u2 = u.u1.values, u.u2.values
    rows = []
    for c, f in ((u1, force.u1.values), (u2, force.u2.values)):
        cx, cy, lap = derivative_arrays(g, c, 2)
        rows.append(a * c - rv * (u1 * cx + u2 * cy) - f + 0.5 * lap)
    b = np.stack(rows)

    half_k2 = 0.5 * g.k2
    minv = 1.0 / (rho_bar / dt + half_k2)

    def apply_a(w):
        return np.stack([a * c + apply_multiplier(g, c, half_k2) for c in w])

    def apply_minv(r):
        return np.stack([apply_multiplier(g, c, minv) for c in r])

    star, iters = _pcg(apply_a, apply_minv, b, cg_tol, cg_max_iter)
    if info is not None:
        info["cg_iterations"] = iters
    w1, w2, _ = project_arrays(g, star[0], star[1])
    return VectorField2D.from_arrays(g, w1, w2)


def kinetic_energy(rho: ScalarField2D, u: VectorField2D) -> float:
    """Density-weighted energy integral of rho |u|^2 over the box."""
    if rho.grid != u.grid:
        raise ValueError("fields live on different grids")
    return integral(u.grid, rho.values * (u.u1.values**2 + u.u2.values**2))


def material_derivative(u_new: VectorField2D, u_old: VectorField2D,
                        dt: float) -> VectorField2D:
    """Acceleration along particle paths: (u_new - u_old)/dt
    + u_new . grad(u_new)."""
    grads = [derivative_arrays(u_new.grid, c.values)
             for c in (u_new.u1, u_new.u2)]
    return VectorField2D.from_arrays(
        u_new.grid, *acceleration_arrays(u_new, u_old, dt, grads))


def acceleration_arrays(u_new: VectorField2D, u_old: VectorField2D, dt: float,
                        grads) -> list[np.ndarray]:
    """material_derivative as arrays, given [(dx, dy)] of u_new's components."""
    n1, n2 = u_new.u1.values, u_new.u2.values
    return [(c.values - c0.values) / dt + (n1 * gx + n2 * gy)
            for c, c0, (gx, gy) in zip((u_new.u1, u_new.u2),
                                       (u_old.u1, u_old.u2), grads)]
