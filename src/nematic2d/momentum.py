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
and exactly. When rho is constant, A = M: the solve is M's inverse, which
joins the projection in one forward and one inverse transform of the right
side, with no conjugate gradients and no residual check. Otherwise
preconditioned conjugate gradients solve A u* = b. M z = r holds for every
preconditioned residual, M p is carried by the recurrence
M p_k = r_k + beta M p_(k-1) (Eisenstat, SIAM J. Sci. Stat. Comput. 2,
1981), and A p needs no transform: an iteration costs one forward and one
inverse transform of the stacked (2, ny, nx) residual. Because the
recurrence can drift, the true residual b - A x is formed once the
recursive one meets the tolerance, and CG restarts from it if it misses. A
restart whose true residual is not below the previous restart's cannot help
(rounding floors the residual), so the solve then fails at once instead of
spending the iteration cap. The projection takes one more transform pair.

Either way the new velocity is born in spectral space, and step_momentum
keeps its half spectrum on the returned field: the diagnostics sample reads
it for grad(u), and the next step's velocity_terms reads and drops it, so
neither transforms the new velocity forward again.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (ScalarField2D, VectorField2D, apply_multiplier,
                     derivative_arrays, integral, solenoidal_arrays)

# attributes under which a VectorField2D keeps, in a run: the half spectrum
# step_momentum made it from, and then its advection terms
_SPECTRUM = "_half_spectrum"
_TERMS = "_advection_terms"


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


def velocity_terms(u: VectorField2D) -> tuple[np.ndarray, np.ndarray]:
    """(u . grad)u and lap(u) as stacked (2, ny, nx) arrays, from one
    order-2 derivative pass of u.

    The pair is memoized on u, like a director's derivative bundle: a
    VectorField2D is frozen and its values are read-only, so the pair
    cannot go stale. In a step, the density transport's foot points seed
    it when the density varies, and step_momentum, its last reader, drops
    it before the solve. The pass reads and drops the half spectrum that
    step_momentum keeps on its result, so a stepped velocity takes inverse
    transforms only. A caller must not write into the arrays.
    """
    terms = vars(u).get(_TERMS)
    if terms is None:
        vel = u.as_array()
        dx, dy, lap = derivative_arrays(u.grid, vel, 2,
                                        vars(u).pop(_SPECTRUM, None))
        adv = vel[0] * dx
        del dx
        adv += vel[1] * dy
        terms = (adv, lap)
        object.__setattr__(u, _TERMS, terms)
    return terms


def velocity_gradient(u: VectorField2D) -> list[np.ndarray]:
    """[dx u, dy u] as stacked (2, ny, nx) arrays. A velocity that
    step_momentum returned gives them from its kept half spectrum, with
    inverse transforms only, and keeps it for velocity_terms."""
    h = vars(u).get(_SPECTRUM)
    return derivative_arrays(u.grid, u.as_array() if h is None else None,
                             spectrum=h)


def drop_memos(u: VectorField2D) -> None:
    """Remove the half spectrum and the advection terms memoized on u."""
    vars(u).pop(_SPECTRUM, None)
    vars(u).pop(_TERMS, None)


def _right_side(rv, u, force, dt):
    """rho u/dt - rho (u . grad u) - f + lap(u)/2 as a stacked (2, ny, nx)
    array. The velocity terms are dropped from u, so the solve starts
    without them, and each array is freed as soon as it is used."""
    adv, lap = velocity_terms(u)
    vars(u).pop(_TERMS, None)
    b = (rv / dt) * u.as_array()
    b -= rv * adv
    del adv
    b += 0.5 * lap
    del lap
    b[0] -= force.u1.values
    b[1] -= force.u2.values
    return b


def step_momentum(rho: ScalarField2D, u: VectorField2D, force: VectorField2D,
                  dt: float, cg_tol: float = 1e-10, cg_max_iter: int = 500,
                  info: dict | None = None) -> VectorField2D:
    """Advance the velocity one step of size dt.

    `force` is the director body force entering the momentum balance with a
    minus sign on the right-hand side. Returns the divergence-free velocity,
    which keeps the half spectrum it was made from (see velocity_gradient
    and velocity_terms). If `info` is given, it receives the CG iteration
    count (`cg_iterations`) and the true relative residual at exit
    (`cg_residual`). A constant density (rho.is_constant) is solved
    directly, without CG: 0 iterations and residual 0.0 mean that direct
    solve.

    (u . grad)u and lap(u) come from velocity_terms(u): read from u when
    the density transport of the same step seeded them, computed here
    otherwise, and dropped from u before the solve either way.
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

    # the right side is passed as a temporary, so it is freed with the solve
    if rho.is_constant:
        w, h = solenoidal_arrays(g, _right_side(rv, u, force, dt),
                                 1.0 / (hi / dt + 0.5 * g.k2))
        iters, residual = 0, 0.0
    else:
        rho_bar = float(rv.mean())
        m = rho_bar / dt + 0.5 * g.k2
        minv = 1.0 / m
        star, iters, residual = _pcg(lambda a: apply_multiplier(g, a, m),
                                     lambda a: apply_multiplier(g, a, minv),
                                     (rv - rho_bar) / dt,
                                     _right_side(rv, u, force, dt), cg_tol,
                                     cg_max_iter)
        w, h = solenoidal_arrays(g, star)
    if info is not None:
        info["cg_iterations"] = iters
        info["cg_residual"] = residual
    out = VectorField2D.from_arrays(g, w[0], w[1])
    object.__setattr__(out, _SPECTRUM, h)
    return out


def kinetic_energy(rho: ScalarField2D, u: VectorField2D) -> float:
    """Density-weighted energy integral of rho |u|^2 over the box."""
    if rho.grid != u.grid:
        raise ValueError("fields live on different grids")
    return integral(u.grid, rho.values * (u.u1.values**2 + u.u2.values**2))


def material_derivative(u_new: VectorField2D, u_old: VectorField2D,
                        dt: float) -> VectorField2D:
    """Acceleration along particle paths: (u_new - u_old)/dt
    + u_new . grad(u_new)."""
    ux, uy = velocity_gradient(u_new)
    return VectorField2D.from_arrays(
        u_new.grid, *acceleration_arrays(u_new, u_old, dt, zip(ux, uy)))


def acceleration_arrays(u_new: VectorField2D, u_old: VectorField2D, dt: float,
                        grads) -> list[np.ndarray]:
    """material_derivative as arrays, given [(dx, dy)] of u_new's components."""
    n1, n2 = u_new.u1.values, u_new.u2.values
    return [(c.values - c0.values) / dt + (n1 * gx + n2 * gy)
            for c, c0, (gx, gy) in zip((u_new.u1, u_new.u2),
                                       (u_old.u1, u_old.u2), grads)]
