"""Semi-Lagrangian density transport under a divergence-free velocity.

Characteristics are traced backward to the second-order Taylor departure
point x - dt (u - (dt/2) (u . grad)u) (Staniforth & Cote, Mon. Wea. Rev.
119, 1991), with (u . grad)u from the velocity's derivative bundle, and the
density is read at the foot points with a monotonicity-limited bicubic
interpolant, so the update obeys a discrete maximum principle exactly: every
output value lies in [min(input), max(input)].

A constant density is its own transport, as rho_t + u . grad(rho) = 0
says: the limited read of a constant is that constant bitwise, so such a
density skips the foot points and the gather and is returned as it is.
"""

from __future__ import annotations

import numpy as np

from .fields import Grid2D, ScalarField2D, VectorField2D
from .momentum import advection


class CFLError(RuntimeError):
    """Velocity CFL number exceeded the configured limit."""


def cfl_number(u: VectorField2D, dt: float) -> float:
    g = u.grid
    return dt * float(max(np.abs(u.u1.values).max() / g.dx,
                          np.abs(u.u2.values).max() / g.dy))


def _cubic_weights(t: np.ndarray):
    # Catmull-Rom basis; reproduces node values exactly at t = 0 and t = 1.
    t2 = t * t
    t3 = t2 * t
    wm1 = 0.5 * (-t + 2.0 * t2 - t3)
    w0 = 0.5 * (2.0 - 5.0 * t2 + 3.0 * t3)
    w1 = 0.5 * (t + 4.0 * t2 - 3.0 * t3)
    w2 = 0.5 * (-t2 + t3)
    return wm1, w0, w1, w2


def sample_bicubic(grid: Grid2D, values: np.ndarray, ix: np.ndarray,
                   iy: np.ndarray) -> np.ndarray:
    """Periodic bicubic interpolation of values (ny, nx) at fractional index
    coordinates, clamped to the min/max of the four surrounding nodes
    (monotone variant, no new extrema). The result has the shape of ix.
    """
    # one periodic copy padded by the stencil's reach (1 before, 2 after),
    # so that node (j0 - 1 + a, i0 - 1 + b) sits at flat index base + a*w + b.
    # Each input is freed once its last use is done, since callers may pass
    # temporaries.
    i0 = np.floor(ix)
    j0 = np.floor(iy)
    tx = ix - i0
    ty = iy - j0
    del ix, iy
    w = grid.nx + 3
    base = (j0.astype(np.int64) % grid.ny * w
            + i0.astype(np.int64) % grid.nx)
    del i0, j0
    wx = _cubic_weights(tx)
    wy = _cubic_weights(ty)
    del tx, ty
    flat = np.pad(values, ((1, 2), (1, 2)), mode="wrap").ravel()
    del values

    # products are formed in place, in the gathered rows, so the loop holds
    # no temporaries beyond them
    out = 0.0
    lo = hi = None  # running min/max of the four nodes around each point
    for a in range(4):
        row_acc = 0.0
        for b in range(4):
            v = np.take(flat, base + (a * w + b))
            if a in (1, 2) and b in (1, 2):
                if lo is None:
                    lo, hi = v.copy(), v.copy()
                else:
                    np.minimum(lo, v, out=lo)
                    np.maximum(hi, v, out=hi)
            v *= wx[b]
            row_acc += v
        row_acc *= wy[a]
        out += row_acc
    return np.clip(out, lo, hi, out=out)


def foot_points(u: VectorField2D, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Backward characteristic feet in fractional index coordinates, by the
    second-order Taylor departure point x - dt (u - (dt/2) (u . grad)u).

    (u . grad)u comes from momentum.advection, which reads u's derivative
    bundle.
    """
    g = u.grid
    adv = advection(u)
    I = np.arange(g.nx, dtype=float)[None, :]
    J = np.arange(g.ny, dtype=float)[:, None]
    return (I - (dt / g.dx) * (u.u1.values - (0.5 * dt) * adv[0]),
            J - (dt / g.dy) * (u.u2.values - (0.5 * dt) * adv[1]))


def advect_density(rho: ScalarField2D, u: VectorField2D, dt: float,
                   cfl_limit: float = 0.9) -> ScalarField2D:
    """One transport step of the density along backward characteristics.

    Requires dt > 0 and a resolved step: cfl_number(u, dt) <= cfl_limit.
    The output range is contained in the input range pointwise, so
    nonnegative densities stay nonnegative and vacuum is preserved.

    A constant density (rho.is_constant) passes the same checks and is
    then returned itself, with no foot points and no gather. The general
    path would give it bitwise: the limiter clips each read to the min/max
    of its four corners.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if rho.grid != u.grid:
        raise ValueError("density and velocity grids differ")
    nu = cfl_number(u, dt)
    if nu > cfl_limit:
        raise CFLError(f"CFL number {nu:.3g} exceeds limit {cfl_limit:.3g}")
    if rho.is_constant:
        return rho
    return ScalarField2D(rho.grid, sample_bicubic(rho.grid, rho.values,
                                                  *foot_points(u, dt)))
