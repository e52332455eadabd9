"""Sphere-valued director evolution and the elastic stress it exerts.

The director obeys d_t + u . grad(d) = lap(d) + |grad(d)|^2 d with |d| = 1.
Diffusion is implicit (a modewise Fourier solve), transport and reaction are
explicit, and the unit constraint is restored by pointwise renormalization
after every step.
"""

from __future__ import annotations

import numpy as np

from .fields import DirectorField2D, VectorField2D, derivative_arrays


class DegenerateDirectorError(RuntimeError):
    """A director length fell below the renormalization floor."""


def unit_drift(d: DirectorField2D) -> float:
    """Max over nodes of | |d|^2 - 1 |."""
    sq = d.d1.values**2 + d.d2.values**2 + d.d3.values**2
    return float(np.abs(sq - 1.0).max())


def renormalize(d: DirectorField2D, floor: float = 0.5) -> DirectorField2D:
    """Divide each node by its Euclidean length; rejects lengths below
    `floor` (projecting a near-zero average onto the sphere is meaningless)."""
    return _renormalized(d.grid, [c.values for c in d.components], floor)


def _renormalized(grid, comps, floor) -> DirectorField2D:
    norm = np.sqrt(comps[0]**2 + comps[1]**2 + comps[2]**2)
    nmin = norm.min()
    if nmin < floor:
        raise DegenerateDirectorError(
            f"director length {nmin:.3g} below floor {floor:.3g}")
    return DirectorField2D.from_arrays(grid, *(c / norm for c in comps))


def director_derivatives(d: DirectorField2D, order: int = 1):
    """derivative_arrays of each director component, and the pointwise
    |grad d|^2."""
    out = [derivative_arrays(d.grid, c.values, order) for c in d.components]
    return out, sum(x[0] * x[0] + x[1] * x[1] for x in out)


def step_director(d: DirectorField2D, u: VectorField2D, dt: float,
                  floor: float = 0.5) -> DirectorField2D:
    """Advance the director one step of size dt under the velocity u.

    Solves (I - dt lap) d* = d + dt (-u . grad(d) + |grad(d)|^2 d)
    componentwise in Fourier space, then renormalizes. Signals
    DegenerateDirectorError when any |d*| < floor, meaning the step is too
    large for the constraint manifold.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if d.grid != u.grid:
        raise ValueError("director and velocity grids differ")
    g = d.grid
    grads, grad_sq = director_derivatives(d)
    u1, u2 = u.u1.values, u.u2.values
    denom = 1.0 + dt * g.k2
    star = []
    for comp, (gx, gy) in zip(d.components, grads):
        rhs = comp.values + dt * (-(u1 * gx + u2 * gy) + grad_sq * comp.values)
        star.append(np.fft.ifft2(np.fft.fft2(rhs) / denom).real)
    return _renormalized(g, star, floor)


def ericksen_stress(d: DirectorField2D) -> VectorField2D:
    """Body force f_i = sum_k (d_i d^k) lap(d^k) of the elastic stress
    M = grad(d) (x) grad(d) - |grad(d)|^2/2 I on the fluid.

    div(M) and f differ by the pure gradient grad(|grad d|^2 / 2), which the
    pressure absorbs, so their divergence-free projections agree.
    """
    ders, _ = director_derivatives(d, order=2)
    f1 = sum(gx * lap for gx, _, lap in ders)
    f2 = sum(gy * lap for _, gy, lap in ders)
    return VectorField2D.from_arrays(d.grid, f1, f2)
