"""Sphere-valued director evolution and the elastic stress it exerts.

The director obeys d_t + u . grad(d) = lap(d) + |grad(d)|^2 d with |d| = 1.
Diffusion is implicit (a modewise Fourier solve), transport and reaction are
explicit, and the unit constraint is restored by pointwise renormalization
after every step.

A constant director (DirectorField2D.is_constant, the fields module's
min = max rule on every component) is a steady solution: its spectral
derivatives are exactly zero. It takes no transform: its derivatives are
zero arrays, from which the elastic force and the norms come out exactly
zero, and its step is the renormalization alone, with the FLOOR check.
"""

from __future__ import annotations

import numpy as np

from .fields import (DirectorField2D, VectorField2D, apply_multiplier,
                     derivative_arrays)

# smallest director length renormalization accepts: projecting a near-zero
# average onto the sphere is meaningless
FLOOR = 0.5


class DegenerateDirectorError(RuntimeError):
    """A director length fell below the renormalization floor."""


def unit_drift(d: DirectorField2D) -> float:
    """Max over nodes of | |d|^2 - 1 |."""
    sq = d.d1.values**2 + d.d2.values**2 + d.d3.values**2
    return float(np.abs(sq - 1.0).max())


def renormalize(d: DirectorField2D) -> DirectorField2D:
    """Divide each node by its Euclidean length; rejects lengths below
    FLOOR."""
    return _renormalized(d.grid, d.as_array())


def _renormalized(grid, comps) -> DirectorField2D:
    """The director of the three arrays comps, each divided by the
    pointwise length. comps are temporaries handed over by the caller and
    are divided in place."""
    norm = comps[0] ** 2
    norm += comps[1] ** 2
    norm += comps[2] ** 2
    np.sqrt(norm, out=norm)
    nmin = norm.min()
    if nmin < FLOOR:
        raise DegenerateDirectorError(
            f"director length {nmin:.3g} below floor {FLOOR:.3g}")
    for c in comps:
        c /= norm
    return DirectorField2D.from_arrays(grid, *comps)


# attribute under which a DirectorField2D keeps its first-derivative bundle
_BUNDLE = "_first_derivatives"


def director_derivatives(d: DirectorField2D, order: int = 1):
    """derivative_arrays of each director component, and the pointwise sum
    |grad d|^2 of |grad c|^2 over the components.

    The order-1 result, the bundle ([(dx, dy)] per component,
    |grad d|^2), is memoized on d: a DirectorField2D is frozen and its
    values are read-only, so the bundle cannot go stale. Every pass stores
    its first-order part as the bundle, so ericksen_stress seeds it from
    its own order-2 pass; order 1 then returns the stored arrays without a
    transform, and step_director, the bundle's last reader, drops it.
    Higher orders are always computed afresh.

    A constant director (d.is_constant) gets one read-only zero array for
    every derivative and for |grad d|^2, without a transform.
    """
    if order == 1:
        bundle = vars(d).get(_BUNDLE)
        if bundle is not None:
            return bundle
    g = d.grid
    if d.is_constant:
        zero = np.zeros(g.shape)
        zero.setflags(write=False)
        ders, grad_sq = [[zero] * (order + 1)] * 3, zero
    else:
        # per component: a stacked (3, ny, nx) pass measured slower to set up
        ders = [derivative_arrays(g, c.values, order) for c in d.components]
        grad_sq, sq = np.zeros(g.shape), np.empty(g.shape)
        for x in ders:
            term = x[0] * x[0]
            term += np.multiply(x[1], x[1], out=sq)
            grad_sq += term
    object.__setattr__(d, _BUNDLE, ([(x[0], x[1]) for x in ders], grad_sq))
    return ders, grad_sq


def step_director(d: DirectorField2D, u: VectorField2D,
                  dt: float) -> DirectorField2D:
    """Advance the director one step of size dt under the velocity u.

    Solves (I - dt lap) d* = d + dt (-u . grad(d) + |grad(d)|^2 d)
    componentwise in Fourier space, then renormalizes. Signals
    DegenerateDirectorError when any |d*| < FLOOR, meaning the step is too
    large for the constraint manifold.

    grad(d) comes from d's memoized bundle (director_derivatives), which
    the step then drops from d: a stepped-from director is not read again
    in a run, and older states kept alive, such as the last sample, would
    otherwise hold their gradients.

    A constant director is its own solution: the right side is d and the
    solve returns it, so the step reads no gradient, makes no transform
    and only renormalizes d, with the same FLOOR check. Whether a result
    is constant is read from its own values (d.is_constant), so a result of
    the general path that renormalizes to a constant takes this path next.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if d.grid != u.grid:
        raise ValueError("director and velocity grids differ")
    g = d.grid
    if d.is_constant:
        star = d.as_array()
    else:
        grads, grad_sq = director_derivatives(d)
        u1, u2 = u.u1.values, u.u2.values
        inv = 1.0 / (1.0 + dt * g.k2)
        star, tmp = [], np.empty(g.shape)
        for comp, (gx, gy) in zip(d.components, grads):
            # c + dt (-(u1 gx + u2 gy) + |grad d|^2 c), in place
            rhs = u1 * gx
            rhs += np.multiply(u2, gy, out=tmp)
            np.negative(rhs, out=rhs)
            rhs += np.multiply(grad_sq, comp.values, out=tmp)
            rhs *= dt
            rhs += comp.values
            star.append(apply_multiplier(g, rhs, inv))
    vars(d).pop(_BUNDLE, None)
    return _renormalized(g, star)


def ericksen_stress(d: DirectorField2D) -> VectorField2D:
    """Body force f_i = sum_k (d_i d^k) lap(d^k) of the elastic stress
    M = grad(d) (x) grad(d) - |grad(d)|^2/2 I on the fluid.

    div(M) and f differ by the pure gradient grad(|grad d|^2 / 2), which the
    pressure absorbs, so their divergence-free projections agree.

    The first-derivative part of this pass becomes d's memoized bundle. A
    constant director's derivatives are zero arrays (director_derivatives),
    so its force is exactly zero, without a transform.
    """
    ders, _ = director_derivatives(d, order=2)
    g = d.grid
    f = np.zeros((2,) + g.shape)
    tmp = np.empty(g.shape)
    for gx, gy, lap in ders:
        f[0] += np.multiply(gx, lap, out=tmp)
        f[1] += np.multiply(gy, lap, out=tmp)
    return VectorField2D.from_arrays(g, f[0], f[1])
