"""Sphere-valued director evolution and the elastic stress it exerts.

The director obeys d_t + u . grad(d) = lap(d) + |grad(d)|^2 d with |d| = 1.
Diffusion is implicit (a modewise Fourier solve), transport and reaction are
explicit, and the unit constraint is restored by pointwise renormalization
after every step.

Each director is transformed forward once: its derivative bundle
(director_derivatives) has a velocity's layout, [dx c, dy c, c_hat] per
component c, and the elastic stress and diagnostics.director_norms take
higher derivatives from the half spectra c_hat.

A constant director (DirectorField2D.is_constant, the fields module's
min = max rule on every component) is a steady solution: its spectral
derivatives are exactly zero. It takes no transform: its bundle holds
zero arrays, its elastic force and norms are exactly zero, and its step is
the renormalization alone, with the FLOOR check.
"""

from __future__ import annotations

import numpy as np

from .fields import (DirectorField2D, VectorField2D, apply_multiplier,
                     gradient_and_spectrum, real_array)

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


# attribute under which a DirectorField2D keeps its derivative bundle
_BUNDLE = "_derivatives"


def director_derivatives(d: DirectorField2D):
    """d's derivative bundle: [dx c, dy c, c_hat] per component c, c_hat
    its half spectrum (fields.gradient_and_spectrum, the velocity's
    layout), and the pointwise |grad d|^2, summed over the components.

    Memoized on d, which is frozen with read-only values, so the bundle
    cannot go stale; its arrays are stored read-only. ericksen_stress makes
    it in a run (RunMonitors.fresh for the initial director), later
    readers take higher derivatives from c_hat, and step_director, the
    last reader, drops it.

    A constant director (d.is_constant) gets read-only zero arrays without
    a transform; its zero c_hat lacks only the mean mode, which no
    derivative reads, and the readers of c_hat return before reading it.
    """
    bundle = vars(d).get(_BUNDLE)
    if bundle is not None:
        return bundle
    g = d.grid
    if d.is_constant:
        zero, zero_hat = np.zeros(g.shape), np.zeros(g.k2.shape, complex)
        ders, grad_sq = [[zero, zero, zero_hat]] * 3, zero
    else:
        # per component (a stacked pass measured slower to set up), |grad c|^2
        # summed through two buffers as each pass ends, touching fewer pages
        ders, grad_sq = [], np.zeros(g.shape)
        term, sq = np.empty(g.shape), np.empty(g.shape)
        for c in d.components:
            ders.append(gradient_and_spectrum(g, c.values))
            gx, gy, _ = ders[-1]
            np.multiply(gx, gx, out=term)
            term += np.multiply(gy, gy, out=sq)
            grad_sq += term
    for a in (grad_sq, *ders[0], *ders[1], *ders[2]):
        a.setflags(write=False)
    object.__setattr__(d, _BUNDLE, (ders, grad_sq))
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
    otherwise hold their gradients and spectra.

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
        for comp, (gx, gy, _) in zip(d.components, grads):
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

    lap(c) comes from c_hat in d's bundle (director_derivatives), which
    this call makes in a run, with one inverse transform per component. A
    constant director's force is exactly zero, returned without reading
    the bundle.
    """
    g = d.grid
    f = np.zeros((2,) + g.shape)
    if not d.is_constant:
        tmp = np.empty(g.shape)
        for gx, gy, h in director_derivatives(d)[0]:
            lap = real_array(g, h, -g.k2)
            f[0] += np.multiply(gx, lap, out=tmp)
            f[1] += np.multiply(gy, lap, out=tmp)
    return VectorField2D.from_arrays(g, f[0], f[1])
