"""Built-in initial-data scenarios.

All scenarios produce data compatible with the solver's standing assumptions:
nonnegative density approaching a constant background, exactly unit-length
directors approaching a constant far-field orientation, and mean-free
divergence-free velocities supported well inside the periodic box.

Initial data are built from 1-D factors: a term that depends on x alone or
on y alone (an offset, a sine, a squared offset) is evaluated on the
length-nx or length-ny coordinate vector and broadcast, never on a
coordinate meshgrid, and the 2-D arrays that follow are scaled in place.
Each value is the one the meshgrid formula gives, bitwise, since every
element sees the same operation on the same operands.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .director import unit_drift
from .fields import (DirectorField2D, Grid2D, ScalarField2D, VectorField2D,
                     gradient_and_spectrum)
from .diagnostics import director_grad_l2_sq
from .momentum import kinetic_energy
from .state import SimState

SCENARIOS = ("rest", "vacuum-bubble", "small-director", "angle-condition",
             "supercritical", "taylor-green")

_E3 = np.array([0.0, 0.0, 1.0])


def _unit(e) -> np.ndarray:
    e = np.asarray(e, dtype=float)
    n = np.linalg.norm(e)
    if not 0.9 < n < 1.1:
        raise ValueError("far-field director must be close to unit length")
    return e / n


def _orthonormal_to(e: np.ndarray) -> np.ndarray:
    """Some unit vector orthogonal to e."""
    trial = _E3 if abs(e[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    p = np.cross(trial, e)
    return p / np.linalg.norm(p)


def _smooth_step(s: np.ndarray) -> np.ndarray:
    """C-infinity transition: 0 for s <= 0, 1 for s >= 1."""
    def bump(x):
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = np.exp(-1.0 / x[pos])
        return out
    a = bump(s)
    b = bump(1.0 - s)
    return a / (a + b)


def _coordinates(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """The node coordinates of Grid2D.meshgrid as 1-D factors: x a row
    (1, nx) and y a column (ny, 1), which broadcast to the grid."""
    return ((np.arange(grid.nx) * grid.dx)[None, :],
            (np.arange(grid.ny) * grid.dy)[:, None])


def _offsets(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates relative to the box center, as 1-D factors."""
    x, y = _coordinates(grid)
    return x - grid.lx / 2.0, y - grid.ly / 2.0


def _radius(grid: Grid2D) -> np.ndarray:
    """Distance from the box center."""
    x, y = _offsets(grid)
    r = x**2 + y**2
    return np.sqrt(r, out=r)


def _gaussian_stream_vortex(grid: Grid2D, sigma: float,
                            peak_speed: float) -> VectorField2D:
    """Solenoidal vortex (-dy psi, dx psi) from the Gaussian stream function
    psi, scaled so the largest velocity magnitude equals peak_speed."""
    psi = _radius(grid)
    psi **= 2
    np.negative(psi, out=psi)
    psi /= 2.0 * sigma**2
    np.exp(psi, out=psi)
    gx, gy, _ = gradient_and_spectrum(grid, psi)
    u1 = np.negative(gy, out=gy)
    mag = np.hypot(u1, gx).max()
    if mag == 0.0 or peak_speed == 0.0:
        return VectorField2D.zeros(grid)
    s = peak_speed / mag
    u1 *= s
    gx *= s
    return VectorField2D.from_arrays(grid, u1, gx)


def _stereographic(grid: Grid2D, w_re: np.ndarray,
                   w_im: np.ndarray) -> DirectorField2D:
    """Inverse stereographic lift of the complex field w; |d| = 1 exactly
    and w -> 0 sends d to (0, 0, 1)."""
    wsq = w_re**2 + w_im**2
    den = 1.0 + wsq
    return DirectorField2D.from_arrays(grid, 2.0 * w_re / den,
                                       2.0 * w_im / den, (1.0 - wsq) / den)


def _winding_patch(grid: Grid2D, sigma_frac: float,
                   w_max: float) -> DirectorField2D:
    """Degree-one stereographic patch peaking at |w| = w_max on a ring of
    radius about sigma_frac * box around the center.

    Built entirely from analytic periodic factors (sines and a periodized
    Gaussian envelope), so its spectrum decays exponentially and spectral
    derivatives converge fast; a plain (x + i y) Gaussian would be
    discontinuous across the periodic seam. The grid maximum of |w| is
    scaled to w_max (shaved by one part in 1e12 so rounding cannot push it
    over), pinning min(d3) at (1 - w_max^2)/(1 + w_max^2) on the grid.
    """
    s = sigma_frac * math.pi * math.sqrt(2.0)
    x, y = _offsets(grid)
    xt = x / grid.lx
    yt = y / grid.ly
    env = np.sin(np.pi * xt) ** 2 + np.sin(np.pi * yt) ** 2
    np.negative(env, out=env)
    env /= s**2
    np.exp(env, out=env)
    wr = np.sin(2.0 * np.pi * xt) * env
    wi = np.multiply(np.sin(2.0 * np.pi * yt), env, out=env)
    c = w_max / np.sqrt(wr**2 + wi**2).max() * (1.0 - 1e-12)
    wr *= c
    wi *= c
    return _stereographic(grid, wr, wi)


# every scenario parameter is a finite number; these set a width (as a
# fraction of the box), which must be positive, or an energy target, which
# must be nonnegative
_WIDTHS = {"r0_frac", "r1_frac", "vortex_sigma_frac", "theta_sigma_frac",
           "sigma_frac"}
_TARGETS = {"ke_target", "grad_d_sq_target"}


def check_param(key: str, value) -> None:
    """Raise ValueError naming key unless value is a finite number, and a
    positive one for a width or a nonnegative one for a target."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"scenario parameter {key} must be a number, "
                         f"got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"scenario parameter {key} must be finite, "
                         f"got {value!r}")
    if key in _WIDTHS and not value > 0.0:
        raise ValueError(f"scenario parameter {key} is a width and must be "
                         f"positive, got {value!r}")
    if key in _TARGETS and not value >= 0.0:
        raise ValueError(f"scenario parameter {key} is a target and must be "
                         f"nonnegative, got {value!r}")


def _require(params: dict, allowed: set[str], name: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise ValueError(f"unknown parameters for scenario {name}: "
                         f"{sorted(unknown)}")


def make_scenario(name: str, params: dict | None, grid: Grid2D,
                  rho_bar: float = 1.0, e=(0.0, 0.0, 1.0)) -> SimState:
    """Build the initial state for a named scenario.

    Raises on unknown scenario names, unknown parameters, parameters that
    check_param rejects, and parameter combinations that fail to produce a
    unit director.
    """
    params = dict(params or {})
    for key, value in params.items():
        check_param(key, value)
    e = _unit(e)
    L = min(grid.lx, grid.ly)
    if name == "rest":
        _require(params, set(), name)
        rho = ScalarField2D.full(grid, rho_bar)
        u = VectorField2D.zeros(grid)
        d = DirectorField2D.constant(grid, e)

    elif name == "vacuum-bubble":
        _require(params, {"r0_frac", "r1_frac", "vortex_amp",
                          "vortex_sigma_frac"}, name)
        r0 = params.get("r0_frac", 0.12) * L
        r1 = params.get("r1_frac", 0.30) * L
        if not 0.0 < r0 < r1:
            raise ValueError("need 0 < r0_frac < r1_frac")
        r = _radius(grid)
        rho = ScalarField2D(grid, rho_bar * _smooth_step((r - r0) / (r1 - r0)))
        u = _gaussian_stream_vortex(grid,
                                    params.get("vortex_sigma_frac", 0.12) * L,
                                    params.get("vortex_amp", 0.3))
        d = DirectorField2D.constant(grid, e)

    elif name == "small-director":
        _require(params, {"ke_target", "grad_d_sq_target", "theta_sigma_frac",
                          "vortex_sigma_frac", "rho_blob_amp"}, name)
        blob_amp = params.get("rho_blob_amp", 0.5)
        if blob_amp <= -1.0:
            raise ValueError("rho_blob_amp must exceed -1")
        r_sq = _radius(grid)
        r_sq **= 2
        blob = np.negative(r_sq)
        blob /= 2.0 * (0.15 * L) ** 2
        np.exp(blob, out=blob)
        blob *= blob_amp
        blob += 1.0
        blob *= rho_bar
        rho = ScalarField2D(grid, blob)
        # rotate e toward an orthogonal direction by a small localized angle;
        # |grad d|^2 then equals |grad theta|^2, which scales quadratically,
        # so two passes pin the target: the first rescales theta, and the
        # second's measurement makes the bundle of the director returned
        p = _orthonormal_to(e)
        sig_t = params.get("theta_sigma_frac", 0.1) * L
        theta = np.negative(r_sq, out=r_sq)
        theta /= 2.0 * sig_t**2
        np.exp(theta, out=theta)
        target = params.get("grad_d_sq_target", 0.005)
        for rescale in (True, False):
            cos, sin = np.cos(theta), np.sin(theta)
            d = DirectorField2D.from_arrays(
                grid, *(cos * e[i] + sin * p[i] for i in range(3)))
            measured = director_grad_l2_sq(d)
            if rescale and measured > 0.0:
                theta *= math.sqrt(target / measured)
        u = _gaussian_stream_vortex(grid,
                                    params.get("vortex_sigma_frac", 0.12) * L,
                                    1.0)
        ke = kinetic_energy(rho, u)
        ke_target = params.get("ke_target", 1.0)
        s = math.sqrt(ke_target / ke) if ke > 0.0 else 0.0
        u = VectorField2D.from_arrays(grid, s * u.u1.values, s * u.u2.values)

    elif name in ("angle-condition", "supercritical"):
        _require(params, {"epsilon", "w_max", "sigma_frac", "vortex_amp"}, name)
        if np.linalg.norm(e - _E3) > 1e-12:
            raise ValueError(f"scenario {name} is built around the north pole; "
                             "set the far-field director to (0, 0, 1)")
        if name == "angle-condition":
            eps = params.get("epsilon", 0.5)
            if not 0.0 < eps <= 1.0:
                raise ValueError("epsilon must lie in (0, 1]")
            w_max = math.sqrt((1.0 - eps) / (1.0 + eps))
            amp = params.get("vortex_amp", 0.5)
        else:
            w_max = params.get("w_max", 3.0)
            if w_max <= 1.0:
                raise ValueError("supercritical texture needs w_max > 1 to "
                                 "cross the equator")
            amp = params.get("vortex_amp", 1.0)
        d = _winding_patch(grid, params.get("sigma_frac", 0.10), w_max)
        rho = ScalarField2D.full(grid, rho_bar)
        u = _gaussian_stream_vortex(grid, 0.12 * L, amp)

    elif name == "taylor-green":
        _require(params, {"amplitude"}, name)
        amp = params.get("amplitude", 1.0)
        x, y = _coordinates(grid)
        ax = 2.0 * np.pi * x / grid.lx
        ay = 2.0 * np.pi * y / grid.ly
        u = VectorField2D.from_arrays(
            grid, amp * np.sin(ax) * np.cos(ay),
            -amp * (grid.ly / grid.lx) * np.cos(ax) * np.sin(ay))
        rho = ScalarField2D.full(grid, rho_bar)
        d = DirectorField2D.constant(grid, e)

    else:
        raise ValueError(f"unknown scenario {name!r}; pick one of {SCENARIOS}")

    if unit_drift(d) > 1e-12:
        raise ValueError("scenario produced a non-unit director")
    return SimState(rho=rho, u=u, d=d, t=0.0, step=0)
