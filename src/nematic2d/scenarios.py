"""Built-in initial-data scenarios.

All scenarios produce data compatible with the solver's standing assumptions:
nonnegative density approaching a constant background, exactly unit-length
directors approaching a constant far-field orientation, and mean-free
divergence-free velocities supported well inside the periodic box.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np

from .director import unit_drift
from .fields import (DirectorField2D, Grid2D, ScalarField2D, VectorField2D,
                     velocity_from_stream)
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


def _radius(grid: Grid2D, center=None) -> np.ndarray:
    cx, cy = center if center is not None else (grid.lx / 2.0, grid.ly / 2.0)
    X, Y = grid.meshgrid()
    return np.sqrt((X - cx) ** 2 + (Y - cy) ** 2)


def _gaussian_stream_vortex(grid: Grid2D, sigma: float,
                            peak_speed: float) -> VectorField2D:
    """Solenoidal vortex from a Gaussian stream function, scaled so the
    largest velocity magnitude equals peak_speed."""
    r = _radius(grid)
    psi = ScalarField2D(grid, np.exp(-r**2 / (2.0 * sigma**2)))
    u = velocity_from_stream(psi)
    mag = np.hypot(u.u1.values, u.u2.values).max()
    if mag == 0.0 or peak_speed == 0.0:
        return VectorField2D.zeros(grid)
    s = peak_speed / mag
    return VectorField2D.from_arrays(grid, s * u.u1.values, s * u.u2.values)


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
    cx, cy = grid.lx / 2.0, grid.ly / 2.0
    X, Y = grid.meshgrid()
    xt = (X - cx) / grid.lx
    yt = (Y - cy) / grid.ly
    env = np.exp(-(np.sin(np.pi * xt) ** 2 + np.sin(np.pi * yt) ** 2) / s**2)
    wr = np.sin(2.0 * np.pi * xt) * env
    wi = np.sin(2.0 * np.pi * yt) * env
    c = w_max / np.sqrt(wr**2 + wi**2).max() * (1.0 - 1e-12)
    return _stereographic(grid, c * wr, c * wi)


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
        r = _radius(grid)
        sigma_rho = 0.15 * L
        rho = ScalarField2D(grid, rho_bar * (1.0 + blob_amp *
                                             np.exp(-r**2 / (2.0 * sigma_rho**2))))
        # rotate e toward an orthogonal direction by a small localized angle;
        # |grad d|^2 then equals |grad theta|^2, which scales quadratically,
        # so two scaling passes pin the target
        p = _orthonormal_to(e)
        sig_t = params.get("theta_sigma_frac", 0.1) * L
        theta = np.exp(-r**2 / (2.0 * sig_t**2))
        target = params.get("grad_d_sq_target", 0.005)
        d = None
        for _ in range(2):
            d = DirectorField2D.from_arrays(
                grid,
                np.cos(theta) * e[0] + np.sin(theta) * p[0],
                np.cos(theta) * e[1] + np.sin(theta) * p[1],
                np.cos(theta) * e[2] + np.sin(theta) * p[2])
            measured = director_grad_l2_sq(d)
            if measured > 0.0:
                theta = theta * math.sqrt(target / measured)
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
        X, Y = grid.meshgrid()
        u = VectorField2D.from_arrays(
            grid,
            amp * np.sin(2.0 * np.pi * X / grid.lx)
                * np.cos(2.0 * np.pi * Y / grid.ly),
            -amp * (grid.ly / grid.lx) * np.cos(2.0 * np.pi * X / grid.lx)
                 * np.sin(2.0 * np.pi * Y / grid.ly))
        rho = ScalarField2D.full(grid, rho_bar)
        d = DirectorField2D.constant(grid, e)

    else:
        raise ValueError(f"unknown scenario {name!r}; pick one of {SCENARIOS}")

    if unit_drift(d) > 1e-12:
        raise ValueError("scenario produced a non-unit director")
    return SimState(rho=rho, u=u, d=d, t=0.0, step=0)
