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

# each scenario's parameters and their defaults: make_scenario accepts
# these names alone and merges the caller's values over the defaults
PARAMETERS = {
    "rest": {},
    "vacuum-bubble": {"r0_frac": 0.12, "r1_frac": 0.30, "vortex_amp": 0.3,
                      "vortex_sigma_frac": 0.12},
    "small-director": {"ke_target": 1.0, "grad_d_sq_target": 0.005,
                       "theta_sigma_frac": 0.1, "vortex_sigma_frac": 0.12,
                       "rho_blob_amp": 0.5},
    "angle-condition": {"epsilon": 0.5, "sigma_frac": 0.10, "vortex_amp": 0.5},
    "supercritical": {"w_max": 3.0, "sigma_frac": 0.10, "vortex_amp": 1.0},
    "taylor-green": {"amplitude": 1.0},
}
SCENARIOS = tuple(PARAMETERS)

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


# every scenario parameter is a finite number; these must also lie in a
# range, as parameter: (test of the value, wording of the error)
_WIDTH = (lambda v: v > 0.0, "is a width and must be positive")
_TARGET = (lambda v: v >= 0.0, "is a target and must be nonnegative")
_RANGES = {
    "r0_frac": _WIDTH, "r1_frac": _WIDTH, "vortex_sigma_frac": _WIDTH,
    "theta_sigma_frac": _WIDTH, "sigma_frac": _WIDTH,
    "ke_target": _TARGET, "grad_d_sq_target": _TARGET,
    "rho_blob_amp": (lambda v: v > -1.0, "must exceed -1"),  # keeps rho > 0
    "epsilon": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),  # d3 >= eps
    "w_max": (lambda v: v > 1.0,
              "must exceed 1 for the texture to cross the equator")}


def check_scenario(name: str) -> None:
    """Raise ValueError unless name is a scenario of PARAMETERS."""
    if name not in PARAMETERS:
        raise ValueError(f"unknown scenario {name!r}; pick one of {SCENARIOS}")


def check_param(scenario: str, key: str, value) -> None:
    """Raise ValueError naming key unless value is a finite number, key is
    a parameter of the known scenario, and value lies in key's _RANGES
    entry, if it has one. Checked in that order."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"scenario parameter {key} must be a number, "
                         f"got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"scenario parameter {key} must be finite, "
                         f"got {value!r}")
    if key not in PARAMETERS[scenario]:
        raise ValueError(f"unknown parameters for scenario {scenario}: "
                         f"{[key]}; it takes {sorted(PARAMETERS[scenario])}")
    if key in _RANGES and not _RANGES[key][0](value):
        raise ValueError(f"scenario parameter {key} {_RANGES[key][1]}, "
                         f"got {value!r}")


def make_scenario(name: str, params: dict | None, grid: Grid2D,
                  rho_bar: float = 1.0, e=(0.0, 0.0, 1.0)) -> SimState:
    """Build the initial state for a named scenario.

    Raises on unknown scenario names, parameters that check_param rejects
    (a name missing from the scenario's PARAMETERS entry among them), and
    parameter combinations that fail to produce a unit director.
    """
    check_scenario(name)
    params = params or {}
    for key, value in params.items():
        check_param(name, key, value)
    params = PARAMETERS[name] | params
    e = _unit(e)
    L = min(grid.lx, grid.ly)
    if name == "rest":
        rho = ScalarField2D.full(grid, rho_bar)
        u = VectorField2D.zeros(grid)
        d = DirectorField2D.constant(grid, e)

    elif name == "vacuum-bubble":
        r0 = params["r0_frac"] * L
        r1 = params["r1_frac"] * L
        if not 0.0 < r0 < r1:
            raise ValueError("need 0 < r0_frac < r1_frac")
        r = _radius(grid)
        rho = ScalarField2D(grid, rho_bar * _smooth_step((r - r0) / (r1 - r0)))
        u = _gaussian_stream_vortex(grid, params["vortex_sigma_frac"] * L,
                                    params["vortex_amp"])
        d = DirectorField2D.constant(grid, e)

    elif name == "small-director":
        r_sq = _radius(grid)
        r_sq **= 2
        blob = np.negative(r_sq)
        blob /= 2.0 * (0.15 * L) ** 2
        np.exp(blob, out=blob)
        blob *= params["rho_blob_amp"]
        blob += 1.0
        blob *= rho_bar
        rho = ScalarField2D(grid, blob)
        # rotate e toward an orthogonal direction by a small localized angle;
        # |grad d|^2 then equals |grad theta|^2, which scales quadratically,
        # so two passes pin the target: the first rescales theta, and the
        # second's measurement makes the bundle of the director returned
        p = _orthonormal_to(e)
        sig_t = params["theta_sigma_frac"] * L
        theta = np.negative(r_sq, out=r_sq)
        theta /= 2.0 * sig_t**2
        np.exp(theta, out=theta)
        for rescale in (True, False):
            cos, sin = np.cos(theta), np.sin(theta)
            d = DirectorField2D.from_arrays(
                grid, *(cos * e[i] + sin * p[i] for i in range(3)))
            measured = director_grad_l2_sq(d)
            if rescale and measured > 0.0:
                theta *= math.sqrt(params["grad_d_sq_target"] / measured)
        u = _gaussian_stream_vortex(grid, params["vortex_sigma_frac"] * L, 1.0)
        ke = kinetic_energy(rho, u)
        s = math.sqrt(params["ke_target"] / ke) if ke > 0.0 else 0.0
        u = VectorField2D.from_arrays(grid, s * u.u1.values, s * u.u2.values)

    elif name in ("angle-condition", "supercritical"):
        if np.linalg.norm(e - _E3) > 1e-12:
            raise ValueError(f"scenario {name} is built around the north pole; "
                             "set the far-field director to (0, 0, 1)")
        if name == "angle-condition":
            eps = params["epsilon"]
            w_max = math.sqrt((1.0 - eps) / (1.0 + eps))
        else:
            w_max = params["w_max"]
        d = _winding_patch(grid, params["sigma_frac"], w_max)
        rho = ScalarField2D.full(grid, rho_bar)
        u = _gaussian_stream_vortex(grid, 0.12 * L, params["vortex_amp"])

    else:  # taylor-green
        amp = params["amplitude"]
        x, y = _coordinates(grid)
        ax = 2.0 * np.pi * x / grid.lx
        ay = 2.0 * np.pi * y / grid.ly
        u = VectorField2D.from_arrays(
            grid, amp * np.sin(ax) * np.cos(ay),
            -amp * (grid.ly / grid.lx) * np.cos(ax) * np.sin(ay))
        rho = ScalarField2D.full(grid, rho_bar)
        d = DirectorField2D.constant(grid, e)

    if unit_drift(d) > 1e-12:
        raise ValueError("scenario produced a non-unit director")
    return SimState(rho=rho, u=u, d=d, t=0.0, step=0)
