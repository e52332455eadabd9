"""Numerical exercise of the functional inequalities behind the estimates.

Constant-free inequalities (Ladyzhenskaya) come back with a pass flag;
constant-bearing ones (Gagliardo-Nirenberg, the density-weighted Poincare
inequality, the logarithmic Sobolev bound) come back as measured ratios to be
tracked over function families, never asserted against an unknown constant.

Whole-space statements are emulated on the periodic box by requiring the
generated families to decay by at least eight e-foldings before the box edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import velocity_grad_l2_sq
from .fields import (Grid2D, ScalarField2D, VectorField2D,
                     gradient_and_spectrum, gradient_integral, half_spectrum,
                     integral, lp_norm, lp_norm_array, real_array)

# families must fall by >= 8 e-foldings before the edge; a Gaussian does so
# when sigma <= min(lx, ly)/8
DECAY_EFOLDINGS = 8.0
# the Ladyzhenskaya check's relative and absolute slack for rounding
_TOL = 1e-9
# the band-limited family keeps modes up to a quarter of the Nyquist one
# and, like the sharpening bumps' widest member, has envelope width 0.1 box
_KCUT_FRAC = 0.25
_SIGMA_FRAC = 0.1


@dataclass
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    ratio: float | None         # lhs/rhs, None when degenerate
    holds: bool | None          # set only for constant-free inequalities
    family_tag: str = ""


def grad_l2(f: ScalarField2D) -> float:
    return math.sqrt(gradient_integral(f.grid, half_spectrum(f.values)))


def check_ladyzhenskaya(f: ScalarField2D,
                        family_tag: str = "") -> InequalityReport:
    """||f||_{L4}^2 <= sqrt(2) ||f||_{L2} ||grad f||_{L2} (constant-free)."""
    lhs = lp_norm(f, 4.0) ** 2
    rhs = math.sqrt(2.0) * lp_norm(f, 2.0) * grad_l2(f)
    ratio = None if rhs == 0.0 else lhs / rhs
    return InequalityReport("ladyzhenskaya", lhs, rhs, ratio,
                            holds=lhs <= rhs * (1.0 + _TOL) + _TOL,
                            family_tag=family_tag)


def check_gagliardo_nirenberg(f: ScalarField2D, p: float,
                              family_tag: str = "") -> InequalityReport:
    """Ratio ||f||_{Lp} / (||f||_{L2}^{2/p} ||grad f||_{L2}^{1-2/p}); the
    family maximum estimates the interpolation constant C(p)."""
    if p < 2.0:
        raise ValueError("p must be >= 2")
    lhs = lp_norm(f, p)
    rhs = lp_norm(f, 2.0) ** (2.0 / p) * grad_l2(f) ** (1.0 - 2.0 / p)
    ratio = None if rhs == 0.0 else lhs / rhs
    return InequalityReport(f"gagliardo_nirenberg_p{p:g}", lhs, rhs, ratio,
                            holds=None, family_tag=family_tag)


def check_poincare_density(rho: ScalarField2D, rho_bar: float,
                           v: VectorField2D,
                           family_tag: str = "") -> InequalityReport:
    """Ratio ||v|| / (||rho^{1/2} v|| + ||grad v||): the density-weighted
    Poincare control that keeps v in L^2 across vacuum regions."""
    if rho_bar <= 0.0:
        raise ValueError("rho_bar must be positive")
    if rho.values.min() < 0.0:
        raise ValueError("density must be nonnegative")
    g = v.grid
    vsq = v.u1.values**2 + v.u2.values**2
    lhs = math.sqrt(integral(g, vsq))
    weighted = math.sqrt(integral(g, rho.values * vsq))
    rhs = weighted + math.sqrt(velocity_grad_l2_sq(v))
    ratio = None if rhs == 0.0 else lhs / rhs
    return InequalityReport("poincare_density", lhs, rhs, ratio, holds=None,
                            family_tag=family_tag)


def check_log_sobolev(times, fields, s: float, t: float, q: float,
                      family_tag: str = "") -> InequalityReport:
    """Ratio of ||f||_{L2(s,t;Linf)} to 1 + ||f||_{L2(s,t;H1)}
    (ln+ ||f||_{L2(s,t;W1q)})^{1/2}; the logarithm tames sup-norm growth."""
    if q <= 2.0:
        raise ValueError("q must exceed 2")
    times = np.asarray(times, dtype=float)
    if len(times) != len(fields) or len(times) < 2:
        raise ValueError("need a time series of at least two samples")
    mask = (times >= s) & (times <= t)
    if mask.sum() < 2:
        raise ValueError("window [s, t] holds fewer than two samples")
    tt = times[mask]
    window = [f for f, m in zip(fields, mask) if m]

    rows = []
    for f in window:
        gx, gy, _ = gradient_and_spectrum(f.grid, f.values)
        gsq = gx * gx + gy * gy
        rows.append((lp_norm(f, np.inf) ** 2,
                     lp_norm(f, 2.0) ** 2 + integral(f.grid, gsq),
                     lp_norm(f, q) + lp_norm_array(f.grid, np.sqrt(gsq), q)))
    sup_sq, h1_sq, w1q = np.array(rows).T

    lhs = math.sqrt(np.trapezoid(sup_sq, tt))
    h1 = math.sqrt(np.trapezoid(h1_sq, tt))
    w = math.sqrt(np.trapezoid(w1q**2, tt))
    rhs = 1.0 + h1 * math.sqrt(max(math.log(w), 0.0) if w > 0.0 else 0.0)
    return InequalityReport(f"log_sobolev_q{q:g}", lhs, rhs, lhs / rhs,
                            holds=None, family_tag=family_tag)


# ---------------------------------------------------------------------------
# function family generators

def _check_decay(grid: Grid2D, sigma: float) -> None:
    limit = min(grid.lx, grid.ly) / DECAY_EFOLDINGS
    if sigma > limit:
        raise ValueError(
            f"envelope sigma {sigma:g} too wide for the box (limit {limit:g}); "
            "whole-space emulation needs decay before the edge")


def gaussian_blob(grid: Grid2D, sigma: float) -> ScalarField2D:
    """exp(-|x - c|^2 / (2 sigma^2)) around the box center c."""
    _check_decay(grid, sigma)
    X, Y = grid.meshgrid()
    r2 = (X - grid.lx / 2.0) ** 2 + (Y - grid.ly / 2.0) ** 2
    return ScalarField2D(grid, np.exp(-r2 / (2.0 * sigma**2)))


def random_band_limited(grid: Grid2D,
                        rng: np.random.Generator) -> ScalarField2D:
    """Random low-wavenumber field shaped by a Gaussian envelope so it decays
    well inside the box."""
    sigma = _SIGMA_FRAC * min(grid.lx, grid.ly)
    _check_decay(grid, sigma)
    # the band on the half spectrum, as whole mode numbers up to
    # _KCUT_FRAC times the Nyquist one along each axis; grid.kx and grid.ky
    # read 0 on the Nyquist column and row, which k2 > grad_k2 marks
    mx = np.rint(np.abs(grid.kx) * (grid.lx / (2.0 * np.pi)))
    my = np.rint(np.abs(grid.ky) * (grid.ly / (2.0 * np.pi)))
    keep = ((mx <= 0.5 * _KCUT_FRAC * grid.nx)
            & (my <= 0.5 * _KCUT_FRAC * grid.ny) & (grid.k2 == grid.grad_k2))
    spec = (rng.standard_normal(keep.shape)
            + 1j * rng.standard_normal(keep.shape)) * keep
    base = real_array(grid, spec)
    scale = np.abs(base).max()
    if scale > 0.0:
        base = base / scale
    env = gaussian_blob(grid, sigma).values
    return ScalarField2D(grid, base * env)


def sharpening_bumps(grid: Grid2D, count: int) -> list[ScalarField2D]:
    """Bumps of fixed height and shrinking width; their sup norm outruns the
    H1 norm, probing the logarithmic correction."""
    sigma0 = _SIGMA_FRAC * min(grid.lx, grid.ly)
    out = []
    for k in range(count):
        sigma = sigma0 / (1.5**k)
        if sigma < 3.0 * max(grid.dx, grid.dy):
            break
        out.append(gaussian_blob(grid, sigma))
    return out
