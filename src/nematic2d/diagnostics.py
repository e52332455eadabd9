"""Theorem-linked functionals of the flow state and run-level monitors.

Instantaneous quantities (energies, norms, minima, the smallness threshold)
are plain functions of fields; the rigidity ratios are properties of
DirectorNorms. Time-accumulated monitors are fed by the stepping loop: the
Serrin blow-up functional per step, and the small-data director bound and
the higher-order energy per sample through SampleIntegral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .director import director_derivatives
from .fields import (DirectorField2D, NonFiniteError, ScalarField2D,
                     VectorField2D, gradient_integral, half_spectrum,
                     integral, lp_norm_array, real_array)
from .momentum import kinetic_energy

SMALL_DATA_BOUND = 1.0 / 16.0  # the paper's small-data constant


# ---------------------------------------------------------------------------
# norms of director and velocity derivatives

@dataclass(frozen=True)
class DirectorNorms:
    """Integral norms of the director's derivatives from one derivative pass
    (director_norms). On the torus int |lap d|^2 equals the squared L^2 norm
    of all second derivatives, and int |grad lap d|^2 that of all third
    derivatives."""

    grad_l2_sq: float     # int |grad d|^2
    grad_l4_4: float      # int |grad d|^4
    hess_l2_sq: float     # int |lap d|^2
    third_l2_sq: float    # int |grad lap d|^2
    tension_l2_sq: float  # int |lap d + |grad d|^2 d|^2

    @property
    def identity_residual(self) -> float:
        """| int |lap d + |grad d|^2 d|^2 - int(|lap d|^2 - |grad d|^4) |.

        Both sides agree for exactly unit-length maps; the residual scales
        linearly in the unit-length drift and is a constraint-quality meter.
        """
        return abs(self.tension_l2_sq - (self.hess_l2_sq - self.grad_l4_4))

    @property
    def gap_ratio(self) -> float | None:
        """Rigidity gap 1 - int |grad d|^4 / int |lap d|^2, positive for
        maps kept away from the equator; None when int |lap d|^2 = 0."""
        if self.hess_l2_sq == 0.0:
            return None
        return 1.0 - self.grad_l4_4 / self.hess_l2_sq

    @property
    def prop_bound_ratio(self) -> float | None:
        """Tension lower-bound ratio tension_l2_sq / ((hess + grad^4)/2);
        None when the denominator is 0."""
        denom = 0.5 * (self.hess_l2_sq + self.grad_l4_4)
        return None if denom == 0.0 else self.tension_l2_sq / denom


def director_norms(d: DirectorField2D) -> DirectorNorms:
    """All of DirectorNorms from d's memoized bundle (director_derivatives),
    without a forward transform: each component c costs one inverse
    transform of -k^2 c_hat, for lap c in real space, and int |grad lap c|^2
    is taken by Parseval on the same -k^2 c_hat. A constant director
    (d.is_constant) has all norms zero, returned without a transform."""
    if d.is_constant:
        return DirectorNorms(0.0, 0.0, 0.0, 0.0, 0.0)
    g = d.grid
    ders, gs = director_derivatives(d)
    hess = third = tension = 0.0
    for (_, _, h), c in zip(ders, d.components):
        lap_h = -g.k2 * h
        lap = real_array(g, lap_h)
        hess += integral(g, lap**2)
        third += gradient_integral(g, lap_h)
        tension += integral(g, (lap + gs * c.values) ** 2)
    return DirectorNorms(
        grad_l2_sq=integral(g, gs), grad_l4_4=integral(g, gs * gs),
        hess_l2_sq=hess, third_l2_sq=third, tension_l2_sq=tension)


def director_grad_l2_sq(d: DirectorField2D) -> float:
    return integral(d.grid, director_derivatives(d)[1])


def velocity_grad_l2_sq(u: VectorField2D) -> float:
    return gradient_integral(u.grid, half_spectrum(u.as_array()))


def d3_min(d: DirectorField2D) -> float:
    """Spatial infimum of the third director component (the angle-condition
    quantity controlled by the maximum principle)."""
    return float(d.d3.values.min())


def density_deviation(rho: ScalarField2D, rho_bar: float,
                      q: float = 2.0) -> float:
    """||rho - rho_bar||_{L^q}: transport conserves it, so its relative drift
    from the initial value measures the transport error."""
    return lp_norm_array(rho.grid, rho.values - rho_bar, q)


def smallness_condition(rho0: ScalarField2D, u0: VectorField2D,
                        d0: DirectorField2D) -> tuple[float, bool]:
    """Global-existence data threshold
    exp(2(int rho0 |u0|^2 + int |grad d0|^2)) * int |grad d0|^2 <= 1/16."""
    return smallness_value(kinetic_energy(rho0, u0), director_grad_l2_sq(d0))


def smallness_value(ke: float, gd: float) -> tuple[float, bool]:
    """smallness_condition from ke = int rho0 |u0|^2 and
    gd = int |grad d0|^2, evaluated in log space; a value beyond the float
    range is inf."""
    try:
        value = math.exp(2.0 * (ke + gd) + math.log(gd)) if gd > 0.0 else 0.0
    except OverflowError:
        value = math.inf
    return value, value <= SMALL_DATA_BOUND


# ---------------------------------------------------------------------------
# Serrin-type blow-up functional

def admissible_exponents(r: float, s: float) -> tuple[bool, float | None]:
    """Admissibility of (r, s): 1/r + 1/s <= 1/2 with 2 < r <= inf.

    Also returns the interpolation threshold 2r/(r-2) (2.0 at r = inf,
    None for r <= 2) that s must reach for the criterion arithmetic.
    """
    if r <= 2.0:
        return False, None
    threshold = 2.0 if math.isinf(r) else 2.0 * r / (r - 2.0)
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    ok = s > 0.0 and inv_r + 1.0 / s <= 0.5
    return ok, threshold


@dataclass(frozen=True)
class SerrinExponents:
    """Admissible exponent pair for the directional-gradient criterion."""

    r: float
    s: float

    def __post_init__(self) -> None:
        ok, _ = admissible_exponents(self.r, self.s)
        if not ok:
            raise ValueError(f"inadmissible exponents (r={self.r}, s={self.s})")


def serrin_norm(d: DirectorField2D, r: float) -> float:
    """L^r norm of the pointwise gradient magnitude |grad d|, from
    |grad d|^2 in d's memoized bundle (director_derivatives) without its
    square root: (int (|grad d|^2)^(r/2))^(1/r), or sqrt(max |grad d|^2)
    for r = inf. Exactly 0.0 for a constant director, whose bundle holds
    zero arrays."""
    if r < 1:
        raise ValueError("r must be >= 1 or inf")
    grad_sq = director_derivatives(d)[1]
    if r == np.inf:
        return math.sqrt(grad_sq.max())
    return integral(d.grid, grad_sq ** (0.5 * r)) ** (1.0 / r)


@dataclass
class SerrinMonitor:
    """Accumulates int ||grad d||_{L^r}^s dt by per-step rectangles; a finite
    accumulated value over [0, T] rules out breakdown before T. For s = inf
    it keeps the running sup over steps of ||grad d||_{L^r}, the
    L^inf-in-time norm; either form never decreases."""

    exponents: SerrinExponents
    accumulated: float = 0.0

    def update(self, d: DirectorField2D, dt: float) -> None:
        norm, s = serrin_norm(d, self.exponents.r), self.exponents.s
        if math.isinf(s):
            self.accumulated = max(self.accumulated, norm)
        else:
            self.accumulated += norm**s * dt


# ---------------------------------------------------------------------------
# run-level sup plus time integral

@dataclass
class SampleIntegral:
    """Running sup of one sampled quantity and trapezoid-in-time integral of
    another over the sample times. It carries the small-data director bound
    sup ||grad d||^2 + int ||lap d||^2 <= SMALL_DATA_BOUND, the two parts of
    the higher-order energy phi and the dissipation integral of
    the energy law."""

    sup: float = 0.0
    integral: float = 0.0
    _prev: tuple[float, float] | None = None  # last sample's (t, integrand)

    def update(self, t: float, integrand: float, sup_term: float = 0.0) -> None:
        self.sup = max(self.sup, sup_term)
        if self._prev is not None:
            t0, b0 = self._prev
            self.integral += 0.5 * (b0 + integrand) * (t - t0)
        self._prev = (t, integrand)


# ---------------------------------------------------------------------------
# per-sample record

@dataclass
class DiagnosticsRecord:
    """One time sample of every monitored functional."""

    t: float
    energy_total: float
    dissipation: float
    grad_d_l2_sq: float
    hess_d_l2_sq: float
    grad_d_l4_4: float
    rho_min: float
    rho_max: float
    rho_drift_q2: float
    d3_min: float
    unit_drift: float
    serrin_accumulated: float
    phi_value: float
    ke: float
    divu_res: float
    tension_identity_residual: float = 0.0

    def __post_init__(self) -> None:
        for name, v in vars(self).items():
            if not math.isfinite(v):
                raise NonFiniteError(f"non-finite diagnostic {name}")
        if self.energy_total < 0.0:
            raise ValueError("negative total energy")
        if self.rho_min < -1e-12:
            raise ValueError("density fell below the vacuum floor")
