"""Theorem-linked functionals of the flow state and run-level monitors.

Instantaneous quantities (energies, norms, minima, the smallness threshold,
the rigidity gap) are plain functions of fields. Time-accumulated monitors
(the Serrin blow-up functional, the small-data director bound, and the
higher-order energy) are small stateful classes fed by the stepping loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .director import director_derivatives
from .fields import (DirectorField2D, NonFiniteError, ScalarField2D,
                     VectorField2D, grad_arrays, integral, lp_norm_array)
from .momentum import kinetic_energy


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


def director_norms(d: DirectorField2D) -> DirectorNorms:
    """All of DirectorNorms from one forward transform per component."""
    g = d.grid
    ders, gs = director_derivatives(d, order=3)
    return DirectorNorms(
        grad_l2_sq=integral(g, gs), grad_l4_4=integral(g, gs * gs),
        hess_l2_sq=sum(integral(g, x[2] ** 2) for x in ders),
        third_l2_sq=sum(integral(g, x[3] ** 2 + x[4] ** 2) for x in ders),
        tension_l2_sq=sum(integral(g, (x[2] + gs * c.values) ** 2)
                          for x, c in zip(ders, d.components)))


def director_grad_l2_sq(d: DirectorField2D) -> float:
    return integral(d.grid, director_derivatives(d)[1])


def director_grad_l4_4(d: DirectorField2D) -> float:
    return director_norms(d).grad_l4_4


def director_hessian_l2_sq(d: DirectorField2D) -> float:
    return director_norms(d).hess_l2_sq


def tension_l2_sq(d: DirectorField2D) -> float:
    return director_norms(d).tension_l2_sq


def tension_identity_residual(d: DirectorField2D) -> float:
    return director_norms(d).identity_residual


def velocity_grad_l2_sq(u: VectorField2D) -> float:
    grads = (grad_arrays(u.grid, c.values) for c in (u.u1, u.u2))
    return sum(integral(u.grid, gx * gx + gy * gy) for gx, gy in grads)


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
    exp(2(int rho0 |u0|^2 + int |grad d0|^2)) * int |grad d0|^2 <= 1/16.

    Evaluated in log space; a value beyond the float range is inf."""
    ke = kinetic_energy(rho0, u0)
    gd = director_grad_l2_sq(d0)
    try:
        value = math.exp(2.0 * (ke + gd) + math.log(gd)) if gd > 0.0 else 0.0
    except OverflowError:
        value = math.inf
    return value, value <= 1.0 / 16.0


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
    """L^r norm of the pointwise gradient magnitude |grad d|."""
    return lp_norm_array(d.grid, np.sqrt(director_derivatives(d)[1]), r)


@dataclass
class SerrinMonitor:
    """Accumulates int ||grad d||_{L^r}^s dt by per-step rectangles; a finite
    accumulated value over [0, T] rules out breakdown before T."""

    exponents: SerrinExponents
    accumulated: float = 0.0
    last_increment: float = 0.0

    def update(self, d: DirectorField2D, dt: float) -> float:
        inc = serrin_norm(d, self.exponents.r) ** self.exponents.s * dt
        self.accumulated += inc
        self.last_increment = inc
        return inc


# ---------------------------------------------------------------------------
# rigidity of maps kept away from the equator

@dataclass
class RigidityReport:
    """Both sides of the gradient-vs-hessian rigidity inequality plus the
    tension lower-bound ratio; ratios are None when undefined (zero
    denominators)."""

    lhs: float                      # int |grad d|^4
    rhs: float                      # squared hessian norm
    gap_ratio: float | None         # 1 - lhs/rhs
    tension_sq: float
    prop_bound_ratio: float | None  # tension_sq / ((lap_sq + lhs)/2)


def rigidity_report(d: DirectorField2D) -> RigidityReport:
    n = director_norms(d)
    lhs, rhs, tension = n.grad_l4_4, n.hess_l2_sq, n.tension_l2_sq
    gap = None if rhs == 0.0 else 1.0 - lhs / rhs
    denom = 0.5 * (rhs + lhs)
    bound = None if denom == 0.0 else tension / denom
    return RigidityReport(lhs=lhs, rhs=rhs, gap_ratio=gap,
                          tension_sq=tension, prop_bound_ratio=bound)


# ---------------------------------------------------------------------------
# small-data director bound: sup ||grad d||^2 + int ||hess d||^2 <= 1/16

@dataclass
class DirectorBoundMonitor:
    threshold: float = 1.0 / 16.0
    sup_grad_sq: float = 0.0
    integral_hess_sq: float = 0.0
    _prev: tuple[float, float] | None = None

    def update(self, t: float, grad_l2_sq: float, hess_l2_sq: float) -> None:
        self.sup_grad_sq = max(self.sup_grad_sq, grad_l2_sq)
        if self._prev is not None:
            t0, h0 = self._prev
            self.integral_hess_sq += 0.5 * (h0 + hess_l2_sq) * (t - t0)
        self._prev = (t, hess_l2_sq)

    @property
    def value(self) -> float:
        return self.sup_grad_sq + self.integral_hess_sq

    def satisfied(self, slack: float = 1e-3) -> bool:
        return self.value <= self.threshold + slack


# ---------------------------------------------------------------------------
# higher-order energy monitor

@dataclass(frozen=True)
class PhiSample:
    """One cadence sample of the higher-order energy ingredients. Time
    derivatives are backward differences against the previous sample and
    vanish by convention on the first one."""

    t: float
    grad_u_l2_sq: float
    grad_d_h1_sq: float       # ||grad d||^2 + ||hess d||^2
    rho_udot_l2_sq: float     # int rho |udot|^2
    dt_d_h1_sq: float         # ||d_t||^2 + ||grad d_t||^2
    hess_d_h1_sq: float       # ||hess d||^2 + ||third derivs||^2


def phi_functional(samples: list[PhiSample]) -> float:
    """e + sup over samples of (||grad u||^2 + ||grad d||_{H1}^2) plus the
    trapezoid-in-time integral of the dissipation-order terms."""
    if not samples:
        return math.e
    sup = max(s.grad_u_l2_sq + s.grad_d_h1_sq for s in samples)
    acc = 0.0
    for a, b in zip(samples, samples[1:]):
        ga = a.rho_udot_l2_sq + a.dt_d_h1_sq + a.hess_d_h1_sq
        gb = b.rho_udot_l2_sq + b.dt_d_h1_sq + b.hess_d_h1_sq
        acc += 0.5 * (ga + gb) * (b.t - a.t)
    return math.e + sup + acc


@dataclass
class PhiMonitor:
    """Incremental form of phi_functional over a growing sample list."""

    sup: float = 0.0
    acc: float = 0.0
    _prev_g: float | None = None
    _prev_t: float | None = None

    def update(self, s: PhiSample) -> float:
        self.sup = max(self.sup, s.grad_u_l2_sq + s.grad_d_h1_sq)
        g = s.rho_udot_l2_sq + s.dt_d_h1_sq + s.hess_d_h1_sq
        if self._prev_t is not None:
            self.acc += 0.5 * (self._prev_g + g) * (s.t - self._prev_t)
        self._prev_g = g
        self._prev_t = s.t
        return self.value

    @property
    def value(self) -> float:
        return math.e + self.sup + self.acc


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
    serrin_increment: float
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
