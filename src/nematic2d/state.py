"""Instantaneous solver state."""

from __future__ import annotations

from dataclasses import dataclass

from .director import unit_drift
from .fields import (DirectorField2D, ScalarField2D, VectorField2D,
                     divergence, lp_norm)


@dataclass
class SimState:
    """Density, velocity and director at one instant. The pressure is not
    part of the state: no step or diagnostic reads it."""

    rho: ScalarField2D
    u: VectorField2D
    d: DirectorField2D
    t: float = 0.0
    step: int = 0

    @property
    def grid(self):
        return self.rho.grid


TOL_UNIT = 1e-6  # allowed max | |d|^2 - 1 |
DIV_TOL = 1e-10  # allowed ||div u|| relative to the velocity's L^2 scale


def state_violations(state: SimState) -> list[str]:
    """Check the state invariants; returns human-readable violations."""
    out = []
    if state.rho.values.min() < 0.0:
        out.append(f"negative density {state.rho.values.min():.3g}")
    drift = unit_drift(state.d)
    if drift > TOL_UNIT:
        out.append(f"unit drift {drift:.3g} above {TOL_UNIT:.3g}")
    div = lp_norm(divergence(state.u), 2.0)
    scale = max(lp_norm(state.u.u1, 2.0) + lp_norm(state.u.u2, 2.0), 1.0)
    if div > DIV_TOL * scale:
        out.append(f"velocity divergence {div:.3g} above tolerance")
    return out
