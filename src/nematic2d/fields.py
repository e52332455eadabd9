"""Periodic grid containers and spectral calculus on the 2D torus.

Fields are sampled on a uniform nx-by-ny grid over a periodic lx-by-ly box.
Arrays are row-major with shape (ny, nx): axis 0 runs along y, axis 1 along x.
Derivatives are pseudo-spectral and exact for resolved Fourier modes; the
Nyquist column/row is dropped from first derivatives so that derivatives of
real fields stay real (grids must be even for this mode pairing).

Every field is real, so transforms keep the half spectrum of rfft2: shape
(ny, nx//2 + 1), with kx = 0 .. nx/2 along axis 1 (rfftfreq) and the full
fftfreq order of ky along axis 0. The modes kx = -1 .. -(nx/2 - 1) are the
complex conjugates of stored ones and are not kept. This module alone knows
the layout; other modules build multipliers from Grid2D.k2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class NonFiniteError(ValueError):
    """A field or a logged diagnostic took a non-finite value."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic grid: sample counts (nx, ny) on an lx-by-ly box."""

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self) -> None:
        if self.nx < 8 or self.ny < 8 or self.nx % 2 or self.ny % 2:
            raise ValueError(f"grid sizes must be even and at least 8, got "
                             f"nx={self.nx}, ny={self.ny}")
        if not (0.0 < self.lx < np.inf and 0.0 < self.ly < np.inf):
            raise ValueError(f"box side lengths must be positive and "
                             f"finite, got lx={self.lx}, ly={self.ly}")

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays X, Y of shape (ny, nx)."""
        return np.meshgrid(np.arange(self.nx) * self.dx,
                           np.arange(self.ny) * self.dy)

    # kx/ky feed first derivatives (Nyquist zeroed); k2 is the full |k|^2
    # used by the Laplacian and implicit Helmholtz solves. kx, and so k2,
    # has the nx//2 + 1 columns of the rfft2 half spectrum.
    @cached_property
    def kx(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.rfftfreq(self.nx, d=self.dx)
        k[self.nx // 2] = 0.0
        return k[None, :]

    @cached_property
    def ky(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)
        k[self.ny // 2] = 0.0
        return k[:, None]

    @cached_property
    def k2(self) -> np.ndarray:
        kx = 2.0 * np.pi * np.fft.rfftfreq(self.nx, d=self.dx)
        ky = 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)
        return (kx**2)[None, :] + (ky**2)[:, None]

    # Parseval weight of each half-spectrum column: columns 1 .. nx/2 - 1
    # stand for themselves and their conjugate modes
    @cached_property
    def column_weight(self) -> np.ndarray:
        w = np.full(self.nx // 2 + 1, 2.0)
        w[0] = w[self.nx // 2] = 1.0
        return w[None, :]

    # int |grad f|^2 = sum(gradient_weight * |rfft2(f)|^2), with the kx/ky
    # of first derivatives (Nyquist dropped)
    @cached_property
    def gradient_weight(self) -> np.ndarray:
        return ((self.kx**2 + self.ky**2) * self.column_weight
                * (self.cell_area / (self.nx * self.ny)))


@dataclass(frozen=True, eq=False)
class ScalarField2D:
    """Real scalar samples on a Grid2D; finite by construction."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"expected shape {self.grid.shape}, got {v.shape}")
        if not np.isfinite(v).all():
            raise NonFiniteError("field values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @cached_property
    def is_constant(self) -> bool:
        """min = max, the one constant-field rule: such a field has zero
        derivatives and needs no transform. Cached; values are read-only."""
        return bool(self.values.min() == self.values.max())

    @classmethod
    def zeros(cls, grid: Grid2D) -> "ScalarField2D":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid: Grid2D, value: float) -> "ScalarField2D":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: Grid2D, fn) -> "ScalarField2D":
        X, Y = grid.meshgrid()
        return cls(grid, fn(X, Y))


@dataclass(frozen=True, eq=False)
class VectorField2D:
    """Two scalar components (u1, u2) sharing one grid."""

    u1: ScalarField2D
    u2: ScalarField2D

    def __post_init__(self) -> None:
        if self.u1.grid != self.u2.grid:
            raise ValueError("vector components live on different grids")

    @property
    def grid(self) -> Grid2D:
        return self.u1.grid

    def as_array(self) -> np.ndarray:
        """Stacked copy of shape (2, ny, nx)."""
        return np.stack([self.u1.values, self.u2.values])

    @classmethod
    def from_arrays(cls, grid: Grid2D, a1, a2) -> "VectorField2D":
        return cls(ScalarField2D(grid, a1), ScalarField2D(grid, a2))

    @classmethod
    def zeros(cls, grid: Grid2D) -> "VectorField2D":
        return cls(ScalarField2D.zeros(grid), ScalarField2D.zeros(grid))


@dataclass(frozen=True, eq=False)
class DirectorField2D:
    """Sphere-valued orientation field with components (d1, d2, d3)."""

    d1: ScalarField2D
    d2: ScalarField2D
    d3: ScalarField2D

    def __post_init__(self) -> None:
        if not (self.d1.grid == self.d2.grid == self.d3.grid):
            raise ValueError("director components live on different grids")

    @property
    def grid(self) -> Grid2D:
        return self.d1.grid

    @property
    def components(self) -> tuple[ScalarField2D, ScalarField2D, ScalarField2D]:
        return (self.d1, self.d2, self.d3)

    @property
    def is_constant(self) -> bool:
        return all(c.is_constant for c in self.components)

    def as_array(self) -> np.ndarray:
        """Stacked copy of shape (3, ny, nx)."""
        return np.stack([self.d1.values, self.d2.values, self.d3.values])

    @classmethod
    def from_arrays(cls, grid: Grid2D, a1, a2, a3) -> "DirectorField2D":
        return cls(ScalarField2D(grid, a1), ScalarField2D(grid, a2),
                   ScalarField2D(grid, a3))

    @classmethod
    def constant(cls, grid: Grid2D, e) -> "DirectorField2D":
        e = np.asarray(e, dtype=float)
        return cls.from_arrays(grid, np.full(grid.shape, e[0]),
                               np.full(grid.shape, e[1]),
                               np.full(grid.shape, e[2]))


# ---------------------------------------------------------------------------
# array-level spectral operators (the field wrappers below defer to these)

def integral(grid: Grid2D, values: np.ndarray) -> float:
    """Rectangle-rule integral over the box, spectrally accurate for
    smooth periodic integrands."""
    return float(values.sum() * grid.cell_area)


def derivative_arrays(grid: Grid2D, a: np.ndarray | None, order: int = 1,
                      spectrum: np.ndarray | None = None) -> list[np.ndarray]:
    """[dx a, dy a] at order 1, then lap a at order 2, all from one forward
    transform of a.

    a has shape (..., ny, nx); leading axes stack fields that are
    transformed together, and every output has the shape of a. Given
    `spectrum`, a half spectrum whose inverse transform is a (such as the
    one solenoidal_arrays returns), the outputs take inverse transforms
    only and a is not read.
    """
    s = grid.shape
    h = np.fft.rfft2(a) if spectrum is None else spectrum
    out = [np.fft.irfft2(1j * grid.kx * h, s=s),
           np.fft.irfft2(1j * grid.ky * h, s=s)]
    if order >= 2:
        out.append(np.fft.irfft2(-grid.k2 * h, s=s))
    return out


def parseval_derivatives(grid: Grid2D, a: np.ndarray,
                         order: int = 1) -> list:
    """Gradient integrals by Parseval's identity on the half spectrum,
    summed over the leading axes of a: [int |grad a|^2] at order 1, then
    lap a at order 2 and int |grad lap a|^2 at order 3. One forward
    transform of a, and one inverse for lap a from order 2 on.
    """
    h = np.fft.rfft2(a)
    out = [_gradient_integral(grid, h)]
    if order >= 2:
        h = -grid.k2 * h
        out.append(np.fft.irfft2(h, s=grid.shape))
    if order >= 3:
        out.append(_gradient_integral(grid, h))
    return out


def _gradient_integral(grid: Grid2D, h: np.ndarray) -> float:
    """int |grad f|^2, summed over leading axes, from the half spectrum h
    of f."""
    return float(np.vdot(h, grid.gradient_weight * h).real)


def apply_multiplier(grid: Grid2D, a: np.ndarray, m) -> np.ndarray:
    """Inverse transform of the Fourier multiplier m times the transform of
    a; m is laid out like grid.k2, on the rfft2 half spectrum (ny, nx//2 + 1).
    a has shape (..., ny, nx): leading axes stack fields that share m and
    are transformed in one call each way.

    m must be the restriction of a multiplier with m(-k) = conj(m(k)), such
    as a real function of |k|^2 or i times an odd one, so that the result is
    real; the dropped half of the spectrum is implied by that symmetry.
    """
    h = np.fft.rfft2(a)
    h *= m
    return np.fft.irfft2(h, s=grid.shape)


def lp_norm_array(grid: Grid2D, values: np.ndarray, p: float) -> float:
    """L^p norm by the rectangle rule; p = inf returns the grid max of |f|."""
    if p != np.inf and p < 1:
        raise ValueError("p must be >= 1 or inf")
    a = np.abs(values)
    if p == np.inf:
        return float(a.max())
    if p == 2:
        return float(np.sqrt((a * a).sum() * grid.cell_area))
    return float(((a**p).sum() * grid.cell_area) ** (1.0 / p))


def _leray_spectrum(grid: Grid2D, a: np.ndarray, m=None):
    """Transform of the divergence-free part of stacked a (2, ny, nx), and
    the coefficient c = (k . a_hat)/|k|^2 with grad(phi)_hat = k c. A
    multiplier m, laid out as in apply_multiplier, acts on a first."""
    h = np.fft.rfft2(a)
    if m is not None:
        h *= m
    kx, ky = grid.kx, grid.ky
    ksq = kx**2 + ky**2
    safe = np.where(ksq == 0.0, 1.0, ksq)
    coeff = np.where(ksq == 0.0, 0.0, (kx * h[0] + ky * h[1]) / safe)
    h[0] -= kx * coeff
    h[1] -= ky * coeff
    return h, coeff


def solenoidal_arrays(grid: Grid2D, a: np.ndarray, m=None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Divergence-free part w of stacked a (2, ny, nx) = w + grad(phi), as
    in leray_project, and the half spectrum that w is the inverse transform
    of; phi is not formed. With a multiplier m, laid out as in
    apply_multiplier, w is the divergence-free part of m applied to a, from
    the same one forward and one inverse transform."""
    h = _leray_spectrum(grid, a, m)[0]
    return np.fft.irfft2(h, s=grid.shape), h


# ---------------------------------------------------------------------------
# public field operations

def lp_norm(f: ScalarField2D, p: float) -> float:
    return lp_norm_array(f.grid, f.values, p)


def vector_lp_norm(v: VectorField2D, p: float) -> float:
    """L^p norm of the pointwise Euclidean magnitude |v|."""
    return lp_norm_array(v.grid, np.hypot(v.u1.values, v.u2.values), p)


def gradient(f: ScalarField2D) -> VectorField2D:
    gx, gy = derivative_arrays(f.grid, f.values)
    return VectorField2D.from_arrays(f.grid, gx, gy)


def laplacian(f: ScalarField2D) -> ScalarField2D:
    return ScalarField2D(f.grid, apply_multiplier(f.grid, f.values, -f.grid.k2))


def divergence(v: VectorField2D) -> ScalarField2D:
    g = v.grid
    h = np.fft.rfft2(v.as_array())
    return ScalarField2D(g, np.fft.irfft2(1j * (g.kx * h[0] + g.ky * h[1]),
                                          s=g.shape))


def velocity_from_stream(psi: ScalarField2D) -> VectorField2D:
    """Solenoidal field (-d(psi)/dy, d(psi)/dx); exactly divergence-free
    and mean-free as measured by the spectral operators."""
    gx, gy = derivative_arrays(psi.grid, psi.values)
    return VectorField2D.from_arrays(psi.grid, -gy, gx)


def leray_project(v: VectorField2D) -> tuple[VectorField2D, ScalarField2D]:
    """Helmholtz split v = w + grad(phi) with div(w) = 0; returns (w, phi).

    Modewise w_hat = v_hat - k (k . v_hat)/|k|^2; the zero mode of v passes
    through unchanged and phi has zero mean.
    """
    g = v.grid
    h, coeff = _leray_spectrum(g, v.as_array())
    w = np.fft.irfft2(h, s=g.shape)
    return (VectorField2D.from_arrays(g, w[0], w[1]),
            ScalarField2D(g, np.fft.irfft2(-1j * coeff, s=g.shape)))


TAIL_CUT = 0.5


def spectral_tail_fraction(f: ScalarField2D) -> float:
    """Fraction of non-mean spectral energy above TAIL_CUT times the Nyquist
    wavenumber in either direction; a resolution-loss indicator. 0.0 for a
    constant field, without the transform, whose rounding would otherwise
    read as a tail on grids of radix 5 or 7."""
    if f.is_constant:
        return 0.0
    g = f.grid
    fh = np.fft.rfft2(f.values)
    power = np.abs(fh) ** 2 * g.column_weight
    power[0, 0] = 0.0
    ix = (np.fft.rfftfreq(g.nx) * 2.0)[None, :]  # |kx|/k_nyq in [0, 1]
    iy = np.abs(np.fft.fftfreq(g.ny) * 2.0)[:, None]
    tail = (ix > TAIL_CUT) | (iy > TAIL_CUT)
    total = power.sum()
    if total == 0.0:
        return 0.0
    return float(power[tail].sum() / total)
