"""Periodic grid containers and spectral calculus on the 2D torus.

Fields are sampled on a uniform nx-by-ny grid over a periodic lx-by-ly box.
Arrays are row-major with shape (ny, nx): axis 0 runs along y, axis 1 along x.
Derivatives are pseudo-spectral and exact for resolved Fourier modes; the
Nyquist column/row is dropped from first derivatives so that derivatives of
real fields stay real (grids must be even for this mode pairing).
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
            raise ValueError("grid sizes must be even and at least 8")
        if not (self.lx > 0.0 and self.ly > 0.0):
            raise ValueError("box side lengths must be positive")

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

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.dx

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * self.dy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays X, Y of shape (ny, nx)."""
        return np.meshgrid(self.x, self.y)

    # kx/ky feed first derivatives (Nyquist zeroed); k2 is the full |k|^2
    # used by the Laplacian and implicit Helmholtz solves.
    @cached_property
    def kx(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)
        k[self.nx // 2] = 0.0
        return k[None, :]

    @cached_property
    def ky(self) -> np.ndarray:
        k = 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)
        k[self.ny // 2] = 0.0
        return k[:, None]

    @cached_property
    def k2(self) -> np.ndarray:
        kx = 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)
        ky = 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)
        return (kx**2)[None, :] + (ky**2)[:, None]


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


def derivative_arrays(grid: Grid2D, a: np.ndarray,
                      order: int = 1) -> list[np.ndarray]:
    """[dx a, dy a] at order 1, then lap a at order 2 and [dx lap a,
    dy lap a] at order 3, all from one forward transform of a."""
    h = np.fft.fft2(a)
    out = [np.fft.ifft2(1j * grid.kx * h).real,
           np.fft.ifft2(1j * grid.ky * h).real]
    if order >= 2:
        h = -grid.k2 * h
        out.append(np.fft.ifft2(h).real)
    if order >= 3:
        out += [np.fft.ifft2(1j * grid.kx * h).real,
                np.fft.ifft2(1j * grid.ky * h).real]
    return out


def grad_arrays(grid: Grid2D, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return tuple(derivative_arrays(grid, a))


def laplacian_array(grid: Grid2D, a: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(-grid.k2 * np.fft.fft2(a)).real


def divergence_arrays(grid: Grid2D, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    dh = 1j * grid.kx * np.fft.fft2(a1) + 1j * grid.ky * np.fft.fft2(a2)
    return np.fft.ifft2(dh).real


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


def project_arrays(grid: Grid2D, a1: np.ndarray, a2: np.ndarray):
    """Helmholtz split a = w + grad(phi) with div(w) = 0; returns (w1, w2, phi).

    Modewise w_hat = a_hat - k (k . a_hat)/|k|^2; the zero mode of a passes
    through unchanged and phi has zero mean.
    """
    v1h = np.fft.fft2(a1)
    v2h = np.fft.fft2(a2)
    kx, ky = grid.kx, grid.ky
    ksq = kx**2 + ky**2
    safe = np.where(ksq == 0.0, 1.0, ksq)
    coeff = np.where(ksq == 0.0, 0.0, (kx * v1h + ky * v2h) / safe)
    return (np.fft.ifft2(v1h - kx * coeff).real,
            np.fft.ifft2(v2h - ky * coeff).real,
            np.fft.ifft2(-1j * coeff).real)


# ---------------------------------------------------------------------------
# public field operations

def lp_norm(f: ScalarField2D, p: float) -> float:
    return lp_norm_array(f.grid, f.values, p)


def vector_lp_norm(v: VectorField2D, p: float) -> float:
    """L^p norm of the pointwise Euclidean magnitude |v|."""
    return lp_norm_array(v.grid, np.hypot(v.u1.values, v.u2.values), p)


def gradient(f: ScalarField2D) -> VectorField2D:
    gx, gy = grad_arrays(f.grid, f.values)
    return VectorField2D.from_arrays(f.grid, gx, gy)


def laplacian(f: ScalarField2D) -> ScalarField2D:
    return ScalarField2D(f.grid, laplacian_array(f.grid, f.values))


def divergence(v: VectorField2D) -> ScalarField2D:
    return ScalarField2D(v.grid, divergence_arrays(v.grid, v.u1.values,
                                                   v.u2.values))


def velocity_from_stream(psi: ScalarField2D) -> VectorField2D:
    """Solenoidal field (-d(psi)/dy, d(psi)/dx); exactly divergence-free
    and mean-free as measured by the spectral operators."""
    gx, gy = grad_arrays(psi.grid, psi.values)
    return VectorField2D.from_arrays(psi.grid, -gy, gx)


def leray_project(v: VectorField2D) -> tuple[VectorField2D, ScalarField2D]:
    """Divergence-free part of v and its gradient potential (project_arrays)."""
    w1, w2, phi = project_arrays(v.grid, v.u1.values, v.u2.values)
    return VectorField2D.from_arrays(v.grid, w1, w2), ScalarField2D(v.grid, phi)


def spectral_tail_fraction(f: ScalarField2D, cut: float = 0.5) -> float:
    """Fraction of non-mean spectral energy above `cut` times the Nyquist
    wavenumber in either direction; a resolution-loss indicator."""
    g = f.grid
    fh = np.fft.fft2(f.values)
    power = np.abs(fh) ** 2
    power[0, 0] = 0.0
    ix = np.abs(np.fft.fftfreq(g.nx) * 2.0)[None, :]  # |kx|/k_nyq in [0, 1]
    iy = np.abs(np.fft.fftfreq(g.ny) * 2.0)[:, None]
    tail = (ix > cut) | (iy > cut)
    total = power.sum()
    if total == 0.0:
        return 0.0
    return float(power[tail].sum() / total)
