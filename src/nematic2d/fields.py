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

Every transform is made from numpy's 1-D passes: an x-pass is rfft or irfft
along x, a y-pass is fft or ifft along y, and a stacked call over k fields
counts as k passes. half_spectrum and _irfft2 make the passes numpy's rfft2
and irfft2 make, in the same order, so their results are bitwise those of
rfft2/irfft2, without the n-D wrapper's argument handling and with one
complex intermediate fewer. The inverse's y-pass writes into its input only
with overwrite=True, which a caller passes for a temporary spectrum that
nothing reads again (such as 1j * kx * h), never for a spectrum it keeps or
returns.

The x-derivative's multiplier depends on kx alone, so it commutes with the
y-passes: gradient_and_spectrum takes dx a = irfft(1j kx rfft(a)) from the
x-pass alone, before the y-pass that completes the half spectrum, and
values_and_gradient reads a and dx a from one y-pass of a kept spectrum.
Passes per call on real a: 5 for gradient_and_spectrum (rfft, irfft;
fft; ifft, irfft), 4 for apply_multiplier. From a kept spectrum h:
values_and_gradient 5 (ifft, irfft for dy, whose spectrum is freed before
a and dx a take theirs; ifft, irfft, irfft), real_array(grid, h, -k2)
for lap a 2, and gradient_integral and divergence_integral none.

The velocity and the director act on each other only through their
derivatives, so each keeps them as one bundle, the cached property
`derivatives`: a VectorField2D u keeps [(u . grad)u, u_hat] and a
DirectorField2D d ([dx c, dy c, c_hat] per component c, |grad d|^2), each
hat a half spectrum. Fields are frozen with read-only values, so a bundle
cannot go stale. Only this module seeds or drops one:
- seed: the first read makes it, from one forward transform per field
  (none for a constant director), unless VectorField2D.from_spectrum,
  which step_momentum calls, seeded it with inverse passes only;
- read: readers read `.derivatives`; its arrays are read-only, and no
  pass writes into a kept spectrum;
- drop: a field's last reader in a step, step_momentum for the velocity
  and step_director for the director, calls release(f), so that an older
  field kept alive, such as the last sample, holds no bundle.
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
        for n in (self.nx, self.ny):
            if (isinstance(n, bool) or not isinstance(n, (int, np.integer))
                    or n < 8 or n % 2):
                raise ValueError(f"grid sizes must be even integers of at "
                                 f"least 8, got nx={self.nx!r}, "
                                 f"ny={self.ny!r}")
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

    # |k|^2 of the first-derivative kx/ky (Nyquist dropped), which the
    # Leray projection divides by, and a divisor that is 1 where it is 0
    @cached_property
    def grad_k2(self) -> np.ndarray:
        return self.kx**2 + self.ky**2

    @cached_property
    def grad_k2_divisor(self) -> np.ndarray:
        return np.where(self.grad_k2 == 0.0, 1.0, self.grad_k2)

    # Parseval weight of each half-spectrum column: columns 1 .. nx/2 - 1
    # stand for themselves and their conjugate modes
    @cached_property
    def column_weight(self) -> np.ndarray:
        w = np.full(self.nx // 2 + 1, 2.0)
        w[0] = w[self.nx // 2] = 1.0
        return w[None, :]

    # int f^2 = sum(parseval_weight * |rfft2(f)|^2), and int |grad f|^2
    # with gradient_weight, the kx/ky of first derivatives (Nyquist dropped)
    @cached_property
    def parseval_weight(self) -> np.ndarray:
        return self.column_weight * (self.cell_area / (self.nx * self.ny))

    @cached_property
    def gradient_weight(self) -> np.ndarray:
        return self.grad_k2 * self.parseval_weight


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
        vars(self)["values"] = v  # bypasses frozen, as cached_property does

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


class _Components:
    """What a field of scalar components on one grid shares; each subclass
    lists its components in `components`."""

    def __post_init__(self) -> None:
        g = self.components[0].grid
        if any(c.grid != g for c in self.components[1:]):
            raise ValueError(f"{type(self).__name__} components live on "
                             "different grids")

    @property
    def grid(self) -> Grid2D:
        return self.components[0].grid

    def as_array(self) -> np.ndarray:
        """Stacked copy of shape (number of components, ny, nx)."""
        return np.stack([c.values for c in self.components])

    @classmethod
    def from_arrays(cls, grid: Grid2D, *arrays):
        return cls(*(ScalarField2D(grid, a) for a in arrays))


@dataclass(frozen=True, eq=False)
class VectorField2D(_Components):
    """Two scalar components (u1, u2) sharing one grid."""

    u1: ScalarField2D
    u2: ScalarField2D

    @property
    def components(self) -> tuple[ScalarField2D, ScalarField2D]:
        return (self.u1, self.u2)

    @cached_property
    def derivatives(self) -> list[np.ndarray]:
        """[(u . grad)u, u_hat], stacked (2, ny, nx) and half spectrum,
        from one forward transform unless from_spectrum seeded it."""
        return _velocity_bundle(self, *gradient_and_spectrum(
            self.grid, self.as_array()))

    @classmethod
    def from_spectrum(cls, grid: Grid2D, h: np.ndarray) -> "VectorField2D":
        """The velocity whose stacked half spectrum is h, with its bundle
        seeded from h by inverse passes only (values_and_gradient). h is
        kept in the bundle, so the caller hands it over."""
        w, dx, dy = values_and_gradient(grid, h)
        u = cls.from_arrays(grid, w[0], w[1])
        vars(u)["derivatives"] = _velocity_bundle(u, dx, dy, h)
        return u

    @classmethod
    def zeros(cls, grid: Grid2D) -> "VectorField2D":
        return cls(ScalarField2D.zeros(grid), ScalarField2D.zeros(grid))


@dataclass(frozen=True, eq=False)
class DirectorField2D(_Components):
    """Sphere-valued orientation field with components (d1, d2, d3)."""

    d1: ScalarField2D
    d2: ScalarField2D
    d3: ScalarField2D

    @property
    def components(self) -> tuple[ScalarField2D, ScalarField2D, ScalarField2D]:
        return (self.d1, self.d2, self.d3)

    @property
    def is_constant(self) -> bool:
        return all(c.is_constant for c in self.components)

    @cached_property
    def derivatives(self):
        """([dx c, dy c, c_hat] per component c, |grad d|^2), c_hat the
        half spectrum. A constant director gets zero arrays without a
        transform; its zero c_hat lacks only the mean mode, which no
        derivative reads, and the readers of c_hat return before reading
        it."""
        g = self.grid
        if self.is_constant:
            zero, zero_hat = np.zeros(g.shape), np.zeros(g.k2.shape, complex)
            ders, grad_sq = [[zero, zero, zero_hat]] * 3, zero
        else:
            # per component (a stacked pass measured slower to set up),
            # |grad c|^2 summed through two buffers as each pass ends,
            # touching fewer pages
            ders, grad_sq = [], np.zeros(g.shape)
            term, sq = np.empty(g.shape), np.empty(g.shape)
            for c in self.components:
                ders.append(gradient_and_spectrum(g, c.values))
                gx, gy, _ = ders[-1]
                np.multiply(gx, gx, out=term)
                term += np.multiply(gy, gy, out=sq)
                grad_sq += term
        for a in (grad_sq, *ders[0], *ders[1], *ders[2]):
            a.setflags(write=False)
        return ders, grad_sq

    @classmethod
    def constant(cls, grid: Grid2D, e) -> "DirectorField2D":
        e = np.asarray(e, dtype=float)
        return cls.from_arrays(grid, np.full(grid.shape, e[0]),
                               np.full(grid.shape, e[1]),
                               np.full(grid.shape, e[2]))


def _velocity_bundle(u, dx, dy, h) -> list[np.ndarray]:
    """[(u . grad)u, h], read-only, forming (u . grad)u in dx (and writing
    into dy)."""
    dx *= u.u1.values
    dx += np.multiply(u.u2.values, dy, out=dy)
    dx.setflags(write=False)
    h.setflags(write=False)
    return [dx, h]


def release(f):
    """Drop the derivative bundle of the field f and return it (None if f
    holds none); its last reader in a step calls this."""
    return vars(f).pop("derivatives", None)


# ---------------------------------------------------------------------------
# array-level spectral operators (the field wrappers below defer to these)

def half_spectrum(a: np.ndarray) -> np.ndarray:
    """Half spectrum of real a (..., ny, nx), bitwise equal to
    np.fft.rfft2(a): the same 1-D passes, rfft along x and then fft along
    y, without the n-D wrapper, the second pass in place."""
    h = np.fft.rfft(a)
    return np.fft.fft(h, axis=-2, out=h)


def _irfft2(h: np.ndarray, nx: int, overwrite: bool = False) -> np.ndarray:
    """Real array (..., ny, nx) whose half spectrum is h, bitwise equal to
    np.fft.irfft2(h, s=(ny, nx)): ifft along y, then irfft along x. With
    overwrite, the caller hands h over as a temporary and the ifft pass
    writes into it; otherwise h is left as it was."""
    return np.fft.irfft(np.fft.ifft(h, axis=-2, out=h if overwrite else None),
                        nx)


def integral(grid: Grid2D, values: np.ndarray) -> float:
    """Rectangle-rule integral over the box, spectrally accurate for
    smooth periodic integrands."""
    return float(values.sum() * grid.cell_area)


def real_array(grid: Grid2D, h: np.ndarray, m=None) -> np.ndarray:
    """Real array (..., ny, nx) whose half spectrum is h, or m h given a
    multiplier m laid out as in apply_multiplier; h is not written into."""
    if m is None:
        return _irfft2(h, grid.nx)
    return _irfft2(m * h, grid.nx, overwrite=True)


def gradient_and_spectrum(grid: Grid2D, a: np.ndarray) -> list[np.ndarray]:
    """[dx a, dy a, h] for real a (..., ny, nx), h its half spectrum
    (bitwise half_spectrum(a)). dx a comes from the x-pass alone, taken
    before the y-pass that completes h; 5 passes per field."""
    nx = grid.nx
    h = np.fft.rfft(a)
    dx = np.fft.irfft(1j * grid.kx * h, nx)
    h = np.fft.fft(h, axis=-2, out=h)
    return [dx, _irfft2(1j * grid.ky * h, nx, overwrite=True), h]


def values_and_gradient(grid: Grid2D, h: np.ndarray) -> list[np.ndarray]:
    """[a, dx a, dy a] for the real a (..., ny, nx) whose half spectrum is
    h: one y-pass of h serves a (bitwise real_array(grid, h)) and dx a, so
    5 passes per field. h is not written into."""
    nx = grid.nx
    dy = _irfft2(1j * grid.ky * h, nx, overwrite=True)
    hy = np.fft.ifft(h, axis=-2)
    a = np.fft.irfft(hy, nx)
    hy *= 1j * grid.kx
    return [a, np.fft.irfft(hy, nx), dy]


def gradient_integral(grid: Grid2D, h: np.ndarray) -> float:
    """int |grad f|^2 by Parseval's identity, summed over leading axes,
    from the half spectrum h of f."""
    return float(np.vdot(h, grid.gradient_weight * h).real)


def divergence_integral(grid: Grid2D, h: np.ndarray) -> float:
    """int (div v)^2 by Parseval's identity, from v's stacked half spectrum."""
    kh = grid.kx * h[0] + grid.ky * h[1]
    return float(np.vdot(kh, grid.parseval_weight * kh).real)


def apply_multiplier(grid: Grid2D, a: np.ndarray, m) -> np.ndarray:
    """Inverse transform of the Fourier multiplier m times the transform of
    a; m is laid out like grid.k2, on the rfft2 half spectrum (ny, nx//2 + 1).
    a has shape (..., ny, nx): leading axes stack fields that share m and
    are transformed in one call each way.

    m must be the restriction of a multiplier with m(-k) = conj(m(k)), such
    as a real function of |k|^2 or i times an odd one, so that the result is
    real; the dropped half of the spectrum is implied by that symmetry.
    """
    h = half_spectrum(a)
    h *= m
    return _irfft2(h, grid.nx, overwrite=True)


def lp_norm_array(grid: Grid2D, values: np.ndarray, p: float) -> float:
    """L^p norm by the rectangle rule; p = inf returns the grid max of |f|."""
    if not p >= 1:  # NaN fails too
        raise ValueError("p must be >= 1 or inf")
    a = np.abs(values)
    if p == np.inf:
        return float(a.max())
    if p == 2:
        return float(np.sqrt((a * a).sum() * grid.cell_area))
    return float(((a**p).sum() * grid.cell_area) ** (1.0 / p))


def project_spectrum(grid: Grid2D, h: np.ndarray) -> np.ndarray:
    """Remove the gradient part of the stacked half spectrum h
    (2, ny, nx//2 + 1) in place, leaving the divergence-free part as in
    leray_project; returns the coefficient c = (k . h)/|k|^2 with
    grad(phi)_hat = k c. Where |k|^2 = 0, kx = ky = 0, so c = 0."""
    kx, ky = grid.kx, grid.ky
    coeff = (kx * h[0] + ky * h[1]) / grid.grad_k2_divisor
    h[0] -= kx * coeff
    h[1] -= ky * coeff
    return coeff


# ---------------------------------------------------------------------------
# public field operations

def lp_norm(f: ScalarField2D, p: float) -> float:
    return lp_norm_array(f.grid, f.values, p)


def vector_lp_norm(v: VectorField2D, p: float) -> float:
    """L^p norm of the pointwise Euclidean magnitude |v|."""
    return lp_norm_array(v.grid, np.hypot(v.u1.values, v.u2.values), p)


def gradient(f: ScalarField2D) -> VectorField2D:
    gx, gy, _ = gradient_and_spectrum(f.grid, f.values)
    return VectorField2D.from_arrays(f.grid, gx, gy)


def laplacian(f: ScalarField2D) -> ScalarField2D:
    return ScalarField2D(f.grid, apply_multiplier(f.grid, f.values, -f.grid.k2))


def divergence(v: VectorField2D) -> ScalarField2D:
    g = v.grid
    h = half_spectrum(v.as_array())
    return ScalarField2D(g, _irfft2(1j * (g.kx * h[0] + g.ky * h[1]), g.nx,
                                    overwrite=True))


def velocity_from_stream(psi: ScalarField2D) -> VectorField2D:
    """Solenoidal field (-d(psi)/dy, d(psi)/dx); exactly divergence-free
    and mean-free as measured by the spectral operators."""
    gx, gy, _ = gradient_and_spectrum(psi.grid, psi.values)
    return VectorField2D.from_arrays(psi.grid, -gy, gx)


def leray_project(v: VectorField2D) -> tuple[VectorField2D, ScalarField2D]:
    """Helmholtz split v = w + grad(phi) with div(w) = 0; returns (w, phi).

    Modewise w_hat = v_hat - k (k . v_hat)/|k|^2; the zero mode of v passes
    through unchanged and phi has zero mean.
    """
    g = v.grid
    h = half_spectrum(v.as_array())
    coeff = project_spectrum(g, h)
    w = _irfft2(h, g.nx)
    return (VectorField2D.from_arrays(g, w[0], w[1]),
            ScalarField2D(g, _irfft2(-1j * coeff, g.nx, overwrite=True)))


TAIL_CUT = 0.5


def spectral_tail_fraction(f: ScalarField2D, h: np.ndarray | None = None
                           ) -> float:
    """Fraction of non-mean spectral energy above TAIL_CUT times the Nyquist
    wavenumber in either direction; a resolution-loss indicator, read from
    f's kept half spectrum h if given (a bundle's c_hat). 0.0 for a constant
    field, read from no spectrum: its rounding would read as a tail on grids
    of radix 5 or 7."""
    if f.is_constant:
        return 0.0
    g = f.grid
    if h is None:
        h = half_spectrum(f.values)
    power = np.abs(h) ** 2 * g.column_weight
    power[0, 0] = 0.0
    ix = (np.fft.rfftfreq(g.nx) * 2.0)[None, :]  # |kx|/k_nyq in [0, 1]
    iy = np.abs(np.fft.fftfreq(g.ny) * 2.0)[:, None]
    tail = (ix > TAIL_CUT) | (iy > TAIL_CUT)
    total = power.sum()
    if total == 0.0:
        return 0.0
    return float(power[tail].sum() / total)
