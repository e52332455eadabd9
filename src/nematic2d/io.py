"""Persistence: diagnostics CSV, binary state snapshots, PGM heatmaps."""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsRecord
from .fields import (DirectorField2D, Grid2D, ScalarField2D, VectorField2D)
from .state import SimState

CSV_COLUMNS = ("t", "energy_total", "dissipation", "grad_d_l2_sq",
               "hess_d_l2_sq", "grad_d_l4_4", "rho_min", "rho_max",
               "rho_drift_q2", "d3_min", "unit_drift", "serrin_acc", "phi",
               "ke", "divu_res")

SNAPSHOT_MAGIC = b"NLC2"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIIIddd")  # magic, version, nx, ny, lx, ly, t


def _fmt(x: float) -> str:
    return format(x, ".17g")


def record_row(rec: DiagnosticsRecord) -> str:
    vals = (rec.t, rec.energy_total, rec.dissipation, rec.grad_d_l2_sq,
            rec.hess_d_l2_sq, rec.grad_d_l4_4, rec.rho_min, rec.rho_max,
            rec.rho_drift_q2, rec.d3_min, rec.unit_drift,
            rec.serrin_accumulated, rec.phi_value, rec.ke, rec.divu_res)
    return ",".join(_fmt(v) for v in vals)


def write_csv(records, path: str | Path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(record_row(r) for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Columns of a diagnostics CSV as float arrays keyed by name. A
    malformed file raises ValueError naming the file, and the line of a
    malformed row."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError(f"{path}: expected the diagnostics CSV header")
    data = np.empty((len(lines) - 1, len(CSV_COLUMNS)))
    for lineno, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        if len(values) != len(CSV_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected "
                             f"{len(CSV_COLUMNS)} values, got {len(values)}")
        try:
            data[lineno - 2] = [float(v) for v in values]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric value") from None
    return {name: data[:, i] for i, name in enumerate(CSV_COLUMNS)}


def write_snapshot(path: str | Path, state: SimState) -> None:
    """Lossless little-endian dump of (rho, u1, u2, d1, d2, d3) plus header.
    A non-finite time t raises ValueError naming path, and writes nothing."""
    if not math.isfinite(state.t):
        raise ValueError(f"{path}: snapshot time t must be finite, "
                         f"got {state.t!r}")
    g = state.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, g.nx, g.ny,
                              g.lx, g.ly, state.t))
        for arr in (state.rho.values, state.u.u1.values, state.u.u2.values,
                    state.d.d1.values, state.d.d2.values, state.d.d3.values):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_snapshot(path: str | Path) -> SimState:
    """The state write_snapshot stored, at step 0. A malformed file raises
    ValueError naming it."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path} is too short for a snapshot header "
                         f"({len(raw)} of {_HEADER.size} bytes)")
    magic, version, nx, ny, lx, ly, t = _HEADER.unpack_from(raw, 0)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError(f"{path} is not a state snapshot")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    if not math.isfinite(t):
        raise ValueError(f"{path}: snapshot time t is not finite ({t!r})")
    try:  # a bad grid, payload size or value
        grid = Grid2D(nx, ny, lx, ly)
        n = nx * ny
        size = len(raw) - _HEADER.size
        if size != 6 * 8 * n:
            raise ValueError(f"snapshot payload has {size} bytes, expected "
                             f"{6 * 8 * n}")
        body = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
        planes = [body[i * n:(i + 1) * n].reshape(ny, nx) for i in range(6)]
        return SimState(
            rho=ScalarField2D(grid, planes[0]),
            u=VectorField2D.from_arrays(grid, planes[1], planes[2]),
            d=DirectorField2D.from_arrays(grid, *planes[3:]), t=t, step=0)
    except ValueError as exc:  # NonFiniteError keeps its type
        raise type(exc)(f"{path}: {exc}") from None


def export_heatmap(f: ScalarField2D, path: str | Path) -> None:
    """8-bit binary PGM, linear min-max scaling, image rows = grid rows.
    A constant field maps to mid-gray (128)."""
    v = f.values
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        pixels = np.rint((v - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pixels = np.full(v.shape, 128, dtype=np.uint8)
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(f"P5\n{g.nx} {g.ny}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
