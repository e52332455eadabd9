"""Run configuration and the line-based `key = value` config file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path


from .diagnostics import SerrinExponents
from .fields import Grid2D
from .scenarios import check_param, check_scenario

_FLOAT_KEYS = {"lx", "ly", "dt", "cfl", "t_end", "rho_bar", "e1", "e2", "e3",
               "serrin_r", "serrin_s", "cg_tol"}
_INT_KEYS = {"nx", "ny", "cadence", "cg_max_iter"}
_STR_KEYS = {"scenario", "out_dir"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


@dataclass
class SimConfig:
    nx: int = 64
    ny: int = 64
    lx: float = 1.0
    ly: float = 1.0
    t_end: float = 1.0
    dt: float | None = None        # None selects CFL-adaptive stepping
    cfl: float = 0.9
    rho_bar: float = 1.0
    e: tuple[float, float, float] = (0.0, 0.0, 1.0)
    serrin_r: float = 4.0
    serrin_s: float = 4.0
    cadence: int = 1
    cg_tol: float = 1e-10
    cg_max_iter: int = 500
    scenario: str = "rest"
    scenario_params: dict = field(default_factory=dict)
    out_dir: str = "out"

    def __post_init__(self) -> None:
        # the comparisons are written so that NaN fails them
        finite = (("t_end", "rho_bar", "cfl", "cg_tol")
                  + (() if self.dt is None else ("dt",)))
        for name in finite:
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("cadence", "cg_max_iter"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be at least 1")
        n = math.sqrt(sum(c * c for c in self.e))
        if not abs(n - 1.0) <= 1e-9:
            raise ValueError("far-field director must be a unit vector")
        self.e = tuple(c / n for c in self.e)
        self.grid()  # validates the grid sizes and box
        self.serrin_exponents()  # validates (r, s)
        check_scenario(self.scenario)
        for key, value in self.scenario_params.items():
            check_param(self.scenario, key, value)

    def grid(self) -> Grid2D:
        return Grid2D(self.nx, self.ny, self.lx, self.ly)

    def serrin_exponents(self) -> SerrinExponents:
        return SerrinExponents(self.serrin_r, self.serrin_s)


def parse_config(path: str | Path) -> SimConfig:
    """Read a UTF-8 `key = value` file; unknown keys are errors.

    Scenario parameters use the `scenario.<name>` prefix and are numbers
    that scenarios.check_param accepts for the file's scenario; they are
    checked once the whole file is read, since the `scenario` line may
    follow them. A `scenario` or `scenario.<name>` error names its line,
    and any other error SimConfig raises names the file. A key set twice is
    an error. Blank lines and lines starting with '#' are skipped.
    `serrin_r = inf` is accepted.
    """
    kwargs: dict = {}
    scen: dict = {}
    first_line: dict = {}  # the line each key was set on
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8")
                                 .splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r} "
                             f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        if key.startswith("scenario."):
            pname = key[len("scenario."):]
            if not pname:
                raise ValueError(f"{path}:{lineno}: empty scenario parameter")
            try:
                scen[pname] = float(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} expects a number"
                                 ) from None
        elif key in _FLOAT_KEYS or key in _INT_KEYS:
            integer = key in _INT_KEYS
            try:
                kwargs[key] = int(value) if integer else float(value)
            except ValueError:
                what = "an integer" if integer else "a number"
                raise ValueError(f"{path}:{lineno}: {key} expects {what}"
                                 ) from None
        elif key in _STR_KEYS:
            kwargs[key] = value
        else:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")

    name = kwargs.get("scenario", "rest")
    try:
        key = "scenario"  # the key being checked, for the error's line
        check_scenario(name)
        for pname, number in scen.items():
            key = "scenario." + pname
            check_param(name, pname, number)
    except ValueError as exc:
        raise ValueError(f"{path}:{first_line[key]}: {exc}") from None
    e = (kwargs.pop("e1", 0.0), kwargs.pop("e2", 0.0), kwargs.pop("e3", 1.0))
    try:
        return SimConfig(e=e, scenario_params=scen, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
