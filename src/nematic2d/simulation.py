"""Coupled stepping loop, run monitors, artifacts and the replay checker.

Operator order per step: density transport, director step, elastic stress,
momentum step with projection, then diagnostics at the configured cadence.
Density and director updates use the pre-step velocity; the momentum solve
uses the freshly transported density. Numerical breakdown (CFL breach,
director degeneracy, CG stagnation) is a logged, first-class outcome rather
than an unhandled error.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import platform
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from . import diagnostics as diag
from .config import SimConfig
from .director import (DegenerateDirectorError, ericksen_stress,
                       step_director, unit_drift)
from .fields import (NonFiniteError, divergence_integral, gradient_integral,
                     half_spectrum, integral, spectral_tail_fraction)
from .io import export_heatmap, read_csv, write_csv, write_snapshot
from .momentum import (ConvergenceError, kinetic_energy, material_derivative,
                       step_momentum)
from .scenarios import make_scenario
from .state import SimState
from .transport import CFLError, advect_density, cfl_number

try:
    import resource
except ImportError:  # not on every platform
    resource = None

# per-step headroom of the discrete energy law: a relative floor plus the
# splitting-order term
ENERGY_SLACK_REL = 1e-6
ENERGY_SLACK_DT2 = 10.0
D3_FLOOR_SLACK = 1e-4
IDENTITY_RESIDUAL_ABS = 1e-8
IDENTITY_RESIDUAL_DRIFT = 10.0
BOUND_SLACK = 1e-3


# mallopt parameter numbers in glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
HEAP_MMAP_THRESHOLD = 32 << 20  # the largest value 64-bit glibc accepts
HEAP_TRIM_THRESHOLD = 64 << 20


@functools.cache
def keep_heap_pages() -> bool:
    """Keep freed heap pages resident for the rest of the process; returns
    whether the policy was set. `simulate` calls it before its first step.

    By default glibc serves a block above its mmap threshold (128 KiB at
    first, raised dynamically) by mmap and trims the heap top back to the
    kernel, so the large numpy temporaries of a step come back as fresh
    zero-filled pages: about 4,000 minor faults per step at 256^2, about
    30% of the transform and bicubic-gather time there. With
    mallopt(M_MMAP_THRESHOLD, 32 MiB) and mallopt(M_TRIM_THRESHOLD, 64 MiB)
    blocks up to 32 MiB come from the heap, and up to 64 MiB of free heap
    stays mapped, so peak RSS does not grow. Both are needed: setting
    either one switches off glibc's dynamic thresholds, and either alone
    faults more than the default. Warm angle-256 runs, steps/s and faults
    per step: default 13.0-15.1 and 4,079; trim alone 6.3 and 44,083; mmap
    alone 13.2 and 8,866; both 16.4 and 9. glibc has no call that brings
    the dynamic thresholds back, so the setting is never undone: fixed
    128 KiB thresholds would mmap every large temporary, as in the slow
    trim-alone case.

    Off glibc, or if glibc refuses a value, nothing is changed and False is
    returned. The policy changes no arithmetic.
    """
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mmap first: if it is refused (32-bit glibc caps it lower), the trim
    # threshold is not set alone
    return (mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD) == 1)


def _minor_faults() -> int | None:
    """Minor page faults of this process so far, if `resource` exists."""
    if resource is None:
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def energy_slack(e0, dt, steps=1):
    """Allowed energy rise over `steps` steps of size dt."""
    return steps * (ENERGY_SLACK_REL * e0 + ENERGY_SLACK_DT2 * dt * dt)


@dataclass
class RunMonitors:
    """Everything a run accumulates across steps; carrying this object over
    (together with the state) resumes a run seamlessly."""

    e0: float
    rho0_q2: float
    d3_min0: float
    smallness_value: float
    smallness_ok: bool
    serrin: diag.SerrinMonitor
    # sup ||grad d||^2 and int ||lap d||^2: the small-data director bound
    bound: diag.SampleIntegral = field(default_factory=diag.SampleIntegral)
    # the sup and integral parts of the higher-order energy phi
    phi: diag.SampleIntegral = field(default_factory=diag.SampleIntegral)
    # int D dt, for the energy law E(t) + 2 int_0^t D = E(0)
    dissipation: diag.SampleIntegral = field(
        default_factory=diag.SampleIntegral)
    prev: SimState | None = None  # the last accepted sample
    prev_energy: float = 0.0
    max_energy_excess: float = 0.0
    d3_run_min: float = np.inf
    unit_drift_max: float = 0.0
    identity_excess_max: float = 0.0
    max_cg_iterations: int = 0
    max_cg_residual: float = 0.0
    energy_budget_residual_max: float = 0.0

    @classmethod
    def fresh(cls, cfg: SimConfig, state: SimState) -> "RunMonitors":
        ke = kinetic_energy(state.rho, state.u)
        gd = diag.director_grad_l2_sq(state.d)
        value, ok = diag.smallness_value(ke, gd)
        return cls(e0=ke + gd,
                   rho0_q2=diag.density_deviation(state.rho, cfg.rho_bar),
                   d3_min0=diag.d3_min(state.d), smallness_value=value,
                   smallness_ok=ok,
                   serrin=diag.SerrinMonitor(cfg.serrin_exponents()))


@dataclass
class RunResult:
    records: list
    state: SimState
    monitors: RunMonitors
    summary: dict
    csv_path: str | None = None
    snapshot_paths: list[str] = field(default_factory=list)


def initial_state(cfg: SimConfig) -> SimState:
    return make_scenario(cfg.scenario, cfg.scenario_params, cfg.grid(),
                         rho_bar=cfg.rho_bar, e=cfg.e)


# the stage times step_once writes into its `info`
STEP_STAGES = ("t_transport", "t_director", "t_force", "t_momentum")


def step_once(state: SimState, cfg: SimConfig, dt: float,
              info: dict | None = None) -> SimState:
    """One coupled step of size dt from the given state. If `info` is
    given, it receives step_momentum's CG entries and the wall time in
    seconds of each stage: `t_transport`, `t_director`, `t_force` and
    `t_momentum`. The velocity's derivative bundle (u.derivatives:
    (u . grad)u and u_hat) is made by the momentum step that makes the
    velocity, so it counts in `t_momentum`; the foot points and the
    momentum right side of the next step read it, and that right side
    releases it."""
    info = {} if info is None else info
    t0 = perf_counter()
    rho1 = advect_density(state.rho, state.u, dt, cfl_limit=cfg.cfl)
    t1 = perf_counter()
    d1 = step_director(state.d, state.u, dt)
    t2 = perf_counter()
    force = ericksen_stress(d1)
    t3 = perf_counter()
    u1 = step_momentum(rho1, state.u, force, dt, cg_tol=cfg.cg_tol,
                       cg_max_iter=cfg.cg_max_iter, info=info)
    info.update(t_transport=t1 - t0, t_director=t2 - t1, t_force=t3 - t2,
                t_momentum=perf_counter() - t3)
    return SimState(rho=rho1, u=u1, d=d1, t=state.t + dt, step=state.step + 1)


def _timed(timing: dict, key: str, fn, *args):
    """fn(*args), adding its wall time to timing[key]."""
    t0 = perf_counter()
    out = fn(*args)
    timing[key] += perf_counter() - t0
    return out


def _sample(state: SimState, cfg: SimConfig, mon: RunMonitors, dt: float
            ) -> diag.DiagnosticsRecord:
    """The record of this state. The monitors take it in only once the
    record has validated, so a rejected sample leaves them as they were."""
    rho, u, d = state.rho, state.u, state.d
    g = state.grid
    ke = kinetic_energy(rho, u)
    n = diag.director_norms(d)
    gd2, hess = n.grad_l2_sq, n.hess_l2_sq
    u_hat = u.derivatives[1]
    grad_u = gradient_integral(g, u_hat)
    energy = ke + gd2
    drift_q2 = (abs(diag.density_deviation(rho, cfg.rho_bar) - mon.rho0_q2)
                / max(mon.rho0_q2, 1e-12))
    udrift = unit_drift(d)

    # higher-order monitor; time derivatives are backward differences
    # against the previous cadence sample
    rho_udot = dt_h1 = 0.0
    prev = mon.prev
    if prev is not None and state.t > prev.t:
        span = state.t - prev.t
        a = material_derivative(u, prev.u, span)
        rho_udot = integral(g, rho.values * (a[0]**2 + a[1]**2))
        dtd = (d.as_array() - prev.d.as_array()) / span
        dt_h1 = integral(g, dtd * dtd)
        # a difference of constants has no gradient
        if not (d.is_constant and prev.d.is_constant):
            dt_h1 += gradient_integral(g, half_spectrum(dtd))
    phi = replace(mon.phi)
    phi.update(state.t, rho_udot + dt_h1 + (hess + n.third_l2_sq),
               grad_u + (gd2 + hess))
    rec = diag.DiagnosticsRecord(
        t=state.t, energy_total=energy, dissipation=grad_u + n.tension_l2_sq,
        grad_d_l2_sq=gd2, hess_d_l2_sq=hess, grad_d_l4_4=n.grad_l4_4,
        rho_min=float(rho.values.min()), rho_max=float(rho.values.max()),
        rho_drift_q2=drift_q2, d3_min=diag.d3_min(d), unit_drift=udrift,
        serrin_accumulated=mon.serrin.accumulated,
        phi_value=math.e + phi.sup + phi.integral,
        ke=ke, divu_res=math.sqrt(divergence_integral(g, u_hat)),
        tension_identity_residual=n.identity_residual)

    mon.phi = phi
    mon.bound.update(state.t, hess, gd2)
    mon.d3_run_min = min(mon.d3_run_min, rec.d3_min)
    mon.unit_drift_max = max(mon.unit_drift_max, udrift)
    mon.identity_excess_max = max(
        mon.identity_excess_max, rec.tension_identity_residual
        - (IDENTITY_RESIDUAL_DRIFT * udrift + IDENTITY_RESIDUAL_ABS))
    if prev is not None:
        slack = energy_slack(mon.e0, dt, max(state.step - prev.step, 1))
        mon.max_energy_excess = max(mon.max_energy_excess,
                                    energy - mon.prev_energy - slack)
    mon.dissipation.update(state.t, rec.dissipation)
    mon.energy_budget_residual_max = max(
        mon.energy_budget_residual_max,
        abs(energy + 2.0 * mon.dissipation.integral - mon.e0))
    mon.prev, mon.prev_energy = state, energy
    return rec


def _summary(cfg: SimConfig, state: SimState, mon: RunMonitors,
             failure: dict | None) -> dict:
    # from the spectra that the last step's stress kept in d's bundle
    tail = max(spectral_tail_fraction(c, h) for c, (_, _, h) in zip(
        state.d.components, state.d.derivatives[0]))
    bound = mon.bound.sup + mon.bound.integral
    return {
        "status": "failed" if failure else "completed",
        "failure": failure,
        "t_final": state.t,
        "steps": state.step,
        "scenario": cfg.scenario,
        "smallness_value": mon.smallness_value,
        "smallness_satisfied": mon.smallness_ok,
        "director_bound_value": bound,
        "director_bound_held": bound <= diag.SMALL_DATA_BOUND + BOUND_SLACK,
        "energy_monotone": mon.max_energy_excess <= 0.0,
        "max_energy_excess": mon.max_energy_excess,
        "energy_budget_residual_max": mon.energy_budget_residual_max,
        "energy_budget_residual_rel": (mon.energy_budget_residual_max
                                       / mon.e0 if mon.e0 > 0.0 else None),
        "d3_min_initial": mon.d3_min0,
        "d3_min_run": None if mon.d3_run_min is np.inf else mon.d3_run_min,
        "d3_floor_held": bool(mon.d3_run_min >= mon.d3_min0 - D3_FLOOR_SLACK),
        "serrin_accumulated": mon.serrin.accumulated,
        "unit_drift_max": mon.unit_drift_max,
        "identity_residual_ok": mon.identity_excess_max <= 0.0,
        "max_cg_iterations": mon.max_cg_iterations,
        "max_cg_residual": mon.max_cg_residual,
        "director_tail_fraction": tail,
    }


# overflow shows as a NonFiniteError from the field and record checks, so
# numpy need not warn about it first
@np.errstate(over="ignore", invalid="ignore")
def simulate(cfg: SimConfig, state: SimState | None = None,
             monitors: RunMonitors | None = None, out_dir: str | None = None,
             write_files: bool = True) -> RunResult:
    """Run from t = state.t (or the scenario's initial data) to cfg.t_end.

    Fixed dt when cfg.dt is set, with the last step shortened to end at
    t_end when a full one would pass it; otherwise the step adapts to the
    CFL target with cfl * min(dx, dy) as the quiescent-flow reference, and
    is capped to end at t_end as well. Passing the state and monitors of
    an earlier segment resumes that run: accumulators carry over and the
    initial record is not re-emitted. summary.json is strict JSON:
    non-finite values are written as null.

    summary["timing"] holds the wall time in seconds of this call up to the
    end of stepping (`t_wall`, file writes excluded) and its sums per stage:
    step_once's four stages, the Serrin update (`t_serrin`) and the
    diagnostics samples (`t_sample`). summary["minor_page_faults"] counts
    the process's minor page faults over the same span (None where the
    `resource` module is missing).

    The first call sets the process-wide heap policy of `keep_heap_pages`.
    """
    keep_heap_pages()
    faults0 = _minor_faults()
    start = perf_counter()
    timing = dict.fromkeys(STEP_STAGES + ("t_serrin", "t_sample"), 0.0)
    if state is None:
        state = initial_state(cfg)
    resuming = monitors is not None
    if monitors is None:
        monitors = RunMonitors.fresh(cfg, state)
    records: list[diag.DiagnosticsRecord] = []
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    if write_files:
        out.mkdir(parents=True, exist_ok=True)

    # fixed-dt sample times sit on the lattice origin + step * dt; the
    # origin is where step 0 sits, so a run resumed from a state on that
    # lattice logs the same times as the run that never stopped
    t_origin = state.t - state.step * cfg.dt if cfg.dt is not None else None
    dt_ref = cfg.cfl * min(cfg.grid().dx, cfg.grid().dy)

    failure = None
    eps = 1e-12 * max(1.0, abs(cfg.t_end))
    try:
        if not resuming:
            records.append(_timed(timing, "t_sample", _sample, state, cfg,
                                  monitors, cfg.dt or dt_ref))
        while state.t < cfg.t_end - eps:
            if cfg.dt is not None:
                dt, t_next = cfg.dt, t_origin + (state.step + 1) * cfg.dt
                if t_next > cfg.t_end + eps:  # a full step would pass t_end
                    dt, t_next = cfg.t_end - state.t, cfg.t_end
            else:
                nu = cfl_number(state.u, 1.0)
                dt = cfg.cfl / nu if nu > 0.0 else dt_ref
                dt = min(dt, dt_ref, cfg.t_end - state.t)
                # advect_density checks fl(dt * nu) <= cfl, which rounding
                # can break at the cap dt = cfl / nu
                while dt * nu > cfg.cfl:
                    dt = math.nextafter(dt, 0.0)
            info: dict = {}
            state = step_once(state, cfg, dt, info)
            if cfg.dt is not None:
                state.t = t_next
            monitors.max_cg_iterations = max(monitors.max_cg_iterations,
                                             info.get("cg_iterations", 0))
            monitors.max_cg_residual = max(monitors.max_cg_residual,
                                           info.get("cg_residual", 0.0))
            for key in STEP_STAGES:
                timing[key] += info[key]
            _timed(timing, "t_serrin", monitors.serrin.update, state.d, dt)
            if state.step % cfg.cadence == 0 or state.t >= cfg.t_end - eps:
                records.append(_timed(timing, "t_sample", _sample, state,
                                      cfg, monitors, dt))
    except (CFLError, DegenerateDirectorError, ConvergenceError,
            NonFiniteError) as exc:
        failure = {"step": state.step, "cause": type(exc).__name__,
                   "message": str(exc)}
        if isinstance(exc, ConvergenceError):
            monitors.max_cg_iterations = max(monitors.max_cg_iterations,
                                             exc.iterations)

    timing["t_wall"] = perf_counter() - start
    faults = None if faults0 is None else _minor_faults() - faults0
    summary = _summary(cfg, state, monitors, failure)
    summary["timing"] = timing
    summary["minor_page_faults"] = faults
    csv_path, snapshot_paths = None, []
    if write_files:
        csv_path = str(out / "diagnostics.csv")
        write_csv(records, csv_path)
        snapshot_paths = [str(out / "final.nlc2")]
        write_snapshot(snapshot_paths[0], state)
        strict = {k: None if isinstance(v, float) and not math.isfinite(v)
                  else v for k, v in summary.items()}
        (out / "summary.json").write_text(
            json.dumps(strict, indent=2, allow_nan=False) + "\n",
            encoding="utf-8")
        export_heatmap(state.rho, out / "rho_final.pgm")
    return RunResult(records=records, state=state, monitors=monitors,
                     summary=summary, csv_path=csv_path,
                     snapshot_paths=snapshot_paths)


def replay_csv(path) -> list[str]:
    """Re-verify the CSV-visible run invariants; returns violations."""
    cols = read_csv(path)
    out = []
    t = cols["t"]
    if len(t) == 0:
        return ["empty diagnostics file"]
    for name, v in cols.items():
        if not np.isfinite(v).all():
            out.append(f"non-finite values in column {name}")
    if np.any(np.diff(t) <= 0.0):
        out.append("time samples not strictly increasing")
    if np.any(cols["energy_total"] < 0.0):
        out.append("negative total energy")
    if np.any(cols["rho_min"] < -1e-12):
        out.append("density below the vacuum floor")
    if np.any(np.diff(cols["serrin_acc"]) < 0.0):
        out.append("Serrin accumulator decreased")
    e = cols["energy_total"]
    if len(e) > 1:
        excess = np.diff(e) - energy_slack(e[0], np.diff(t))
        if np.any(excess > 0.0):
            out.append(f"energy law violated by up to {excess.max():.3g}")
    return out
