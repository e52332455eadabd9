"""Benchmark workloads: the configurations they generate from a seed and the
correctness gate every run of them must pass.

Seed 0 gives the canonical parameters. Any other seed scales each jittered
scenario parameter by an independent factor in [1 - JITTER, 1 + JITTER], small
enough that the layer dominating each workload stays the same. Why each
workload was chosen: bench/README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from nematic2d import SimConfig

JITTER = 0.02

# CFL target of the adaptive workload. The first steps of small-director run
# at the CFL cap, dt = cfl / nu, and advect_density then rejects the step if
# cfl_number(u, dt) = fl(dt * nu) > cfl. At the default cfl = 0.9 rounding
# makes that 0.9000000000000001 on about a third of the seeds, a defect of the
# package (test_default_cfl_cap_step_is_accepted reproduces it). For a power
# of two c, fl(fl(c / nu) * nu) <= c always holds, so at 0.5 the capped steps
# stay exactly at the cap and every seed runs.
CFL_TARGET = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict                  # SimConfig keyword arguments
    params: dict                  # canonical scenario parameters
    jitter: tuple[str, ...]       # parameters perturbed by non-zero seeds
    write_files: bool             # the `nematic2d run` file path
    flags: tuple[str, ...]        # summary flags that must be true
    density_checks: bool = False  # vacuum and density range on every sample


WORKLOADS = {w.name: w for w in (
    Workload(
        name="bubble-64",
        config=dict(nx=64, ny=64, dt=1e-3, t_end=0.04, cadence=1,
                    scenario="vacuum-bubble"),
        params={"vortex_amp": 0.3, "r0_frac": 0.12},
        jitter=("vortex_amp", "r0_frac"),
        write_files=True,
        flags=("energy_monotone", "identity_residual_ok"),
        density_checks=True,
    ),
    Workload(
        name="angle-256",
        config=dict(nx=256, ny=256, dt=2e-3, t_end=0.04, cadence=20,
                    scenario="angle-condition"),
        params={"epsilon": 0.5, "vortex_amp": 0.5},
        jitter=("epsilon", "vortex_amp"),
        write_files=False,
        flags=("energy_monotone", "identity_residual_ok", "d3_floor_held"),
    ),
    Workload(
        name="director-128-cfl",
        # dt omitted: CFL-adaptive. CFL_TARGET, not the default 0.9; see
        # its comment.
        config=dict(nx=128, ny=128, t_end=0.125, cadence=10, cfl=CFL_TARGET,
                    scenario="small-director"),
        params={"rho_blob_amp": 0.5, "ke_target": 1.0},
        jitter=("rho_blob_amp", "ke_target"),
        write_files=False,
        flags=("energy_monotone", "identity_residual_ok",
               "smallness_satisfied"),
    ),
)}


def scenario_params(w: Workload, seed: int) -> dict:
    """The workload's scenario parameters for this seed."""
    params = dict(w.params)
    if seed != 0:
        # stdlib generator: numpy.random would add its own memory to
        # peak_rss_mb on every seed but 0
        rng = random.Random(seed)
        for key in w.jitter:
            params[key] *= 1.0 + JITTER * rng.uniform(-1.0, 1.0)
    return params


def make_config(w: Workload, seed: int, **overrides) -> SimConfig:
    kwargs = dict(w.config, **overrides)
    return SimConfig(scenario_params=scenario_params(w, seed), **kwargs)


def gate(w: Workload, cfg: SimConfig, result) -> list[str]:
    """Paper invariants the run must satisfy; returns the violations.

    The gate checks invariants, not frozen outputs, so a legitimate change
    of scheme does not read as a failure.
    """
    s = result.summary
    problems = []
    if s["status"] != "completed":
        problems.append(f"status {s['status']}: {s['failure']}")
    problems.extend(f"{flag} is false" for flag in w.flags if not s[flag])
    if w.density_checks:
        rho_min = min(r.rho_min for r in result.records)
        rho_max = max(r.rho_max for r in result.records)
        if rho_min < 0.0:
            problems.append(f"negative density {rho_min:.3g}")
        if rho_max > cfg.rho_bar:
            problems.append(f"density {rho_max!r} above rho_bar")
        if any(r.rho_min != 0.0 for r in result.records):
            problems.append("vacuum lost")
    return problems
