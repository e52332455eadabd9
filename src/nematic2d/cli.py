"""Command-line entry points: run, check-inequalities, replay, render."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import parse_config
from .fields import Grid2D, ScalarField2D, gradient
from .inequalities import (check_gagliardo_nirenberg, check_ladyzhenskaya,
                           check_poincare_density, gaussian_blob,
                           random_band_limited, sharpening_bumps)
from .io import export_heatmap, read_snapshot
from .simulation import replay_csv, simulate

FAMILIES = ("gaussian", "band-limited", "bumps")
_FIELDS = ("rho", "u1", "u2", "d1", "d2", "d3")


def _fmt(value) -> str:
    """A summary number to 6 significant digits; an absent one (None, e.g.
    the run minimum of d3 when no sample was accepted) as is."""
    return str(value) if value is None else format(value, ".6g")


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    result = simulate(cfg)
    s = result.summary
    print(f"status: {s['status']}")
    if s["failure"]:
        f = s["failure"]
        print(f"  failed at step {f['step']}: {f['cause']}: {f['message']}")
    print(f"t_final: {s['t_final']:g}  steps: {s['steps']}")
    print(f"smallness: value {_fmt(s['smallness_value'])} "
          f"satisfied {s['smallness_satisfied']}")
    print(f"director bound: value {_fmt(s['director_bound_value'])} "
          f"held {s['director_bound_held']}")
    print(f"energy monotone: {s['energy_monotone']}  budget residual max "
          f"{_fmt(s['energy_budget_residual_max'])} "
          f"({_fmt(s['energy_budget_residual_rel'])} of E(0))")
    print(f"d3 floor held: {s['d3_floor_held']} "
          f"(initial {_fmt(s['d3_min_initial'])}, "
          f"run min {_fmt(s['d3_min_run'])})")
    print(f"serrin accumulated: {_fmt(s['serrin_accumulated'])}")
    print(f"cg: max iterations {s['max_cg_iterations']}, max residual "
          f"{_fmt(s['max_cg_residual'])}")
    print(f"csv: {result.csv_path}")
    for p in result.snapshot_paths:
        print(f"snapshot: {p}")
    return 0 if s["status"] == "completed" else 1


def _family_fields(family: str, count: int, seed: int):
    grid = Grid2D(128, 128, 16.0, 16.0)
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        widths = np.linspace(0.5, 2.0, count)
        return grid, [gaussian_blob(grid, s) for s in widths]
    if family == "band-limited":
        return grid, [random_band_limited(grid, rng) for _ in range(count)]
    return grid, sharpening_bumps(grid, count)  # "bumps"


def _cmd_check_inequalities(args) -> int:
    families = [args.family] if args.family else list(FAMILIES)
    rows = []
    all_hold = True
    for family in families:
        grid, fields = _family_fields(family, args.count, args.seed)
        for i, f in enumerate(fields):
            tag = f"{family}[{i}]"
            reports = [check_ladyzhenskaya(f, family_tag=tag),
                       check_gagliardo_nirenberg(f, 4.0, family_tag=tag),
                       check_gagliardo_nirenberg(f, 6.0, family_tag=tag)]
            rho = ScalarField2D.full(grid, 1.0)
            reports.append(check_poincare_density(rho, 1.0, gradient(f),
                                                  family_tag=tag))
            rows.extend(reports)
            if reports[0].holds is False:
                all_hold = False
    print(f"{len(rows)} checks over {families}; "
          f"constant-free inequalities hold: {all_hold}")
    for name in sorted({r.name for r in rows}):
        ratios = [r.ratio for r in rows if r.name == name and r.ratio is not None]
        if ratios:
            print(f"  {name}: max ratio {max(ratios):.6g} over {len(ratios)}")
    if args.out:
        lines = ["name,family_tag,lhs,rhs,ratio,holds"]
        for r in rows:
            ratio = "" if r.ratio is None else format(r.ratio, ".17g")
            holds = "" if r.holds is None else str(r.holds).lower()
            lines.append(f"{r.name},{r.family_tag},{format(r.lhs, '.17g')},"
                         f"{format(r.rhs, '.17g')},{ratio},{holds}")
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if all_hold else 1


def _cmd_replay(args) -> int:
    violations = replay_csv(args.csv)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print("all replayed invariants hold")
    return 0


def _cmd_render(args) -> int:
    state = read_snapshot(args.snapshot)
    lookup = dict(zip(_FIELDS, (state.rho, state.u.u1, state.u.u2,
                                state.d.d1, state.d.d2, state.d.d3)))
    if args.field not in lookup:
        print(f"unknown field {args.field!r}; pick one of {_FIELDS}",
              file=sys.stderr)
        return 2
    export_heatmap(lookup[args.field], args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nematic2d",
        description="2D nematic liquid crystal flow solver and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a simulation from a config file")
    p.add_argument("config")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("check-inequalities",
                       help="exercise functional inequalities on families")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_check_inequalities)

    p = sub.add_parser("replay", help="re-verify invariants of a diagnostics CSV")
    p.add_argument("csv")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("render", help="render a snapshot field to a PGM image")
    p.add_argument("snapshot")
    p.add_argument("field")
    p.add_argument("out")
    p.set_defaults(fn=_cmd_render)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # an unreadable or malformed input
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
