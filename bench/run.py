"""Solver benchmark: wall time per unit of model time, end to end and per layer.

    python3 bench/run.py --workload all            # every workload, both modes
    python3 bench/run.py --workload bubble-64 --seed 3 --seconds 40 --trace 0

One process per workload. It drives the package from outside through
`initial_state` and `simulate`, repeating whole runs (initial data to t_end)
for --seconds and gating each run on the paper's invariants. With --trace 0
it reports the end-to-end metrics as medians over the runs; with --trace 1 it
alternates untraced and traced runs and reports the per-layer metrics of the
traced ones. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
if not (SRC / "nematic2d" / "__init__.py").is_file():
    raise SystemExit(f"bench: package source {SRC / 'nematic2d'} not found; "
                     "run from a checkout of the repository")
sys.path.insert(0, str(SRC))
# one thread: BLAS pools would only compete with the solver for the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from nematic2d import RunMonitors, initial_state, simulate  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, gate, make_config  # noqa: E402

SETUP_PROBES = 9

END_TO_END = {
    "steps_per_s": "steps/s",
    "sim_time_per_s": "model_t/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "momentum.ms_per_step": "ms/step",
    "momentum.cg_ms_per_step": "ms/step",
    "momentum.cg_iters_mean": "iters",
    "momentum.cg_iters_max": "iters",
    "momentum.ms_per_cg_iter": "ms/iter",
    "transport.ms_per_step": "ms/step",
    "transport.gather_ms_per_step": "ms/step",
    "transport.gather_calls_per_step": "calls/step",
    "director.step_ms_per_step": "ms/step",
    "director.stress_ms_per_step": "ms/step",
    "diagnostics.serrin_ms_per_step": "ms/step",
    "simulation.sample_ms_per_sample": "ms/sample",
    "simulation.sample_share": "fraction",
    "simulation.glue_ms_per_step": "ms/step",
    "fields.fft_calls_per_step": "calls/step",
    "fields.fft_ms_per_step": "ms/step",
    "fields.fft_share": "fraction",
    "fields.fft_bytes_per_step": "bytes/step",
    "fields.scalar_fields_per_step": "count/step",
    "io.write_ms_per_run": "ms/run",
    "scenarios.initial_state_ms": "ms",
    **{f"{layer}.self_ms_per_step": "ms/step"
       for layer in tr.SELF_TIME_LAYERS},
    "trace.overhead_frac": "fraction",
}


def machine_context() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "loadavg": list(os.getloadavg())}


def one_run(w, cfg, tracer: tr.Tracer | None = None) -> dict:
    """One gated run from the initial data to t_end; never raises."""
    rec: dict = {"traced": tracer is not None}
    try:
        with ExitStack() as stack:
            out = None
            if w.write_files:
                OUT.mkdir(exist_ok=True)
                out = stack.enter_context(tempfile.TemporaryDirectory(dir=OUT))
            t0 = perf_counter()
            state = initial_state(cfg)
            rec["initial_state_s"] = perf_counter() - t0
            sim = simulate
            if tracer is not None:
                stack.enter_context(tracer.installed())
                tracer.begin_run()
                sim = tracer.wrap(tr.SIMULATE, simulate)
            t0 = perf_counter()
            result = sim(cfg, state=state, out_dir=out,
                         write_files=w.write_files)
            rec["wall"] = perf_counter() - t0
            rec["problems"] = gate(w, cfg, result)
    except Exception as exc:  # a raising run is a failed run, not a crash
        traceback.print_exc(file=sys.stderr)
        rec["problems"] = [f"raised {type(exc).__name__}: {exc}"]
        return rec
    rec["steps"] = result.summary["steps"]
    rec["sim_time"] = result.state.t - state.t
    if tracer is not None:
        rec["layers"], rec["spans"] = tr.run_metrics(
            tracer, rec["steps"], rec["initial_state_s"])
    return rec


def measure_runs(w, cfg, seconds: float, tracer: tr.Tracer | None = None,
                 probe=None) -> list[dict]:
    """Repeat gated runs for about `seconds`; with a tracer, every second
    run is traced. A run starts only if one more like the last still fits.

    `probe`, if given, is called SETUP_PROBES times between runs, spread
    evenly over the window: set-up times taken in one burst all land in the
    same spell of host speed, and their median then moves with it.
    """
    warm = (cfg.dt or cfg.cfl * min(cfg.grid().dx, cfg.grid().dy)) * 2.0
    one_run(w, replace(cfg, t_end=warm))  # fill lazy caches
    runs: list[dict] = []
    min_runs = 2 if tracer is not None else 1
    probes = 0 if probe is None else SETUP_PROBES
    start = perf_counter()
    last = 0.0
    while len(runs) < min_runs or perf_counter() - start + last <= seconds:
        while probes and perf_counter() - start >= (
                SETUP_PROBES - probes) * seconds / SETUP_PROBES:
            probe()
            probes -= 1
        began = perf_counter()
        traced = tracer is not None and len(runs) % 2 == 1
        gc.collect()  # no collection of an earlier run's garbage in this one
        runs.append(one_run(w, cfg, tracer if traced else None))
        last = perf_counter() - began
    for _ in range(probes):
        probe()
    return runs


def setup_probe(w, seed: int) -> float:
    """Wall time of initial_state plus RunMonitors.fresh in this process."""
    cfg = make_config(w, seed)
    t0 = perf_counter()
    RunMonitors.fresh(cfg, initial_state(cfg))
    return perf_counter() - t0


def fresh_setup(w, seed: int, times: list[float], problems: list[str]
                ) -> None:
    """Time one set-up in a fresh process; append its time or its failure."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--setup-probe", "--workload", w.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        problems.append("set-up probe timed out after 120 s")
        return
    if proc.returncode == 0:
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    else:
        problems.append(f"set-up probe exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-300:]}")


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _lower_quartile(values) -> float:
    """First quartile: the rate that three runs in four reach or beat.

    On a shared host the speed changes in spells of about a minute. The
    fast spells come and go between invocations and move a window's median;
    its slower runs repeat more closely (figures in bench/README.md).
    """
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=4)[0]


def _spread(values, stat: str = "median") -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"{stat} of n={len(values)}, q1 {q1:.6g}, median {q2:.6g}, "
            f"q3 {q3:.6g}")


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print its metrics and return the result line."""
    name = w.name
    cfg = make_config(w, seed)
    machine = machine_context()
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"{cfg.scenario} {cfg.nx}x{cfg.ny}  dt {cfg.dt or 'cfl'}  "
          f"cadence {cfg.cadence}  t_end {cfg.t_end}  "
          f"params {json.dumps(cfg.scenario_params)}")
    print(f"machine {json.dumps(machine)}")

    problems: list[str] = []
    setup: list[float] = []
    tracer = tr.Tracer() if trace else None
    probe = None if trace else (lambda: fresh_setup(w, seed, setup, problems))
    runs = measure_runs(w, cfg, seconds, tracer, probe)

    # each set-up probe and each run is one attempt
    attempted = len(runs) + (0 if trace else SETUP_PROBES)
    failed = len(problems) + sum(1 for r in runs if r["problems"])
    for r in runs:
        problems.extend(r["problems"])
    done = [r for r in runs if not r["problems"]]  # only gated runs time
    rows: list[tuple[str, float, str]] = []
    if trace:
        plain = [r["wall"] for r in done if not r["traced"]]
        traced = [r for r in done if r["traced"]]
        for key in PER_LAYER:
            if key == "trace.overhead_frac":
                value = (_median([r["wall"] for r in traced])
                         / _median(plain) - 1.0) if plain and traced else 0.0
                note = f"{len(traced)} traced / {len(plain)} untraced runs"
            else:
                vals = [r["layers"][key] for r in traced]
                value, note = _median(vals), _spread(vals)
            rows.append((key, value, note))
    else:
        rate = [r["steps"] / r["wall"] for r in done]
        model = [r["sim_time"] / r["wall"] for r in done]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rows = [("steps_per_s", _lower_quartile(rate),
                 _spread(rate, "q1")),
                ("sim_time_per_s", _lower_quartile(model),
                 _spread(model, "q1")),
                ("setup_s", _median(setup),
                 _spread(setup) + " fresh processes"),
                ("peak_rss_mb", rss, "this process")]
    units = PER_LAYER if trace else END_TO_END
    for key, value, note in rows:
        print(f"  {key:34s} {value:14.6g} {units[key]:11s} {note}")
    print(f"  {'failed_fraction':34s} {failed / attempted:14.6g} "
          f"{'fraction':11s} {failed} of {attempted} attempted")
    if trace:
        print(f"  {'span (median over traced runs)':34s} {'calls/step':>10s} "
              f"{'ms/step':>10s} {'self ms/step':>12s}")
        for span in sorted({k for r in traced for k in r["spans"]}):
            cols = [_median([r["spans"][span][i] for r in traced
                             if span in r["spans"]]) for i in range(3)]
            print(f"  {span:34s} {cols[0]:10.4g} {cols[1]:10.4g} "
                  f"{cols[2]:12.4g}")
    if tracer is not None and tracer.missing:
        print(f"  entry points not found, not traced: {tracer.missing}")
    for p in problems:
        print(f"  FAILED: {p}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {key: {"value": value, "unit": units[key]}
                          for key, value, _ in rows}}
    OUT.mkdir(exist_ok=True)
    tag = f"{name}-trace{int(trace)}"
    (OUT / f"{tag}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds,
        "config": {k: getattr(cfg, k) for k in
                   ("nx", "ny", "dt", "cfl", "t_end", "cadence", "scenario",
                    "scenario_params", "cg_tol", "cg_max_iter")},
        "machine": machine, "result": result, "problems": problems,
        "runs": runs, "setup_s": setup,
        "untraced_entry_points": tracer.missing if tracer else [],
    }, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"trace-{name}.jsonl")
    return result


def run_all(seed: int, seconds: float) -> dict:
    """Every workload in its own process, untraced then traced."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"bench: {name} trace {trace} exited "
                                 f"{proc.returncode}")
            res = json.loads(lines[-1])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            total["metrics"].update({f"{name}.{k}": v
                                     for k, v in res["metrics"].items()})
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="0 gives the canonical parameters")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measuring time per workload and mode")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 reports the per-layer metrics (ignored by all)")
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up in this process and exit")
    args = p.parse_args(argv)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(WORKLOADS[args.workload],
                                                 args.seed)}))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
