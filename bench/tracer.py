"""In-memory span tracer wrapped around the entry points that
`nematic2d.simulation` calls into each module, and the per-layer metrics
derived from one traced `simulate` run.

Nothing in the package changes: `Tracer.installed()` swaps module attributes
for timing wrappers and puts the originals back on exit. A span is
(name, start, end, parent); parents come from a call stack, so child spans
never overlap and a span's self time is its duration minus the sum of its
children's durations.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import nematic2d.diagnostics
import nematic2d.fields
import nematic2d.momentum
import nematic2d.simulation
import nematic2d.transport

# every 1D, 2D and n-D transform of numpy.fft, real and complex
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
                 "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn")

SIMULATE = "simulation.simulate"
STEP = "simulation.step_once"
SAMPLE = "simulation.sample"
FFT = "fields.fft"
ADVECT = "transport.advect_density"
GATHER = "transport.sample_bicubic"
DIRECTOR = "director.step_director"
STRESS = "director.ericksen_stress"
MOMENTUM = "momentum.step_momentum"
CG = "momentum.cg"
SERRIN = "diagnostics.serrin_update"
IO = ("io.write_csv", "io.write_snapshot", "io.export_heatmap")

# (owner, attribute, span name): the calls simulate makes into each module,
# plus the inner entry points named by the per-layer metrics
_sim = nematic2d.simulation
ENTRY_POINTS = (
    (_sim, "step_once", STEP),
    (_sim, "advect_density", ADVECT),
    (nematic2d.transport, "sample_bicubic", GATHER),
    (_sim, "step_director", DIRECTOR),
    (_sim, "ericksen_stress", STRESS),
    (_sim, "step_momentum", MOMENTUM),
    (nematic2d.momentum, "_pcg", CG),
    (nematic2d.diagnostics.SerrinMonitor, "update", SERRIN),
    (_sim, "_sample", SAMPLE),
    (_sim, "write_csv", IO[0]),
    (_sim, "write_snapshot", IO[1]),
    (_sim, "export_heatmap", IO[2]),
) + tuple((np.fft, f, FFT) for f in FFT_FUNCTIONS)

# layers whose self time is a metric of its own (span-name prefix); the self
# time of every span name is in the span table
SELF_TIME_LAYERS = ("director", "momentum")


class Tracer:
    """Spans and counters of the traced runs, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []        # [name, start, end, parent, run]
        self.counts: Counter = Counter()
        self.cg_iterations: list[int] = []
        self.missing: list[str] = []  # entry points this package lacks
        self.run = 0
        self.run_start = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span per call; `after(args, kwargs, result)`
        runs outside the span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def _after_fft(self, args, kwargs, result) -> None:
        # computed from array sizes: input plus output, no cache effects
        self.counts["fft_bytes"] += np.asarray(args[0]).nbytes + result.nbytes

    def _after_step(self, args, kwargs, result) -> None:
        info = args[3] if len(args) > 3 else kwargs.get("info")
        self.cg_iterations.append(int((info or {}).get("cg_iterations", 0)))

    @contextmanager
    def installed(self):
        """Wrap every entry point while the block runs."""
        hooks = {FFT: self._after_fft, STEP: self._after_step}
        saved = []
        try:
            for owner, attr, name in ENTRY_POINTS:
                original = owner.__dict__.get(attr)
                if original is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hooks.get(name)))
            cls = nematic2d.fields.ScalarField2D
            post_init = cls.__dict__.get("__post_init__")
            if post_init is None:
                if "fields.ScalarField2D" not in self.missing:
                    self.missing.append("fields.ScalarField2D")
            else:
                def counted(field_self):
                    self.counts["scalar_fields"] += 1
                    post_init(field_self)
                saved.append((cls, "__post_init__", post_init))
                cls.__post_init__ = counted
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def begin_run(self) -> None:
        self.run += 1
        self.run_start = len(self.spans)
        self.counts = Counter()
        self.cg_iterations = []

    def write(self, path) -> None:
        """One JSON line per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "run": run, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "parent": parent}) + "\n")


def run_metrics(tracer: Tracer, steps: int, initial_state_s: float
                ) -> tuple[dict, dict]:
    """Per-layer metrics of the latest traced run (spans since begin_run),
    and its span table: name -> [calls, ms, self ms], each per step.
    `initial_state_s` is the run's untraced initial_state time.

    Counts and times are divided by the run's coupled steps, so calls made
    while sampling and in the monitors' set-up are spread over the steps.
    """
    first = tracer.run_start
    spans = tracer.spans[first:]
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    child: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _, _) in enumerate(spans, start=first):
        self_time[name] += (end - start) - child[idx]

    n = max(steps, 1)
    wall = total[SIMULATE]
    iters = tracer.cg_iterations or [0]
    ms = 1e3
    metrics = {
        "momentum.ms_per_step": total[MOMENTUM] * ms / n,
        "momentum.cg_ms_per_step": total[CG] * ms / n,
        "momentum.cg_iters_mean": float(np.mean(iters)),
        "momentum.cg_iters_max": float(max(iters)),
        "momentum.ms_per_cg_iter": total[CG] * ms / max(sum(iters), 1),
        "transport.ms_per_step": total[ADVECT] * ms / n,
        "transport.gather_ms_per_step": total[GATHER] * ms / n,
        "transport.gather_calls_per_step": calls[GATHER] / n,
        "director.step_ms_per_step": total[DIRECTOR] * ms / n,
        "director.stress_ms_per_step": total[STRESS] * ms / n,
        "diagnostics.serrin_ms_per_step": total[SERRIN] * ms / n,
        "simulation.sample_ms_per_sample":
            total[SAMPLE] * ms / max(calls[SAMPLE], 1),
        "simulation.sample_share": total[SAMPLE] / wall,
        "simulation.glue_ms_per_step":
            (self_time[SIMULATE] + self_time[STEP]) * ms / n,
        "fields.fft_calls_per_step": calls[FFT] / n,
        "fields.fft_ms_per_step": total[FFT] * ms / n,
        "fields.fft_share": total[FFT] / wall,
        "fields.fft_bytes_per_step": tracer.counts["fft_bytes"] / n,
        "fields.scalar_fields_per_step": tracer.counts["scalar_fields"] / n,
        "io.write_ms_per_run": sum(total[name] for name in IO) * ms,
        "scenarios.initial_state_ms": initial_state_s * ms,
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_ms_per_step"] = sum(
            t for name, t in self_time.items()
            if name.startswith(layer + ".")) * ms / n
    table = {name: [calls[name] / n, total[name] * ms / n,
                    self_time[name] * ms / n] for name in calls}
    return metrics, table
