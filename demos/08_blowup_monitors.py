"""Stress test: a large equator-crossing texture outside every good regime.

Nothing here certifies or refutes breakdown; the point is that the monitors
stay total. The Serrin accumulator, rigidity ratios and energy diagnostics
are logged either until t_end or until the solver declares a numerical
failure (CFL breach, director degeneracy, CG stagnation), which is a logged
outcome rather than a crash.
"""

from nematic2d import (SimConfig, d3_min, director_norms, initial_state,
                       simulate, smallness_condition)

cfg = SimConfig(nx=96, ny=96, dt=2e-4, t_end=0.2, scenario="supercritical",
                scenario_params={"w_max": 3.0}, cadence=100)
st = initial_state(cfg)
value, ok = smallness_condition(st.rho, st.u, st.d)
print(f"smallness value {value:.3e} -> satisfied: {ok} (violated on purpose)")
print(f"initial d3 min {d3_min(st.d):.3f} (crosses the equator, so the "
      "angle-condition route is closed too)")
rep = director_norms(st.d)
print(f"initial rigidity: |grad d|_L4^4 / |hess d|^2 = "
      f"{rep.grad_l4_4 / rep.hess_l2_sq:.3f} (gap {rep.gap_ratio:.3f})")

res = simulate(cfg, write_files=False)
s = res.summary
print(f"\nrun status: {s['status']}")
if s["failure"]:
    print(f"declared failure at step {s['failure']['step']}: "
          f"{s['failure']['cause']}: {s['failure']['message']}")

print(f"\n{'t':>6} {'energy':>10} {'grad_d^2':>10} {'serrin acc':>11} "
      f"{'d3 min':>8} {'tail':>9}")
for rec in res.records:
    print(f"{rec.t:6.3f} {rec.energy_total:10.3f} {rec.grad_d_l2_sq:10.3f} "
          f"{rec.serrin_accumulated:11.4f} {rec.d3_min:8.4f}")
print(f"\nspectral tail fraction of the director at the end: "
      f"{s['director_tail_fraction']:.2e} (resolution-loss indicator)")
print(f"energy monotone: {s['energy_monotone']}")
final = director_norms(res.state.d)
if final.gap_ratio is not None:
    print(f"final rigidity gap: {final.gap_ratio:.3f}")
