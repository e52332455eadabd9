"""2D pseudo-spectral solver for nonhomogeneous incompressible nematic
liquid crystal flow on a periodic box, with the quantitative objects of its
well-posedness theory (energy laws, conserved norms, maximum principles, the
smallness threshold, the Serrin blow-up functional, the rigidity gap)
computed and logged as first-class diagnostics."""

from .config import SimConfig, parse_config
from .diagnostics import (DiagnosticsRecord, DirectorNorms, SampleIntegral,
                          SerrinExponents, SerrinMonitor,
                          admissible_exponents, d3_min, density_deviation,
                          director_grad_l2_sq, director_norms, serrin_norm,
                          smallness_condition, velocity_grad_l2_sq)
from .director import (DegenerateDirectorError, ericksen_stress, renormalize,
                       step_director, unit_drift)
from .fields import (DirectorField2D, Grid2D, NonFiniteError, ScalarField2D,
                     VectorField2D, divergence, gradient, laplacian,
                     leray_project, lp_norm, spectral_tail_fraction,
                     vector_lp_norm, velocity_from_stream)
from .inequalities import (InequalityReport, check_gagliardo_nirenberg,
                           check_ladyzhenskaya, check_log_sobolev,
                           check_poincare_density, gaussian_blob,
                           random_band_limited, sharpening_bumps)
from .io import (export_heatmap, read_csv, read_snapshot, write_csv,
                 write_snapshot)
from .momentum import (ConvergenceError, kinetic_energy, material_derivative,
                       step_momentum)
from .scenarios import SCENARIOS, make_scenario
from .simulation import (RunMonitors, RunResult, initial_state, replay_csv,
                         simulate, step_once)
from .state import SimState, state_violations
from .transport import CFLError, advect_density, cfl_number

__version__ = "0.1.0"
