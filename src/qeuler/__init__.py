"""Exact state-vector simulation of post-selected polynomial amplitude maps,
with a quantum Euler integrator for sparse polynomial ODE systems and a
classical oracle checking every quantum-side result."""

from .polysys import (MAX_EULER_DEGREE, OdeSystem, PolynomialMap,
                      ValidationReport, apply_map, check_ode_measure_preserving,
                      euler_map, load_map, load_system, map_from_doc,
                      map_to_doc, reference_integrate, system_from_doc,
                      system_to_doc, validate)
from .qstate import (AmplitudeState, JointState, decode, distance,
                     dump_state_csv, encode, tensor_power)
from .nonlin_step import (AnchorOperator, StepOperator, apply_step, build_A,
                          make_step_operator, operator_norm)
from .euler_driver import (MonteCarloReport, NoiseModel, NoiseReport,
                           ResourcePlan, RunReport, error_bound, integrate,
                           noise_study, plan_resources, report_to_doc,
                           run_deterministic, run_montecarlo, write_report_json,
                           write_trajectory_csv)
from .observables import (Observable, coordinate_expectation, expectation,
                          fourier_mode, fourier_spectrum, hoeffding_shots,
                          identity_observable, load_observable_csv, observable,
                          projector, sample_expectation)
from .systems import (GraphSpec, discrete_nls, identity_map, lorenz,
                      nls_initial_state, orszag_mclaughlin, permutation_map,
                      power_map, random_measure_preserving_map,
                      random_unitary_map, unitary_map)
from ._util import rng_stream

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
