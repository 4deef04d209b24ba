"""Stochastic-gradient interior-point method for box-constrained minimization.

The solver drives a log-barrier subproblem with prescribed, vanishing
barrier and neighborhood parameter sequences instead of stationarity tests,
keeps every iterate inside a shrinking inner neighborhood of the box via a
closed-form ratio test, and admits both exact and mini-batch gradient
oracles.  Projection baselines and a benchmark harness round out the
package.
"""

from . import errors
from .baselines import (c_constant, match_sipm_endpoints, recurrence_ratio, run_psgm,
                        run_simplified)
from .geometry import (DELTA_CAP, Bounds, KktCertificate, barrier_gradient, barrier_value,
                       default_chi, in_neighborhood, kkt_certificate,
                       project_to_neighborhood, projected_gradient_norm, range_gap,
                       shifted_barrier_value)
from .harness import (EstimatedConstants, ExperimentSpec, ProblemSpec,
                      canonical_report_bytes, estimate_constants, initial_point,
                      load_constants, relative_performance, report_to_csv,
                      report_to_json, run_experiment, save_constants)
from .libsvm import (SparseDataset, align_feature_space, parse_libsvm,
                     parse_libsvm_file, serialize_libsvm)
from .problems import (LogisticObjective, Objective, OneHiddenLayerObjective,
                       QuadraticObjective, batch_sampler, default_hidden_width,
                       gradient_oracle, logistic_dimension, logistic_objective,
                       nn_dimension, nn_objective, quadratic_objective,
                       synthetic_classification)
from .schedules import (BufferSequences, ExponentTriple, PowerSchedule,
                        StaircaseSchedule, build_staircase, min_mu1_threshold,
                        mu1_init, sequences, theta0_init, validate_exponents)
from .solver import RunResult, SolverConfig, build_hk, run, sipm_step
from .stepsize import (Constants, ScheduleContext, StepSizeBundle, ratio_test,
                       step_size_bundle)

__version__ = "0.1.0"
