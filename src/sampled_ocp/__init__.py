"""Sampled-data optimal control toolkit.

Solves fixed-endpoint optimal control problems over piecewise-constant
controls on arbitrary time partitions, reconstructs and certifies
costate lifts through first-order residuals, and runs partition
refinement sweeps that record the convergence of sampled-data optima
toward their permanent-control counterparts.
"""

from .control_partition import (Partition, PiecewiseConstantControl,
                                SampledControlSignal, average_onto,
                                l1_distance, partition_norm, resample_onto,
                                uniform_partition)
from .convergence_harness import (ConvergenceReport, SweepConfig,
                                  fine_surrogate, sweep)
from .integrate import (CostateTrajectory, TimeGrid, Trajectory,
                        build_time_grid, integrate_costate, integrate_state,
                        integrate_variation, transition_matrix)
from .pmp_check import (Extremal, ResidualReport, SampledSolution,
                        ahg_residual, classify_normality, evaluate_extremal,
                        grad_u_hamiltonian, hamiltonian, hg_residual, hm_gap,
                        lift_inequality)
from .problem_model import (Ball, Box, ControlSet, LqProblemData, OcpProblem,
                            ProductSet, build_problem, catalog,
                            load_problem_config, normal_cone_residual,
                            problem_from_callables, project)
from .reference_oracles import (PermanentReference, solve_lq_permanent,
                                solve_lq_sampled_exact)
from .solver_sampled import (SolverOptions, gradient_check, solve,
                             write_solution_bundle)

__version__ = "0.1.0"

__all__ = [
    "Ball", "Box", "ControlSet", "ConvergenceReport", "CostateTrajectory",
    "Extremal", "LqProblemData", "OcpProblem", "Partition",
    "PermanentReference", "PiecewiseConstantControl", "ProductSet",
    "ResidualReport", "SampledControlSignal", "SampledSolution",
    "SolverOptions", "SweepConfig", "TimeGrid", "Trajectory",
    "ahg_residual", "average_onto", "build_problem", "build_time_grid",
    "catalog", "classify_normality", "evaluate_extremal", "fine_surrogate",
    "grad_u_hamiltonian", "gradient_check", "hamiltonian", "hg_residual",
    "hm_gap", "integrate_costate", "integrate_state", "integrate_variation",
    "l1_distance", "lift_inequality", "load_problem_config",
    "normal_cone_residual", "partition_norm", "problem_from_callables",
    "project", "resample_onto", "solve",
    "solve_lq_permanent", "solve_lq_sampled_exact", "sweep",
    "transition_matrix", "uniform_partition", "write_solution_bundle",
]
