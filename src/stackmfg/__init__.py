"""Equilibrium solver for discrete-time leader/followers mean-field games.

Computes leader-commitment equilibria by a backward recursion over a
discretized (belief, mean-field) state space, rolls them forward into
trajectories, and ships a brute-force oracle for verifying small instances.
"""

from .dynamics import (Prescription, belief_step, belief_step_total,
                       mean_field_step)
from .errors import (EnumerationTooLarge, GridSizeError, NoEquilibriumError,
                     NonConvergenceError, OffSimplexError, StackMFGError,
                     UncheckableProfile, ZeroProbabilityAction)
from .game import GameSpec, ValidationReport, spec_hash, validate
from .games import (InfectionParams, TechAdoptionParams, build_game,
                    build_infection_game, build_tech_adoption_game)
from .grids import JointGrid, JointTable, SimplexGrid, build_grid, simplex_weights
from .oracle import (OracleProfile, SMFEResult, TinyGame, deviation_gain,
                     enumerate_smfe, oracle_report, profile_from_generator)
from .solver import (ConvergenceReport, EquilibriumGenerator, StagePolicy,
                     Trajectory, backward_pass, exact_values, forward_pass,
                     generator_policy, solve_stationary)
from .stage import (SolverConfig, StageSolution, follower_br_set,
                    leader_optimize, stage_values)

__version__ = "0.1.0"

__all__ = [
    "GameSpec", "ValidationReport", "validate", "spec_hash",
    "SimplexGrid", "JointGrid", "JointTable", "build_grid", "simplex_weights",
    "Prescription", "mean_field_step", "belief_step", "belief_step_total",
    "SolverConfig", "StageSolution", "follower_br_set", "leader_optimize",
    "stage_values",
    "EquilibriumGenerator", "StagePolicy", "ConvergenceReport", "Trajectory",
    "backward_pass", "forward_pass", "solve_stationary", "exact_values",
    "generator_policy",
    "TinyGame", "OracleProfile", "SMFEResult", "enumerate_smfe",
    "deviation_gain", "oracle_report", "profile_from_generator",
    "InfectionParams", "TechAdoptionParams", "build_infection_game",
    "build_tech_adoption_game", "build_game",
    "StackMFGError", "GridSizeError", "OffSimplexError",
    "ZeroProbabilityAction", "NoEquilibriumError", "NonConvergenceError",
    "EnumerationTooLarge", "UncheckableProfile",
]
