"""Radial solver and verification suite for the coupled Schrodinger-Poisson
system on R^3, with the uncoupled limit problem and its variational levels."""

from .config import ConfigError, RunConfig, apply_env_overrides, parse_config, render_config
from .constants import SOBOLEV_S_CLOSED_FORM, best_Cq, constants_report, mu_threshold, sobolev_S
from .functionals import (
    energy,
    gradient_residual,
    pohozaev_P,
)
from .grid import (
    RadialFunction,
    RadialGrid,
    dilate,
    grad_norm_sq,
    h1_norm_sq,
    make_grid,
    norm_lq,
)
from .limit_solver import (
    LimitGroundState,
    limit_ground_state,
    minimize_on_M,
    mountain_pass_b,
    shoot_ground_state,
)
from .nonlinearity import (
    Nonlinearity,
    canonical_family,
    check_hypotheses,
    smallest_kappa,
    user_nonlinearity,
)
from .poisson import PoissonSolution, dirichlet_energy_direct, solve_phi
from .sp_solver import (
    BranchPoint,
    SolutionBranch,
    SolverOptions,
    asymptotics_report,
    continuation,
    find_t0,
    solve_at_lambda,
)

__version__ = "0.1.0"

__all__ = [
    "BranchPoint",
    "ConfigError",
    "LimitGroundState",
    "Nonlinearity",
    "PoissonSolution",
    "RadialFunction",
    "RadialGrid",
    "RunConfig",
    "SOBOLEV_S_CLOSED_FORM",
    "SolutionBranch",
    "SolverOptions",
    "apply_env_overrides",
    "asymptotics_report",
    "best_Cq",
    "canonical_family",
    "check_hypotheses",
    "constants_report",
    "continuation",
    "dilate",
    "dirichlet_energy_direct",
    "energy",
    "find_t0",
    "grad_norm_sq",
    "gradient_residual",
    "h1_norm_sq",
    "limit_ground_state",
    "make_grid",
    "minimize_on_M",
    "mountain_pass_b",
    "mu_threshold",
    "norm_lq",
    "parse_config",
    "pohozaev_P",
    "render_config",
    "shoot_ground_state",
    "smallest_kappa",
    "sobolev_S",
    "solve_at_lambda",
    "solve_phi",
    "user_nonlinearity",
]
