"""Distributed proximal Jacobi augmented-Lagrangian solver for
block-structured problems coupled through shared linear constraints."""

from .auglag import (aug_lagrangian, eta_pair, lyapunov, penalty_residuals,
                     theorem1_bounds, theorem1_params)
from .jacobi import RunConfig, TraceRecord, init_state, iterate, run
from .model import (BlockSpec, ConstraintSet, IterateState, Params,
                    PolarBalance, Problem, Quadratic, SchemaError,
                    load_problem, save_problem, validate_problem,
                    variable_splitting_transform)
from .tuner import TunerConfig, make_initial_state, run_adaptive

__version__ = "0.1.0"

__all__ = [
    "aug_lagrangian", "eta_pair",
    "lyapunov", "penalty_residuals", "theorem1_bounds",
    "theorem1_params", "RunConfig", "TraceRecord", "init_state", "iterate",
    "run", "BlockSpec", "ConstraintSet", "IterateState", "Params",
    "PolarBalance", "Problem", "Quadratic", "SchemaError", "load_problem",
    "save_problem", "validate_problem", "variable_splitting_transform",
    "TunerConfig", "make_initial_state", "run_adaptive",
]
