"""Projection-free convex optimization via lazy conditional gradient sliding.

The package provides feasible regions with exact linear minimization
oracles, a weak separation oracle with vertex caching, a parameter-free lazy
conditional gradient subproblem solver, accelerated gradient-sliding outer
loops (stochastic, deterministic, strongly convex restarts, smoothed saddle,
and nonsmooth variants), projection-free baselines, and a benchmark CLI.
"""

__version__ = "0.1.0"

from .errors import BudgetExceeded, ConfigError, NumericalError
from .lcg import LcgResult, Subproblem, duality_gap, iteration_bound, lcg_solve, line_search_quadratic
from .objectives import (
    GaussianSfo,
    L1Distance,
    LeastSquares,
    SmoothedSaddle,
    estimate_L,
    estimate_sigma2,
    simplex_project,
)
from .oracle import OracleResponse, VertexCache, weak_separation
from .regions import (
    Birkhoff,
    Box,
    DagPath,
    Enumerated,
    L1Ball,
    Region,
    Simplex,
    Spectrahedron,
    Vertex,
    region_from_spec,
    smat,
    svec,
)
from .schedules import (
    ProblemConstants,
    ScheduleVariant,
    StepParams,
    restart_phase_plan,
    schedule_eval,
)
from .solvers import SolverConfig, run_solver
from .bench import gen_instance, load_instance, run_experiment, summarize
from .trace import Counters, RunTrace, TRACE_COLUMNS, TRACE_HEADER, read_trace_csv

__all__ = [
    "BudgetExceeded", "ConfigError", "NumericalError",
    "LcgResult", "Subproblem", "duality_gap", "iteration_bound", "lcg_solve",
    "line_search_quadratic",
    "GaussianSfo", "L1Distance", "LeastSquares", "SmoothedSaddle",
    "estimate_L", "estimate_sigma2", "simplex_project",
    "OracleResponse", "VertexCache", "weak_separation",
    "Birkhoff", "Box", "DagPath", "Enumerated", "L1Ball", "Region", "Simplex",
    "Spectrahedron", "Vertex", "region_from_spec", "smat", "svec",
    "ProblemConstants", "ScheduleVariant", "StepParams", "restart_phase_plan",
    "schedule_eval",
    "SolverConfig", "run_solver",
    "gen_instance", "load_instance", "run_experiment", "summarize",
    "Counters", "RunTrace", "TRACE_COLUMNS", "TRACE_HEADER", "read_trace_csv",
]
