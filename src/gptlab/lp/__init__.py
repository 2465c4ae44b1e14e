"""Dense linear programming: feasibility problems and a phase-1 simplex."""

from gptlab.lp.engine import (
    FEASIBLE,
    INFEASIBLE,
    LinearProgram,
    LpSolution,
    lp_feasible,
    lp_solve,
)

__all__ = [
    "LinearProgram",
    "LpSolution",
    "lp_solve",
    "lp_feasible",
    "FEASIBLE",
    "INFEASIBLE",
]
