"""Dense linear programming: problem types and a two-phase simplex."""

from gptlab.lp.engine import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
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
    "OPTIMAL",
    "INFEASIBLE",
    "UNBOUNDED",
]
