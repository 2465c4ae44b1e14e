"""Dense phase-1 simplex: is a linear system feasible, and at which vertex?

Every LP the package solves is a yes/no question (is a state in a cone, can
states be told apart), so the engine minimizes only the phase-1 sum of
artificials.  Self-contained: the only heavy lifting is the numpy pivot loop
in ``_kernel``, which holds Bland's rule for the rest of the call once it
engages.  Problems at desk scale (up to a few hundred variables) are
assumed; feasible points are vertex solutions, which downstream code uses as
explicit effect witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gptlab.config import resolve_tol
from gptlab.errors import SolverError
from gptlab.lp import _kernel
from gptlab.lp._kernel import pivot

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


def _as_matrix(a, ncols: int) -> np.ndarray:
    if a is None:
        return np.zeros((0, ncols))
    out = np.atleast_2d(np.asarray(a, dtype=float))
    if out.size == 0:
        return np.zeros((0, ncols))
    return out


def _as_vector(b) -> np.ndarray:
    if b is None:
        return np.zeros(0)
    return np.atleast_1d(np.asarray(b, dtype=float))


@dataclass(frozen=True)
class LinearProgram:
    """Find x with ``a_eq @ x = b_eq`` and ``a_ub @ x <= b_ub``.

    The variables are all free, or all nonnegative when ``nonneg`` is set.
    """

    n_vars: int
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    nonneg: bool = False

    def __post_init__(self):
        n = self.n_vars
        a_eq = _as_matrix(self.a_eq, n)
        a_ub = _as_matrix(self.a_ub, n)
        b_eq = _as_vector(self.b_eq)
        b_ub = _as_vector(self.b_ub)
        if a_eq.shape != (b_eq.size, n) or a_ub.shape != (b_ub.size, n):
            raise ValueError("constraint blocks dimensionally inconsistent")
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)


@dataclass(frozen=True)
class LpSolution:
    status: str
    point: np.ndarray | None = None
    max_residual: float = np.nan
    iterations: int = 0


def _standard_columns(prog: LinearProgram, a: np.ndarray) -> np.ndarray:
    """Columns of ``a`` on u ≥ 0: x = u, or x_j = u_2j − u_2j+1 when free."""
    if prog.nonneg:
        return a
    return np.stack([a, -a], axis=2).reshape(a.shape[0], 2 * prog.n_vars)


def _solve_standard(rows_eq, rhs_eq, rows_ub, rhs_ub, tol):
    """Phase-1 simplex on ``rows_eq u = rhs_eq, rows_ub u <= rhs_ub, u >= 0``;
    returns (status, u, iterations).

    The returned point is the tableau solution polished by iterative
    refinement against the original constraint data, removing accumulated
    pivot drift.
    """
    n_std = rows_eq.shape[1]
    n_ub = rows_ub.shape[0]
    m = rows_eq.shape[0] + n_ub
    n_real = n_std + n_ub  # structural + slack columns

    A = np.zeros((m, n_real))
    b = np.concatenate([rhs_eq, rhs_ub])
    A[: rows_eq.shape[0], :n_std] = rows_eq
    A[rows_eq.shape[0] :, :n_std] = rows_ub
    A[rows_eq.shape[0] :, n_std:] = np.eye(n_ub)

    negative = b < 0
    A[negative] *= -1.0
    b[negative] *= -1.0

    # Slack columns of non-negated ≤ rows start basic; other rows need artificials.
    basis = np.full(m, -1, dtype=np.int64)
    needs_artificial = np.ones(m, dtype=bool)
    for i in range(rows_eq.shape[0], m):
        if not negative[i]:
            basis[i] = n_std + (i - rows_eq.shape[0])
            needs_artificial[i] = False
    art_rows = np.nonzero(needs_artificial)[0]
    n_art = art_rows.size

    T = np.zeros((m + 1, n_real + n_art + 1))
    T[:m, :n_real] = A
    T[:m, -1] = b
    for k, i in enumerate(art_rows):
        T[i, n_real + k] = 1.0
        basis[i] = n_real + k

    iters = 0
    keep = np.ones(m, dtype=bool)
    if n_art > 0:
        T[m, :-1] = -T[art_rows, :-1].sum(axis=0)
        T[m, n_real:-1] = 0.0
        T[m, -1] = -b[art_rows].sum()
        status, iters = _kernel.run_pivots(T, basis, tol, 200 * (m + n_real) + 2000)
        if status == _kernel.MAXITER:
            raise SolverError("phase-1 iteration limit", basis=basis.copy())
        if -T[m, -1] > max(tol, 1e-8 * (1.0 + abs(b).max(initial=0.0))):
            return INFEASIBLE, None, iters
        # Clear remaining basic artificials, dropping redundant rows.  Pivots
        # here must be well-scaled; poorly scaled rows are treated as redundant.
        for i in range(m):
            if basis[i] >= n_real:
                real = np.nonzero(np.abs(T[i, :n_real]) > 1e-7)[0]
                if real.size:
                    pivot(T, i, int(real[0]))
                    basis[i] = int(real[0])
                else:
                    keep[i] = False

    # Read the point off the tableau, then polish it against the original
    # rows by iterative refinement in the basic columns.  Degenerate bases
    # can be numerically singular, so refinement (not a fresh solve) is the
    # robust way to remove accumulated pivot drift; the caller re-checks the
    # final residual either way.
    basis = basis[keep]
    u = np.zeros(n_real)
    u[basis] = T[:m, -1][keep]
    scale = 1.0 + abs(b).max(initial=0.0)
    for _ in range(2):
        residual = b - A @ u
        if np.max(np.abs(residual), initial=0.0) <= 1e-12 * scale:
            break
        delta, *_ = np.linalg.lstsq(A[:, basis], residual, rcond=None)
        u[basis] += delta
    return FEASIBLE, u[:n_std], iters


def _residual(prog: LinearProgram, x: np.ndarray) -> float:
    parts = [0.0]
    if prog.b_eq.size:
        parts.append(float(np.max(np.abs(prog.a_eq @ x - prog.b_eq))))
    if prog.b_ub.size:
        parts.append(float(np.max(prog.a_ub @ x - prog.b_ub)))
    if prog.nonneg and x.size:
        parts.append(float(np.max(-x)))
    return max(parts)


def lp_solve(prog: LinearProgram, tol: float | None = None) -> LpSolution:
    """Decide ``prog``; a feasible point is a vertex solution, re-checked by substitution."""
    tol = resolve_tol(tol)
    status, u, iters = _solve_standard(
        _standard_columns(prog, prog.a_eq), prog.b_eq,
        _standard_columns(prog, prog.a_ub), prog.b_ub, tol,
    )
    if status != FEASIBLE:
        return LpSolution(status=status, iterations=iters)
    # + 0.0 turns a -0.0 into 0.0, so that no witness prints a signed zero.
    x = (u if prog.nonneg else u[0::2] - u[1::2]) + 0.0
    residual = _residual(prog, x)
    if residual > 10 * tol:
        raise SolverError(f"feasible point violates constraints by {residual:.3e}")
    return LpSolution(status=FEASIBLE, point=x, max_residual=residual, iterations=iters)


def lp_feasible(prog: LinearProgram, tol: float | None = None) -> tuple[bool, np.ndarray | None]:
    """Phase-1 feasibility; returns a feasible point when one exists.

    Phase 1 accepts up to ``1e-8 * (1 + max|b|)`` of infeasibility, more than
    the ``10 * tol`` residual ``lp_solve`` allows: a point rejected for that
    residual is infeasible.  Iteration-limit errors carry the basis and raise.
    """
    try:
        sol = lp_solve(prog, tol=tol)
    except SolverError as exc:
        if exc.basis is not None:
            raise
        return False, None
    if sol.status == FEASIBLE:
        return True, sol.point
    return False, None
