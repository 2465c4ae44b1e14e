"""Dense two-phase simplex with Bland's anti-cycling rule.

Self-contained: the only heavy lifting is the numpy pivot loop in
``_kernel``.  Problems at desk scale (up to a few hundred variables) are
assumed; solutions are vertex solutions, which downstream code uses as
explicit effect witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gptlab.config import resolve_tol
from gptlab.errors import SolverError
from gptlab.lp import _kernel
from gptlab.lp._kernel import pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


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
    """maximize ``objective @ x`` subject to equalities, ≤-inequalities and bounds.

    ``bounds`` is an ``(n, 2)`` array of per-variable ``[lo, hi]`` with ``±inf``
    allowed; variables default to free.
    """

    objective: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    bounds: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        if c.ndim != 1:
            raise ValueError("objective must be a vector")
        n = c.size
        a_eq = _as_matrix(self.a_eq, n)
        a_ub = _as_matrix(self.a_ub, n)
        b_eq = _as_vector(self.b_eq)
        b_ub = _as_vector(self.b_ub)
        if a_eq.shape != (b_eq.size, n) or a_ub.shape != (b_ub.size, n):
            raise ValueError("constraint blocks dimensionally inconsistent")
        if self.bounds is None:
            bounds = np.column_stack([np.full(n, -np.inf), np.full(n, np.inf)])
        else:
            bounds = np.asarray(self.bounds, dtype=float)
            if bounds.shape != (n, 2):
                raise ValueError("bounds must have shape (n, 2)")
            if np.any(bounds[:, 0] > bounds[:, 1]):
                raise ValueError("lower bound above upper bound")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)
        object.__setattr__(self, "bounds", bounds)

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    status: str
    point: np.ndarray | None = None
    value: float = np.nan
    max_residual: float = np.nan
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def _standard_form(prog: LinearProgram):
    """Rewrite as min c_std·u, A u {=,≤} b, u ≥ 0 via x = t + S u."""
    n = prog.n_vars
    lo, hi = prog.bounds[:, 0], prog.bounds[:, 1]
    cols: list[np.ndarray] = []
    extra_rows: list[tuple[int, float]] = []  # (std column, upper value)
    t = np.zeros(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lo[j]):
            t[j] = lo[j]
            cols.append(e)
            if np.isfinite(hi[j]):
                extra_rows.append((len(cols) - 1, hi[j] - lo[j]))
        elif np.isfinite(hi[j]):
            t[j] = hi[j]
            cols.append(-e)
        else:
            cols.append(e)
            cols.append(-e)
    S = np.column_stack(cols) if cols else np.zeros((n, 0))
    n_std = S.shape[1]

    rows_eq = prog.a_eq @ S
    rhs_eq = prog.b_eq - prog.a_eq @ t
    n_bound = len(extra_rows)
    rows_ub = np.zeros((prog.a_ub.shape[0] + n_bound, n_std))
    rows_ub[: prog.a_ub.shape[0]] = prog.a_ub @ S
    rhs_ub = np.concatenate([prog.b_ub - prog.a_ub @ t, np.zeros(n_bound)])
    for k, (col, val) in enumerate(extra_rows):
        rows_ub[prog.a_ub.shape[0] + k, col] = 1.0
        rhs_ub[prog.a_ub.shape[0] + k] = val

    c_std = -(S.T @ prog.objective)  # minimize the negated objective
    return S, t, c_std, rows_eq, rhs_eq, rows_ub, rhs_ub


def _solve_standard(c_std, rows_eq, rhs_eq, rows_ub, rhs_ub, tol):
    """Two-phase simplex on the standard form; returns (status, u, iterations).

    The returned point is the tableau solution polished by iterative
    refinement against the original constraint data, removing accumulated
    pivot drift.
    """
    n_std = c_std.size
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

    total_iters = 0
    max_iter = 200 * (m + n_real) + 2000

    if n_art > 0:
        T[m, :-1] = -T[art_rows, :-1].sum(axis=0)
        T[m, n_real:-1] = 0.0
        T[m, -1] = -b[art_rows].sum()
        status, iters = _kernel.run_pivots(T, basis, tol, max_iter)
        total_iters += iters
        if status == _kernel.MAXITER:
            raise SolverError("phase-1 iteration limit", basis=basis.copy())
        if -T[m, -1] > max(tol, 1e-8 * (1.0 + abs(b).max(initial=0.0))):
            return INFEASIBLE, None, total_iters
        # Clear remaining basic artificials, dropping redundant rows.  Pivots
        # here must be well-scaled; poorly scaled rows are treated as redundant.
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n_real:
                real = np.nonzero(np.abs(T[i, :n_real]) > 1e-7)[0]
                if real.size:
                    pivot(T, i, int(real[0]))
                    basis[i] = int(real[0])
                else:
                    keep[i] = False
        if not keep.all():
            T = np.vstack([T[:m][keep], T[m]])
            basis = basis[keep]
            m = int(keep.sum())
        T = np.ascontiguousarray(np.delete(T, np.s_[n_real : n_real + n_art], axis=1))

    # Phase 2 with the real objective.
    T[m, :n_real] = np.concatenate([c_std, np.zeros(n_ub)])
    T[m, -1] = 0.0
    for i in range(m):
        coef = T[m, basis[i]]
        if coef != 0.0:
            T[m] -= coef * T[i]
    status, iters = _kernel.run_pivots(T, basis, tol, max_iter)
    total_iters += iters
    if status == _kernel.MAXITER:
        raise SolverError("phase-2 iteration limit", basis=basis.copy())
    if status == _kernel.UNBOUNDED:
        return UNBOUNDED, None, total_iters

    # Read the point off the tableau, then polish it against the original
    # rows by iterative refinement in the basic columns.  Degenerate bases
    # can be numerically singular, so refinement (not a fresh solve) is the
    # robust way to remove accumulated pivot drift; the caller re-checks the
    # final residual either way.
    u = np.zeros(n_real)
    u[basis] = T[:m, -1]
    scale = 1.0 + abs(b).max(initial=0.0)
    for _ in range(2):
        residual = b - A @ u
        if np.max(np.abs(residual), initial=0.0) <= 1e-12 * scale:
            break
        delta, *_ = np.linalg.lstsq(A[:, basis], residual, rcond=None)
        u[basis] += delta
    return OPTIMAL, u[:n_std], total_iters


def _residual(prog: LinearProgram, x: np.ndarray) -> float:
    parts = [0.0]
    if prog.b_eq.size:
        parts.append(float(np.max(np.abs(prog.a_eq @ x - prog.b_eq))))
    if prog.b_ub.size:
        parts.append(float(np.max(prog.a_ub @ x - prog.b_ub)))
    lo, hi = prog.bounds[:, 0], prog.bounds[:, 1]
    finite_lo, finite_hi = np.isfinite(lo), np.isfinite(hi)
    if finite_lo.any():
        parts.append(float(np.max(lo[finite_lo] - x[finite_lo])))
    if finite_hi.any():
        parts.append(float(np.max(x[finite_hi] - hi[finite_hi])))
    return max(parts)


def lp_solve(prog: LinearProgram, tol: float | None = None) -> LpSolution:
    """Solve ``prog``; Optimal solutions are vertex solutions, re-checked by substitution."""
    tol = resolve_tol(tol)
    S, t, c_std, rows_eq, rhs_eq, rows_ub, rhs_ub = _standard_form(prog)
    status, u, iters = _solve_standard(c_std, rows_eq, rhs_eq, rows_ub, rhs_ub, tol)
    if status != OPTIMAL:
        return LpSolution(status=status, iterations=iters)
    x = t + S @ u
    residual = _residual(prog, x)
    if residual > 10 * tol:
        raise SolverError(f"optimal point violates constraints by {residual:.3e}")
    return LpSolution(
        status=OPTIMAL,
        point=x,
        value=float(prog.objective @ x),
        max_residual=residual,
        iterations=iters,
    )


def lp_feasible(prog: LinearProgram, tol: float | None = None) -> tuple[bool, np.ndarray | None]:
    """Phase-1 feasibility; returns a feasible point when one exists.

    Phase 1 accepts up to ``1e-8 * (1 + max|b|)`` of infeasibility, more than
    the ``10 * tol`` residual ``lp_solve`` allows: a point rejected for that
    residual is infeasible.  Iteration-limit errors carry the basis and raise.
    """
    zero = LinearProgram(
        objective=np.zeros(prog.n_vars),
        a_eq=prog.a_eq,
        b_eq=prog.b_eq,
        a_ub=prog.a_ub,
        b_ub=prog.b_ub,
        bounds=prog.bounds,
    )
    try:
        sol = lp_solve(zero, tol=tol)
    except SolverError as exc:
        if exc.basis is not None:
            raise
        return False, None
    if sol.optimal:
        return True, sol.point
    return False, None
