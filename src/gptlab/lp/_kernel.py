"""Numpy simplex pivot loop, the LP engine's only kernel.

Tableau layout: rows ``0..m-1`` hold ``[A | b]``, row ``m`` holds the
reduced-cost row ``[c̄ | -z]``.  Minimization of the phase-1 objective, which
is bounded below by 0.

Pivoting rules: Dantzig entering (most negative reduced cost) while the
objective makes progress; after a run of degenerate pivots the loop engages
Bland's rule (smallest-index entering, smallest-basis-index leaving) for the
rest of the call.  Bland's finite-termination proof (Bland, Math. Oper. Res.
2(2), 1977) needs the rule kept once it engages: falling back to Dantzig on
an improvement of the objective can re-enter a degenerate cycle.  The ratio test
prefers pivot elements above a magnitude threshold to avoid catastrophic
error amplification, falling back to the feasibility tolerance only when no
well-scaled pivot exists.
"""

from __future__ import annotations

import numpy as np

OPTIMAL = 0
MAXITER = 1

# The benchmark records KERNEL_NAME and traces run_pivots by this module path.
KERNEL_NAME = "python"

# Relative slack used to collect ratio-test ties before the Bland tie-break.
_TIE_REL = 1e-12
_TIE_ABS = 1e-15
# Preferred minimum pivot magnitude; the feasibility tolerance is the fallback.
_PIVOT_STRONG = 1e-7
# Degenerate pivots tolerated before engaging Bland's rule.
_STALL_LIMIT = 25


def _ratio_test(T: np.ndarray, basis: np.ndarray, m: int, enter: int, tol: float) -> int:
    col = T[:m, enter]
    rhs = T[:m, -1]
    for threshold in (_PIVOT_STRONG, tol):
        mask = col > threshold
        if not mask.any():
            continue
        ratios = np.full(m, np.inf)
        ratios[mask] = rhs[mask] / col[mask]
        best = ratios.min()
        cut = best + _TIE_REL * abs(best) + _TIE_ABS
        ties = np.nonzero(ratios <= cut)[0]
        return int(ties[np.argmin(basis[ties])])
    return -1


def pivot(T: np.ndarray, row: int, col: int) -> None:
    """Pivot ``T`` in place on the element ``T[row, col]``."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def run_pivots(T: np.ndarray, basis: np.ndarray, tol: float, max_iter: int) -> tuple[int, int]:
    """Pivot ``T`` in place until optimal; returns (status, iterations).

    A phase-1 objective is bounded, so an entering column with no pivot row
    comes only from rounding; the loop stops there as at an optimum, and the
    caller's infeasibility test decides.
    """
    m = T.shape[0] - 1
    it = 0
    stall = 0
    bland = False
    while it < max_iter:
        reduced = T[m, :-1]
        if bland:
            negative = np.nonzero(reduced < -tol)[0]
            if negative.size == 0:
                return OPTIMAL, it
            enter = int(negative[0])
        else:
            enter = int(np.argmin(reduced))
            if reduced[enter] >= -tol:
                return OPTIMAL, it

        leave = _ratio_test(T, basis, m, enter, tol)
        if leave < 0:
            return OPTIMAL, it

        z_before = T[m, -1]
        pivot(T, leave, enter)
        basis[leave] = enter
        it += 1

        if T[m, -1] > z_before + _TIE_ABS:  # -z increased: objective improved
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
    return MAXITER, it
