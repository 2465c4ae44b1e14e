"""Global numeric tolerance, configurable per run."""

from __future__ import annotations

import math

DEFAULT_TOL = 1e-9

_tol = DEFAULT_TOL


def get_tol() -> float:
    return _tol


def set_tol(value: float) -> None:
    """Set the run-wide membership/feasibility tolerance."""
    global _tol
    _tol = resolve_tol(float(value))


def resolve_tol(tol: float | None) -> float:
    """One knob for all membership and feasibility checks: the run-wide
    tolerance, or ``tol`` if it is positive and finite."""
    if tol is None:
        return _tol
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    return float(tol)
