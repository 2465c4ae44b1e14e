"""Exception types shared across the package."""

from __future__ import annotations


class GptError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(GptError):
    """Operands live in different ambient spaces."""


class DomainError(GptError):
    """Input violates a documented precondition (e.g. weights not a distribution)."""


class UnsupportedRepresentationError(GptError):
    """Operation not defined for this state-space representation."""


class SolverError(GptError):
    """LP solver numeric breakdown; carries the basis state for diagnosis."""

    def __init__(self, message: str, basis=None):
        super().__init__(message)
        self.basis = basis


class BudgetExceededError(GptError):
    """A bounded search ran out of budget."""


class ZeroProbabilityConditioningError(GptError):
    """Conditioning effect has probability below tolerance."""


class NoFaceError(GptError):
    """Effect does not attain value 1 on the state space."""


class ValidationError(GptError):
    """A constructed object violates its structural invariants."""
