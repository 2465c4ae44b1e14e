"""Core value types: states, effects, measurements and state-space representations.

States are plain 1-D float arrays whose leading coordinate is the
normalization coordinate (``coords[0] == 1`` for normalized states, ``>= 0``
for unnormalized cone elements).  Effects are 1-D functionals of the same
length, evaluated by the Euclidean inner product, so the unit effect is the
first coordinate vector.  All types are immutable values and all operations
are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from gptlab import quantum
from gptlab.config import resolve_tol
from gptlab.errors import (
    DimensionMismatchError,
    DomainError,
    UnsupportedRepresentationError,
    ValidationError,
)
from gptlab.geometry import affine_dimension, canonicalize_vertices, extremal_effect_vectors
from gptlab.lp import LinearProgram, lp_feasible

if TYPE_CHECKING:
    from gptlab.symmetry import GroupDescriptor


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolytopeRep:
    """Convex hull of an explicit, canonicalized vertex list (rows)."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = canonicalize_vertices(np.atleast_2d(np.asarray(self.vertices, dtype=float)))
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

    @property
    def ambient_dim(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True)
class SimplexRep:
    """Classical N-level system in fiducial coordinates [1, p_1, ..., p_{N-1}]."""

    n: int

    @property
    def ambient_dim(self) -> int:
        return self.n


@dataclass(frozen=True)
class BallRep:
    """Euclidean unit ball of dimension d, centered at the maximally mixed state."""

    d: int

    @property
    def ambient_dim(self) -> int:
        return self.d + 1


@dataclass(frozen=True)
class QuantumRep:
    """Quantum N-level system; see gptlab.quantum for the coordinate basis."""

    n: int

    @property
    def ambient_dim(self) -> int:
        return self.n * self.n


Rep = PolytopeRep | SimplexRep | BallRep | QuantumRep


def unit_effect_vector(ambient_dim: int) -> np.ndarray:
    u = np.zeros(ambient_dim)
    u[0] = 1.0
    return u


def simplex_vertices(n: int) -> np.ndarray:
    """Vertices of the classical N-level simplex in fiducial coordinates."""
    verts = np.zeros((n, n))
    verts[:, 0] = 1.0
    for j in range(1, n):
        verts[j, j] = 1.0
    return verts


@dataclass(frozen=True)
class StateSpace:
    """A convex state space: representation, unit effect and symmetry group."""

    name: str
    rep: Rep
    group: "GroupDescriptor | None" = None

    @property
    def ambient_dim(self) -> int:
        return self.rep.ambient_dim

    @property
    def unit_effect(self) -> np.ndarray:
        return unit_effect_vector(self.ambient_dim)

    def __repr__(self):  # keep reprs short; vertex arrays can be large
        return f"StateSpace({self.name!r}, K={self.ambient_dim})"


def vertices_of(space: StateSpace) -> np.ndarray:
    """Extreme points for the representations with finitely many of them."""
    if isinstance(space.rep, PolytopeRep):
        return space.rep.vertices
    if isinstance(space.rep, SimplexRep):
        return simplex_vertices(space.rep.n)
    if isinstance(space.rep, BallRep) and space.rep.d == 1:
        return np.array([[1.0, -1.0], [1.0, 1.0]])  # the segment's endpoints
    raise UnsupportedRepresentationError(
        f"{space.name}: continuous extremal set has no vertex list"
    )


def affine_dim_of(space: StateSpace) -> int:
    if isinstance(space.rep, PolytopeRep):
        return affine_dimension(space.rep.vertices)
    if isinstance(space.rep, SimplexRep):
        return space.rep.n - 1
    if isinstance(space.rep, BallRep):
        return space.rep.d
    return space.rep.n * space.rep.n - 1


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Measurement:
    """Ordered list of effects summing exactly to the unit effect."""

    effects: np.ndarray  # shape (n_outcomes, K)

    def __post_init__(self):
        eff = np.atleast_2d(np.asarray(self.effects, dtype=float))
        if not np.all(np.isfinite(eff)):
            raise ValidationError("effects must be finite numbers")
        total = eff.sum(axis=0)
        unit = unit_effect_vector(eff.shape[1])
        if np.max(np.abs(total - unit)) > resolve_tol(None):
            raise ValidationError("effects do not sum to the unit effect")
        eff.setflags(write=False)
        object.__setattr__(self, "effects", eff)

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.effects.shape[1]


def two_outcome(effect: np.ndarray) -> Measurement:
    """The measurement {E, 1 - E}."""
    effect = np.asarray(effect, dtype=float)
    return Measurement(np.vstack([effect, unit_effect_vector(effect.size) - effect]))


# ---------------------------------------------------------------------------
# Basic operations
# ---------------------------------------------------------------------------

def evaluate(effect: np.ndarray, state: np.ndarray) -> float:
    """Outcome probability of ``effect`` on ``state``; exactly affine in mixtures."""
    effect = np.asarray(effect, dtype=float)
    state = np.asarray(state, dtype=float)
    if effect.shape != state.shape:
        raise DimensionMismatchError(
            f"effect has dimension {effect.shape}, state {state.shape}"
        )
    return float(effect @ state)


def mix(states, weights) -> np.ndarray:
    """Convex combination of states."""
    mat = np.atleast_2d(np.asarray(states, dtype=float))
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != mat.shape[0]:
        raise DimensionMismatchError("one weight per state required")
    tol = resolve_tol(None)
    if not np.all(np.isfinite(w)) or np.any(w < -tol) or abs(w.sum() - 1.0) > tol:
        raise DomainError("weights are not a probability vector")
    return w @ mat


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def contains_state(space: StateSpace, v: np.ndarray, tol: float | None = None) -> bool:
    """Membership of ``v`` in the normalized state set."""
    tol = resolve_tol(tol)
    v = np.asarray(v, dtype=float)
    if v.shape != (space.ambient_dim,):
        raise DimensionMismatchError(
            f"vector of dimension {v.shape} vs ambient {space.ambient_dim}"
        )
    if abs(v[0] - 1.0) > tol:
        return False
    rep = space.rep
    if isinstance(rep, BallRep):
        return np.linalg.norm(v[1:]) <= 1.0 + tol
    if isinstance(rep, SimplexRep):
        probs = v[1:]
        return bool(np.all(probs >= -tol) and 1.0 - probs.sum() >= -tol)
    if isinstance(rep, QuantumRep):
        rho = quantum.state_matrix(v, rep.n)
        return quantum.min_eigenvalue(rho) >= -tol
    # Polytope: a normalized v in the cone of the vertices is a convex combination.
    return cone_contains(rep.vertices, v, tol)


def cone_contains(rows: np.ndarray, target: np.ndarray, tol: float) -> bool:
    """Is ``target`` a nonnegative combination of ``rows``?  One feasibility LP;
    with no rows, whether ``target`` is zero within ``tol``."""
    n = rows.shape[0]
    if n == 0:
        return bool(np.all(np.abs(target) <= tol))
    prog = LinearProgram(
        objective=np.zeros(n),
        a_eq=rows.T,
        b_eq=target,
        bounds=np.column_stack([np.zeros(n), np.full(n, np.inf)]),
    )
    feasible, _ = lp_feasible(prog, tol=tol)
    return feasible


def effect_range(space: StateSpace, f: np.ndarray) -> tuple[float, float]:
    """Exact (min, max) of a functional over the state set."""
    f = np.asarray(f, dtype=float)
    if f.shape != (space.ambient_dim,):
        raise DimensionMismatchError("functional dimension mismatch")
    rep = space.rep
    if isinstance(rep, BallRep):
        radius = float(np.linalg.norm(f[1:]))
        return f[0] - radius, f[0] + radius
    if isinstance(rep, QuantumRep):
        eig = np.linalg.eigvalsh(quantum.effect_matrix(f, rep.n))
        return float(eig[0]), float(eig[-1])
    values = vertices_of(space) @ f
    return float(values.min()), float(values.max())


def contains_effect(space: StateSpace, f: np.ndarray, tol: float | None = None) -> bool:
    """True iff ``f`` maps every state into [0, 1] (within tol)."""
    tol = resolve_tol(tol)
    lo, hi = effect_range(space, f)
    return lo >= -tol and hi <= 1.0 + tol


def effect_in_cone(space: StateSpace, f: np.ndarray, tol: float | None = None) -> bool:
    """Membership of ``f`` in the cone of unnormalized effects (nonneg on states)."""
    tol = resolve_tol(tol)
    lo, _ = effect_range(space, f)
    return lo >= -tol


def extremal_effects(space: StateSpace, tol: float | None = None) -> np.ndarray:
    """Extreme points of the effect polytope {f : 0 <= f <= unit}; finite reps only.

    Always contains the zero effect and the unit effect.
    """
    if isinstance(space.rep, (BallRep, QuantumRep)):
        raise UnsupportedRepresentationError(
            f"{space.name}: extremal effects form a continuous family; "
            "use contains_effect / effect_range instead"
        )
    return extremal_effect_vectors(vertices_of(space), tol=tol)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_state(space: StateSpace, rng: np.random.Generator) -> np.ndarray:
    """A random normalized state (full support over the state set)."""
    rep = space.rep
    if isinstance(rep, BallRep):
        direction = rng.normal(size=rep.d)
        direction /= np.linalg.norm(direction)
        radius = rng.uniform() ** (1.0 / rep.d)
        return np.concatenate([[1.0], radius * direction])
    if isinstance(rep, QuantumRep):
        return quantum.state_coords(quantum.random_density(rep.n, rng), rep.n)
    verts = vertices_of(space)
    weights = rng.dirichlet(np.ones(verts.shape[0]))
    return weights @ verts


def sample_pure_state(space: StateSpace, rng: np.random.Generator) -> np.ndarray:
    """A random extreme point."""
    rep = space.rep
    if isinstance(rep, BallRep):
        direction = rng.normal(size=rep.d)
        direction /= np.linalg.norm(direction)
        return np.concatenate([[1.0], direction])
    if isinstance(rep, QuantumRep):
        return quantum.state_coords(quantum.random_pure_density(rep.n, rng), rep.n)
    verts = vertices_of(space)
    return verts[rng.integers(verts.shape[0])].copy()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_space(space: StateSpace, tol: float | None = None) -> None:
    """Check structural invariants; raises ValidationError on failure.

    For polytopes: vertices normalized and extreme; K = 1 + affine dimension
    of the state set.
    """
    tol = resolve_tol(tol)
    if isinstance(space.rep, PolytopeRep):
        verts = space.rep.vertices
        if np.max(np.abs(verts[:, 0] - 1.0)) > tol:
            raise ValidationError(f"{space.name}: vertex with normalization coordinate != 1")
        for i in range(verts.shape[0]):
            others = np.delete(verts, i, axis=0)
            if cone_contains(others, verts[i], tol):
                raise ValidationError(
                    f"{space.name}: vertex {i} is a convex combination of the others"
                )
        if affine_dimension(verts, tol) != space.ambient_dim - 1:
            raise ValidationError(
                f"{space.name}: ambient dimension {space.ambient_dim} does not equal "
                f"1 + affine dimension {affine_dimension(verts, tol)}"
            )
    elif isinstance(space.rep, SimplexRep):
        if space.rep.n < 1:
            raise ValidationError("simplex level count must be >= 1")
    elif isinstance(space.rep, BallRep):
        if space.rep.d < 1:
            raise ValidationError("ball dimension must be >= 1")
    elif isinstance(space.rep, QuantumRep):
        if space.rep.n < 1:
            raise ValidationError("quantum level count must be >= 1")
