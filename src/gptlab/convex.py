"""Core value types: states, effects, measurements and state-space representations.

States are plain 1-D float arrays whose leading coordinate is the
normalization coordinate (``coords[0] == 1`` for normalized states, ``>= 0``
for unnormalized cone elements).  Effects are 1-D functionals of the same
length, evaluated by the Euclidean inner product, so the unit effect is the
first coordinate vector.  All types are immutable values and all operations
are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from gptlab import quantum
from gptlab.config import resolve_tol
from gptlab.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    DomainError,
    UnsupportedRepresentationError,
    ValidationError,
)
from gptlab.geometry import (
    affine_dimension,
    canonicalize_vertices,
    dual_cone_rays,
    extremal_effect_vectors,
)
from gptlab.lp import LinearProgram, lp_feasible

if TYPE_CHECKING:
    from gptlab.symmetry import GroupDescriptor


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

# ``PolytopeRep.with_facets`` runs its DD only on at most this many rows,
# and keeps the facets only if there are at most this many.  Rows: the DD
# of the 144 vertices of max(square, 6-gon) (24 facets) takes 22 s and
# that of the 128 of max(square, cube) 0.55 s, where every composite and
# cube of at most 64 vertices tried took at most 0.05 s.  Facets: 30 points
# on the unit sphere of R^8 have 4,399 facets and a DD of 0.78 s, which
# stops 4 ms in once it shows more than 64.  ``discrimination.capacity``
# caps the facets of its DD in a vertex span by the same number.
FACET_DD_BUDGET = 64


@dataclass(frozen=True)
class PolytopeRep:
    """Convex hull of an explicit, canonicalized vertex list (rows).

    ``facets``, when known, are rows F such that {v : F v >= 0, v_0 = 1} is
    exactly this hull; membership then reads F v on the rows' own scale,
    ``validate_space`` tests extremality by the rank of the facets tight at
    a row, and ``capacity`` bounds its search by them.  Max composites carry
    their product-effect rows; ``with_facets``, which builds JSON polytopes,
    the square and reloaded composite files, enumerates them.  They take no
    part in equality or the repr: reps are equal when their canonicalized
    vertices are.  A NaN or infinite coordinate is rejected before the rows
    are canonicalized.
    """

    vertices: np.ndarray
    facets: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if not np.all(np.isfinite(verts)):
            raise ValidationError("non-finite vertex coordinate")
        verts = canonicalize_vertices(verts)
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        if self.facets is not None:
            facets = np.array(self.facets, dtype=float)
            if facets.ndim != 2 or facets.shape[1] != verts.shape[1]:
                raise ValidationError(
                    f"facets must have shape (M, {verts.shape[1]}), got {facets.shape}"
                )
            if not np.all(np.isfinite(facets)):
                raise ValidationError("non-finite facet coordinate")
            facets.setflags(write=False)
            object.__setattr__(self, "facets", facets)

    @classmethod
    def with_facets(cls, vertices) -> "PolytopeRep":
        """The hull of ``vertices`` with its facets from one ``dual_cone_rays``
        call at the run-wide tolerance.  A list of more than FACET_DD_BUDGET
        rows, one that does not span the space, and one whose cone has more
        than FACET_DD_BUDGET facets keep ``facets=None``."""
        rep = cls(vertices)
        if rep.vertices.shape[0] > FACET_DD_BUDGET:
            return rep
        try:
            facets = dual_cone_rays(rep.vertices, max_rays=FACET_DD_BUDGET)
        except (ValidationError, BudgetExceededError):  # rank-deficient, or past the budget
            return rep
        facets.setflags(write=False)
        object.__setattr__(rep, "facets", facets)
        return rep

    def __eq__(self, other):
        if not isinstance(other, PolytopeRep):
            return NotImplemented
        return np.array_equal(self.vertices, other.vertices)

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
    """Ordered list of effects summing exactly to the unit effect; measurements
    are equal when their effect arrays are."""

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

    def __eq__(self, other):
        if not isinstance(other, Measurement):
            return NotImplemented
        return np.array_equal(self.effects, other.effects)

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
    """Membership of ``v`` in the normalized state set; a NaN or infinite
    coordinate is never a member.  A polytope with facets is decided by them,
    any other polytope by ``cone_contains``."""
    tol = resolve_tol(tol)
    v = np.asarray(v, dtype=float)
    if v.shape != (space.ambient_dim,):
        raise DimensionMismatchError(
            f"vector of dimension {v.shape} vs ambient {space.ambient_dim}"
        )
    if abs(v[0] - 1.0) > tol or not np.all(np.isfinite(v)):
        return False
    rep = space.rep
    if isinstance(rep, BallRep):
        return bool(np.linalg.norm(v[1:]) <= 1.0 + tol)
    if isinstance(rep, SimplexRep):
        probs = v[1:]
        return bool(np.all(probs >= -tol) and 1.0 - probs.sum() >= -tol)
    if isinstance(rep, QuantumRep):
        rho = quantum.state_matrix(v, rep.n)
        return quantum.min_eigenvalue(rho) >= -tol
    if rep.facets is not None:  # -tol on facet values, as in max_tensor_contains
        return bool(np.all(rep.facets @ v >= -tol))
    # Polytope: a normalized v in the cone of the vertices is a convex combination.
    return cone_contains(rep.vertices, v, tol)


def cone_contains(rows: np.ndarray, target: np.ndarray, tol: float) -> bool:
    """Is ``target`` a nonnegative combination of ``rows``?  One feasibility LP;
    with no rows, whether ``target`` is zero within ``tol``.

    ``tol`` bounds the LP's residual, not the values of any facet: a point
    up to about ten tol outside a facet can be accepted.  Its callers are
    P4's hull test, and ``validate_space`` and ``contains_state`` on a
    polytope without facets.
    """
    n = rows.shape[0]
    if n == 0:
        return bool(np.all(np.abs(target) <= tol))
    prog = LinearProgram(n_vars=n, a_eq=rows.T, b_eq=target, nonneg=True)
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
        return float(f[0]) - radius, float(f[0]) + radius
    if isinstance(rep, QuantumRep):
        eig = np.linalg.eigvalsh(quantum.effect_matrix(f, rep.n))
        return float(eig[0]), float(eig[-1])
    values = vertices_of(space) @ f
    return float(values.min()), float(values.max())


def contains_effect(space: StateSpace, f: np.ndarray, tol: float | None = None) -> bool:
    """True iff ``f`` maps every state into [0, 1] (within tol); a NaN or
    infinite coordinate never does."""
    tol = resolve_tol(tol)
    f = np.asarray(f, dtype=float)
    if f.shape != (space.ambient_dim,):
        raise DimensionMismatchError("functional dimension mismatch")
    if not np.all(np.isfinite(f)):
        return False
    lo, hi = effect_range(space, f)
    return lo >= -tol and hi <= 1.0 + tol


def effect_in_cone(space: StateSpace, f: np.ndarray, tol: float | None = None) -> bool:
    """Membership of ``f`` in the cone of unnormalized effects (nonneg on
    states); a NaN or infinite coordinate is never a member."""
    tol = resolve_tol(tol)
    f = np.asarray(f, dtype=float)
    if f.shape != (space.ambient_dim,):
        raise DimensionMismatchError("functional dimension mismatch")
    if not np.all(np.isfinite(f)):
        return False
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

def _first_non_vertex(rep: PolytopeRep, tol: float) -> int | None:
    """Index of the first row that is not a vertex of the hull, or None.

    With facets, a row is a vertex iff the facets tight at it have rank
    K − 1, tight within ``tol`` with row and facet scaled to unit max-abs,
    as in the DD.  Without them, iff no LP puts it in the cone of the other
    rows.  Both name the same row: a row that is not a vertex lies in the
    hull of the vertices, and all of those are among the other rows.
    """
    verts = rep.vertices
    if rep.facets is None:
        for i in range(verts.shape[0]):
            if cone_contains(np.delete(verts, i, axis=0), verts[i], tol):
                return i
        return None
    facets = rep.facets / np.abs(rep.facets).max(axis=1, keepdims=True)
    tight = np.abs(verts @ facets.T) <= tol * np.abs(verts).max(axis=1, keepdims=True)
    # one stacked rank: row i's matrix holds the facets tight at it, the others zeroed
    short = np.flatnonzero(np.linalg.matrix_rank(tight[:, :, None] * facets) < verts.shape[1] - 1)
    return int(short[0]) if short.size else None


def validate_space(space: StateSpace, tol: float | None = None) -> None:
    """Check structural invariants; raises ValidationError on failure.

    For polytopes: vertices normalized and extreme (``_first_non_vertex``);
    K = 1 + affine dimension of the state set.
    """
    tol = resolve_tol(tol)
    if isinstance(space.rep, PolytopeRep):
        verts = space.rep.vertices
        if np.max(np.abs(verts[:, 0] - 1.0)) > tol:
            raise ValidationError(f"{space.name}: vertex with normalization coordinate != 1")
        i = _first_non_vertex(space.rep, tol)
        if i is not None:
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
