"""Transformation groups, transitivity, invariant states, faces and probes.

Group elements act as K x K matrices on homogeneous coordinates, fixing the
normalization coordinate.  An explicit ``FiniteMatrixGroup`` is checked
against the vertices as permutations, and its transitivity is an orbit
computation.  The descriptor groups are decided by theorem once the
descriptor is checked to match the representation: S_n relabels the levels
of an n-level classical system, and the transposition (0 k) takes level 0 to
level k; SO(d), d >= 2, is connected and transitive on the sphere S^{d-1};
and U(n) is connected and transitive on the pure states of an n-level
quantum system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from gptlab import quantum
from gptlab.config import resolve_tol
from gptlab.errors import (
    BudgetExceededError,
    DomainError,
    NoFaceError,
    UnsupportedRepresentationError,
    ValidationError,
)
from gptlab.convex import (
    BallRep,
    PolytopeRep,
    QuantumRep,
    SimplexRep,
    StateSpace,
    affine_dim_of,
    contains_state,
    effect_range,
    unit_effect_vector,
    vertices_of,
)
from gptlab.discrimination import capacity, distinguishable_unchecked
from gptlab.geometry import (
    SYMMETRY_NODE_BUDGET,
    affine_dimension,
    vertex_permutation,
    vertex_symmetries,
)


# ---------------------------------------------------------------------------
# Group descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteMatrixGroup:
    """Explicit finite matrix group acting on homogeneous coordinates.

    ``perms``, when known, has one row per matrix: ``perms[m, i]`` is the
    index of the image of vertex i of the space under ``matrices[m]``.  It
    is filled only where those permutations were found or checked against
    the vertices (``polytope_symmetry_group``, and ``runner.build_space``
    for a ``"finite"`` group), and P3 and ``capacity`` read it.  Like
    ``PolytopeRep.facets`` it is a read-only copy that takes no part in
    equality or the repr: groups are equal when their matrix stacks are.
    """

    matrices: np.ndarray  # (M, K, K)
    perms: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValidationError("matrices must have shape (M, K, K)")
        mats.setflags(write=False)
        object.__setattr__(self, "matrices", mats)
        if self.perms is not None:
            perms = np.array(self.perms, dtype=int)
            if perms.ndim != 2 or perms.shape[0] != mats.shape[0]:
                raise ValidationError(
                    f"perms must have one row per matrix, shape ({mats.shape[0]}, n), "
                    f"got {perms.shape}"
                )
            perms.setflags(write=False)
            object.__setattr__(self, "perms", perms)

    def __eq__(self, other):
        if not isinstance(other, FiniteMatrixGroup):
            return NotImplemented
        return np.array_equal(self.matrices, other.matrices)

    @property
    def order(self) -> int:
        return self.matrices.shape[0]


@dataclass(frozen=True)
class PermutationGroup:
    """Symmetric group on N levels acting on classical fiducial coordinates."""

    n: int


@dataclass(frozen=True)
class RotationGroup:
    """SO(d) acting on the ball coordinates, fixing the normalization coordinate."""

    d: int


@dataclass(frozen=True)
class UnitaryGroup:
    """Unitary conjugations rho -> U rho U† on a quantum N-level system."""

    n: int


GroupDescriptor = FiniteMatrixGroup | PermutationGroup | RotationGroup | UnitaryGroup


def polytope_symmetry_group(vertices: np.ndarray, tol: float | None = None) -> FiniteMatrixGroup:
    """The linear maps that permute the vertices, one matrix per permutation
    found by ``geometry.vertex_symmetries``, in lexicographic order of the
    permutations (the identity first); the group keeps those permutations
    as its ``perms``.  ``SYMMETRY_NODE_BUDGET`` is the search's one bound,
    whatever the number of vertices: BudgetExceededError is raised once the
    search would pass it."""
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    pinv = np.linalg.pinv(verts.T)
    perms = vertex_symmetries(verts, tol, SYMMETRY_NODE_BUDGET)
    perms = perms[np.lexsort(perms.T[::-1])]
    return FiniteMatrixGroup(np.array([verts[p].T @ pinv for p in perms]), perms=perms)


def _round_key(arr: np.ndarray) -> bytes:
    # + 0.0 collapses -0.0 and 0.0 to the same byte pattern
    return (np.round(arr, 9) + 0.0).tobytes()


def permutation_coordinate_matrix(perm: np.ndarray, n: int) -> np.ndarray:
    """Matrix on [1, p_1, .., p_{n-1}] induced by relabeling level k -> perm[k].

    Levels are 0-based; coordinate i (1 <= i <= n-1) holds the probability of
    level i, and level 0 carries the implied probability 1 - sum(others).
    """
    perm = np.asarray(perm, dtype=int)
    inv = np.empty(n, dtype=int)
    inv[perm] = np.arange(n)
    mat = np.zeros((n, n))
    mat[0, 0] = 1.0
    for i in range(1, n):
        k = inv[i]
        if k == 0:
            mat[i, 0] = 1.0
            mat[i, 1:] = -1.0
        else:
            mat[i, k] = 1.0
    return mat


def haar_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar sample from SO(d), embedded as a (d+1) x (d+1) coordinate matrix."""
    g = rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    out = np.eye(d + 1)
    out[1:, 1:] = q
    return out


def sample_element(group: GroupDescriptor, rng: np.random.Generator) -> np.ndarray:
    """Random group element as a coordinate matrix."""
    if isinstance(group, FiniteMatrixGroup):
        return group.matrices[rng.integers(group.order)]
    if isinstance(group, PermutationGroup):
        return permutation_coordinate_matrix(rng.permutation(group.n), group.n)
    if isinstance(group, RotationGroup):
        return haar_rotation(group.d, rng)
    if isinstance(group, UnitaryGroup):
        u = quantum.random_unitary(group.n, rng)
        return quantum.unitary_coordinate_matrix(u, group.n)
    raise UnsupportedRepresentationError(f"unknown group descriptor {group!r}")


def check_group_descriptor(space: StateSpace) -> None:
    """Raise ValidationError unless the space's descriptor group acts on it:
    ``PermutationGroup(n)`` on ``SimplexRep(n)``, ``RotationGroup(d)`` on
    ``BallRep(d)`` with d >= 2, or ``UnitaryGroup(n)`` on ``QuantumRep(n)``.
    Each is then transitive on the pure states by theorem."""
    group, rep = space.group, space.rep
    if isinstance(group, PermutationGroup):
        matches = isinstance(rep, SimplexRep) and rep.n == group.n
    elif isinstance(group, RotationGroup):
        matches = isinstance(rep, BallRep) and rep.d == group.d >= 2
    elif isinstance(group, UnitaryGroup):
        matches = isinstance(rep, QuantumRep) and rep.n == group.n
    else:
        raise UnsupportedRepresentationError(f"unknown group descriptor {group!r}")
    if not matches:
        raise ValidationError(f"{space.name}: {group!r} does not act on {rep!r}")


def apply(transform: np.ndarray, omega: np.ndarray, space: StateSpace | None = None,
          tol: float | None = None) -> np.ndarray:
    """Matrix action of a reversible transformation on a state."""
    out = np.asarray(transform, dtype=float) @ np.asarray(omega, dtype=float)
    if space is not None and not contains_state(space, out, tol=tol):
        raise ValidationError("transform maps the state outside the space; group descriptor invalid")
    return out


def validate_group(space: StateSpace, tol: float | None = None) -> None:
    """Check that every group element maps the state set onto itself, as P3
    reads the group.

    A finite matrix group must be closed under product and inverse, and each
    of its elements must permute the vertices; the ``perms`` it carries must
    be those permutations.  A descriptor group must match the space.
    """
    tol = resolve_tol(tol)
    group = space.group
    if group is None:
        raise DomainError(f"{space.name} has no group descriptor")
    if not isinstance(group, FiniteMatrixGroup):
        check_group_descriptor(space)
        return
    keys = {_round_key(m) for m in group.matrices}
    for a in group.matrices:
        if np.abs(np.linalg.det(a)) < 1e-12:
            raise ValidationError("singular group element")
        if _round_key(np.linalg.inv(a)) not in keys:
            raise ValidationError("group not closed under inverse")
        for b in group.matrices:
            if _round_key(a @ b) not in keys:
                raise ValidationError("group not closed under product")
    table = _vertex_table(vertices_of(space), group.matrices, tol)
    if group.perms is not None and not np.array_equal(group.perms, table):
        raise ValidationError("group perms are not the vertex permutations of its matrices")


# ---------------------------------------------------------------------------
# Transitivity and continuity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitivityResult:
    transitive: bool
    witnesses: tuple = ()       # (source, target, matrix) triples; finite groups and S_n
    stranded: np.ndarray | None = None


def _vertex_table(verts: np.ndarray, matrices: np.ndarray, tol: float) -> np.ndarray:
    """table[m, i]: index of the image of vertex i under matrices[m];
    ValidationError unless ``matrices`` is a (M, K, K) stack for K-coordinate
    vertices and every matrix permutes the vertices."""
    k = verts.shape[1]
    if matrices.ndim != 3 or matrices.shape[1:] != (k, k):
        raise ValidationError(f"group matrices must have shape (M, {k}, {k})")
    table = np.empty((len(matrices), verts.shape[0]), dtype=int)
    for row, mat in zip(table, matrices):
        perm = vertex_permutation(verts, mat, tol)
        if perm is None:
            raise ValidationError("group element does not permute the vertex set")
        row[:] = perm
    return table


def _vertex_orbits(space: StateSpace, matrices: np.ndarray, table: list[list[int]]):
    # BFS from vertex 0, recording a transporter matrix per reached vertex
    transporter: dict[int, np.ndarray] = {0: np.eye(space.ambient_dim)}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for mat, images in zip(matrices, table):
                j = images[i]
                if j not in transporter:
                    transporter[j] = mat @ transporter[i]
                    nxt.append(j)
        frontier = nxt
    return transporter


def _group_matrices(group: GroupDescriptor) -> list[np.ndarray]:
    if isinstance(group, FiniteMatrixGroup):
        return list(group.matrices)
    if isinstance(group, PermutationGroup):
        n = group.n
        gens = []
        for k in range(1, n):
            perm = np.arange(n)
            perm[0], perm[k] = perm[k], perm[0]
            gens.append(permutation_coordinate_matrix(perm, n))
        return gens
    raise UnsupportedRepresentationError("finite element list requested for a parametric group")


def transitivity_check(space: StateSpace, tol: float | None = None) -> TransitivityResult:
    """Does the group act transitively on the pure states?

    A ``FiniteMatrixGroup``: orbit computation on the extreme points, with
    one transporter matrix per reached vertex as witness, read through the
    ``perms`` the group carries or else through a permutation table checked
    here.  A descriptor group: transitive by theorem once
    ``check_group_descriptor`` accepts it.  For S_n the witness of vertex k
    is the transposition (0 k), which sends level 0 to level k, and the
    identity for vertex 0; SO(d) and U(n) get no witnesses.
    """
    tol = resolve_tol(tol)
    group = space.group
    if group is None:
        raise DomainError(f"{space.name} has no group descriptor")

    if isinstance(group, FiniteMatrixGroup):
        verts = vertices_of(space)
        table = group.perms
        if table is None:
            table = _vertex_table(verts, group.matrices, tol)
        transporter = _vertex_orbits(space, group.matrices, table.tolist())
        nv = verts.shape[0]
        if len(transporter) < nv:
            stranded = verts[min(set(range(nv)) - set(transporter))]
            return TransitivityResult(False, stranded=stranded)
        witnesses = tuple(
            (verts[0], verts[j], transporter[j]) for j in sorted(transporter)
        )
        return TransitivityResult(True, witnesses=witnesses)

    check_group_descriptor(space)
    if isinstance(group, PermutationGroup):
        verts = vertices_of(space)
        transporters = [np.eye(space.ambient_dim)] + _group_matrices(group)
        return TransitivityResult(True, witnesses=tuple(
            (verts[0], verts[k], mat) for k, mat in enumerate(transporters)))
    return TransitivityResult(True)


def continuity_check(space: StateSpace) -> bool:
    """True iff transitivity is achieved inside a connected parametric family.

    Finite groups and permutation groups are discrete, hence False.  A
    parametric group that matches the space is connected and transitive.
    A descriptor group must match the space, as in ``transitivity_check``.
    """
    group = space.group
    if group is None:
        raise DomainError(f"{space.name} has no group descriptor")
    if isinstance(group, FiniteMatrixGroup):
        return False
    check_group_descriptor(space)
    return not isinstance(group, PermutationGroup)


# ---------------------------------------------------------------------------
# Maximally mixed state
# ---------------------------------------------------------------------------

def _orbit(start: np.ndarray, matrices: list[np.ndarray]) -> list[np.ndarray]:
    """Orbit of ``start`` under the group generated by ``matrices``.

    Breadth-first search, deduplicated on rounded coordinates; points are
    returned in the order they were first reached.
    """
    seen: dict[bytes, np.ndarray] = {_round_key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            for mat in matrices:
                t = mat @ s
                k = _round_key(t)
                if k not in seen:
                    seen[k] = t
                    nxt.append(t)
        frontier = nxt
    return list(seen.values())


def orbit_states(space: StateSpace, start: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Orbit of a state under a finite group descriptor (BFS, deduplicated)."""
    return np.array(_orbit(np.asarray(start, dtype=float), _group_matrices(space.group)))


def maximally_mixed(space: StateSpace, tol: float | None = None) -> np.ndarray:
    """The group-invariant state: exact orbit average for finite groups,
    closed form (center / uniform / identity-over-N) for parametric ones."""
    rep = space.rep
    if isinstance(rep, BallRep):
        return unit_effect_vector(space.ambient_dim)
    if isinstance(rep, QuantumRep):
        return unit_effect_vector(space.ambient_dim)
    if isinstance(rep, SimplexRep):
        mu = np.full(rep.n, 1.0 / rep.n)
        mu[0] = 1.0
        return mu
    if space.group is None:
        raise DomainError(f"{space.name} has no group descriptor")
    orbit = orbit_states(space, vertices_of(space)[0], tol=tol)
    return orbit.mean(axis=0)


# ---------------------------------------------------------------------------
# Strict convexity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrictConvexityResult:
    strictly_convex: bool
    witness: tuple | None = None  # (endpoint, endpoint, boundary midpoint)

    def __bool__(self) -> bool:
        return self.strictly_convex


def strict_convexity_check(space: StateSpace, tol: float | None = None) -> StrictConvexityResult:
    """No line segments in the boundary of the state set.

    Polytopes of affine dimension >= 2 fail with an edge-midpoint witness;
    segments and balls pass; quantum passes only for N <= 2 (for N >= 3,
    a rank-deficient mixed state sits on the boundary).
    """
    tol = resolve_tol(tol)
    rep = space.rep
    if isinstance(rep, BallRep):
        return StrictConvexityResult(True)
    if isinstance(rep, QuantumRep):
        if rep.n <= 2:
            return StrictConvexityResult(True)
        diag = np.zeros((rep.n, rep.n), dtype=complex)
        diag[0, 0] = diag[1, 1] = 0.5
        a = np.zeros((rep.n, rep.n), dtype=complex)
        a[0, 0] = 1.0
        b = np.zeros((rep.n, rep.n), dtype=complex)
        b[1, 1] = 1.0
        witness = tuple(quantum.state_coords(m, rep.n) for m in (a, b, diag))
        return StrictConvexityResult(False, witness=witness)
    verts = vertices_of(space)
    if affine_dimension(verts, tol) <= 1:
        return StrictConvexityResult(True)
    # The two lexicographically largest vertices rank first and second under
    # the functional (0, 1, eps, eps^2, ...) for small eps > 0.  The second is
    # not optimal, so it has an improving neighbour, which can only be the
    # first: the two span an edge, a proper face when the dimension is >= 2.
    first, second = np.lexsort(verts[:, :0:-1].T)[:-3:-1]
    a, b = verts[first], verts[second]
    return StrictConvexityResult(False, witness=(a, b, 0.5 * (a + b)))


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Face:
    """The set of states where a given effect attains value 1."""

    parent: StateSpace
    effect: np.ndarray
    kind: str                       # "vertices" | "point" | "quantum" | "all"
    vertices: np.ndarray | None = None
    point: np.ndarray | None = None
    projector: np.ndarray | None = None

    @property
    def quantum_rank(self) -> int | None:
        if self.projector is None:
            return None
        return int(round(np.trace(self.projector).real))


def face_extract(space: StateSpace, effect: np.ndarray, tol: float | None = None) -> Face:
    """Extract {omega : effect(omega) = 1}; the effect must attain 1 on the space."""
    tol = resolve_tol(tol)
    effect = np.asarray(effect, dtype=float)
    lo, hi = effect_range(space, effect)
    if hi < 1.0 - tol:
        raise NoFaceError(f"effect attains at most {hi:.6f} < 1")
    rep = space.rep
    if isinstance(rep, BallRep):
        fhat = effect[1:]
        radius = np.linalg.norm(fhat)
        if radius <= tol:
            return Face(space, effect, kind="all")
        point = np.concatenate([[1.0], fhat / radius])
        return Face(space, effect, kind="point", point=point)
    if isinstance(rep, QuantumRep):
        mat = quantum.effect_matrix(effect, rep.n)
        eigvals, eigvecs = np.linalg.eigh(mat)
        ones = np.abs(eigvals - 1.0) <= 100 * tol
        basis = eigvecs[:, ones]
        projector = basis @ basis.conj().T
        if int(ones.sum()) == rep.n:
            return Face(space, effect, kind="all", projector=projector)
        return Face(space, effect, kind="quantum", projector=projector)
    verts = vertices_of(space)
    values = verts @ effect
    members = verts[values >= 1.0 - tol]
    if members.shape[0] == verts.shape[0]:
        return Face(space, effect, kind="all", vertices=members)
    return Face(space, effect, kind="vertices", vertices=members)


# ---------------------------------------------------------------------------
# Equivalence probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    consistent: bool
    mismatch: str | None = None
    details: dict | None = None

    def __bool__(self) -> bool:
        return self.consistent


def space_invariants(obj: StateSpace | Face) -> dict:
    """Affine invariants used by the equivalence probe.

    Values may be None when not finitely computable for the representation.
    """
    if isinstance(obj, Face):
        if obj.kind == "all":
            return space_invariants(obj.parent)
        if obj.kind == "point":
            return {"affine_dim": 0, "capacity": 1, "strictly_convex": True, "n_extreme": 1}
        if obj.kind == "quantum":
            m = obj.quantum_rank
            return {
                "affine_dim": m * m - 1,
                "capacity": m,
                "strictly_convex": m <= 2,
                "n_extreme": 1 if m == 1 else None,
            }
        sub = StateSpace(name="face", rep=PolytopeRep(obj.vertices))
        cap = capacity(sub)
        return {
            "affine_dim": affine_dimension(obj.vertices),
            "capacity": cap.n,
            "strictly_convex": bool(strict_convexity_check(sub)),
            "n_extreme": obj.vertices.shape[0],
        }
    cap = capacity(obj)
    inv = {
        "affine_dim": affine_dim_of(obj),
        "capacity": cap.n,
        "strictly_convex": bool(strict_convexity_check(obj)),
        "n_extreme": None,
    }
    if isinstance(obj.rep, (PolytopeRep, SimplexRep)):
        inv["n_extreme"] = vertices_of(obj).shape[0]
    return inv


def equivalence_probe(obj1: StateSpace | Face, obj2: StateSpace | Face) -> ProbeResult:
    """Necessary-condition comparison of affine invariants.

    Consistency is reported as such: it never certifies equivalence, but any
    mismatch is a certified inequivalence witness.
    """
    inv1 = space_invariants(obj1)
    inv2 = space_invariants(obj2)
    for key in ("affine_dim", "capacity", "strictly_convex", "n_extreme"):
        a, b = inv1.get(key), inv2.get(key)
        if a is None or b is None:
            continue
        if a != b:
            return ProbeResult(False, mismatch=key, details={"left": inv1, "right": inv2})
    return ProbeResult(True, details={"left": inv1, "right": inv2})


# ---------------------------------------------------------------------------
# Bit-dimension admissibility
# ---------------------------------------------------------------------------

G2_EXCEPTION_DIMENSION = 7


def two_bit_face_dimension_test(d: int) -> bool:
    """Can two d-dimensional ball bits combine into a joint system?

    The bit-pair face spans d+1 dimensions, but for d >= 4 the irreducible
    local rotation action forces an orbit of dimension (d-1)^2 > d+1, a
    contradiction.  d in {1, 2, 3} survives.  The d = 7 exceptional-group
    branch is flagged separately (see ``is_g2_exception``), not computed.
    """
    if d < 1:
        raise DomainError("dimension must be >= 1")
    return not (d > 3 and (d - 1) ** 2 > d + 1)


def is_g2_exception(d: int) -> bool:
    """The d = 7 case admits an exceptional transitive group; flagged, not computed."""
    return d == G2_EXCEPTION_DIMENSION


# ---------------------------------------------------------------------------
# Distinguishable decompositions of the maximally mixed state
# ---------------------------------------------------------------------------

def maximally_mixed_decomposition(space: StateSpace):
    """N perfectly distinguishable pure states averaging to the maximally mixed state.

    Closed form for simplices (all vertices), balls (antipodal poles) and
    quantum systems (an orthonormal basis); for polytopes, searched among
    capacity witnesses.  Returns a DistinguishabilityWitness; like
    ``complete_measurement``, raises BudgetExceededError when the capacity
    search runs out of budget.
    """
    cap = capacity(space)
    if isinstance(space.rep, (SimplexRep, BallRep, QuantumRep)):
        return cap.witness
    if not cap.exact:
        raise BudgetExceededError("capacity search exhausted its budget")
    mu = maximally_mixed(space)
    verts = vertices_of(space)
    tol = resolve_tol(None)
    for subset in combinations(range(verts.shape[0]), cap.n):
        states = verts[list(subset)]
        if np.max(np.abs(states.mean(axis=0) - mu)) > tol:
            continue
        witness = distinguishable_unchecked(space, states, tol)
        if witness is not None:
            return witness
    return None
