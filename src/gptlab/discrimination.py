"""State distinguishability, capacity, complete measurements and K = N^r fits.

Distinguishability of n states asks for n effects that sum to the unit
effect u and evaluate to the Kronecker delta on the given states.  On a
polytope whose facets are known, ``distinguishable`` decides it by a cone
test over them (``_facet_distinguishable``): one LP with a row per
dimension and a nonnegative column per facet that vanishes on all but at
most one of the states.  The capacity search runs the same test over the
polytope's own facets or, without them, those of one DD in the span of its
vertices.  Only a polytope with no facets known (a min composite, a DD past
FACET_DD_BUDGET, a ``SimplexRep``) takes the LP ``_polytope_distinguishable``
in n − 1 effects over the vertex-dual description of the effect cone; the
last effect is u minus the others.  Balls and quantum systems have exact
criteria and solve no LP: on a ball, only a pair of antipodal boundary
points is distinguishable; quantum states are distinguishable iff their
supports are pairwise orthogonal, and then the support projectors are the
witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from gptlab import quantum
from gptlab.config import resolve_tol
from gptlab.errors import BudgetExceededError, DomainError, ValidationError
from gptlab.convex import (
    FACET_DD_BUDGET,
    BallRep,
    Measurement,
    PolytopeRep,
    QuantumRep,
    StateSpace,
    contains_effect,
    contains_state,
    unit_effect_vector,
    vertices_of,
)
from gptlab.geometry import SYMMETRY_NODE_BUDGET, dual_cone_rays, vertex_symmetries
from gptlab.lp import LinearProgram, lp_feasible

DEFAULT_VERTEX_BUDGET = 64
DEFAULT_LP_BUDGET = 4000


@dataclass(frozen=True)
class DistinguishabilityWitness:
    """A measurement with E_i(omega_j) = delta_ij on the listed states;
    witnesses are equal when their measurements and state arrays are."""

    measurement: Measurement
    states: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, DistinguishabilityWitness):
            return NotImplemented
        return self.measurement == other.measurement and np.array_equal(self.states, other.states)

    @property
    def n(self) -> int:
        return self.measurement.n_outcomes


def verify_witness(space: StateSpace, witness: DistinguishabilityWitness,
                   tol: float | None = None) -> bool:
    """Re-check a witness from first principles (delta values + valid effects)."""
    tol = resolve_tol(tol)
    eff = witness.measurement.effects
    states = np.atleast_2d(witness.states)
    if eff.shape[0] != states.shape[0]:
        return False
    delta = eff @ states.T
    if np.max(np.abs(delta - np.eye(eff.shape[0]))) > 10 * tol:
        return False
    return all(contains_effect(space, f, tol=10 * tol) for f in eff)


def _single_state_witness(space: StateSpace, state: np.ndarray) -> DistinguishabilityWitness:
    unit = unit_effect_vector(space.ambient_dim)
    return DistinguishabilityWitness(Measurement(unit[None, :]), np.atleast_2d(state))


def _polytope_distinguishable(space: StateSpace, states: np.ndarray,
                              tol: float) -> DistinguishabilityWitness | None:
    """One LP in E_1..E_{n-1}: E_i(omega_j) = delta_ij, and E_i and E_n = u - sum_i E_i
    are nonnegative on every vertex.  E_n(omega_j) = u(omega_j) - [j < n] is
    delta_nj for normalized states; every measurement sums to u(omega) on omega,
    so a state with u(omega) more than 10 tol off 1 has no witness."""
    verts = vertices_of(space)
    (n, K), nv = states.shape, verts.shape[0]
    m = n - 1
    unit = unit_effect_vector(K)
    if np.max(np.abs(states @ unit - 1.0)) > 10 * tol:
        return None
    blocks = np.arange(m)  # effect E_i owns row block i and column block i
    a_eq = np.zeros((m, n, m, K))
    a_eq[blocks, :, blocks] = states
    a_ub = np.zeros((n, nv, m, K))
    a_ub[blocks, :, blocks] = -verts
    a_ub[m] = verts[:, None]  # sum_i E_i(v) <= u(v)
    feasible, point = lp_feasible(LinearProgram(
        n_vars=m * K,
        a_eq=a_eq.reshape(m * n, m * K),
        b_eq=np.eye(m, n).ravel(),
        a_ub=a_ub.reshape(n * nv, m * K),
        b_ub=np.concatenate([np.zeros(m * nv), verts @ unit]),
    ), tol=tol)
    if not feasible:
        return None
    effects = np.vstack([point.reshape(m, K), unit - point.reshape(m, K).sum(axis=0)])
    return DistinguishabilityWitness(Measurement(effects), states)


def _facet_distinguishable(states: np.ndarray, basis: np.ndarray, facets: np.ndarray,
                           tol: float) -> DistinguishabilityWitness | None:
    """The cone test: perfect distinguishability of ``states`` by one LP in a
    nonnegative weight per usable facet.

    ``basis`` holds r orthonormal rows that span a subspace L holding every
    state: the identity for a polytope's own facets, the span basis of
    ``_span_bound`` for those of its DD.  ``facets`` holds the normals h_k,
    scaled to unit max-abs, of the facets of the state cone C in L's
    coordinates.

    Claim.  States v_1..v_n are perfectly distinguishable iff
    u ∈ cone{h_k : h_k vanishes on at least n − 1 of the v_j}.

    Proof.  The h_k cut out C, so by Farkas' lemma the functionals on L that
    are nonnegative on C, the effect cone, form cone{h_k}.  Let effects
    E_1..E_n with Σ E_i = u tell the v_j apart, and write each
    E_i = Σ_k c_ik h_k with c ≥ 0.  For j ≠ i, 0 = E_i(v_j) = Σ_k c_ik h_k(v_j)
    is a sum of nonnegative terms, so c_ik = 0 unless h_k(v_j) = 0.  Each
    E_i is thus a combination of facets that vanish on every v_j with j ≠ i,
    on at least n − 1 of the states, and so is u = Σ E_i.  Conversely, let
    u = Σ_k c_k h_k with c ≥ 0 over such facets, and give each facet to one
    effect: one that vanishes on every v_j with j ≠ i to E_i, one that
    vanishes on all n states to E_n.  Each E_i is nonnegative on C, their
    sum is u, and E_i(v_j) = 0 for j ≠ i by construction, so
    E_i(v_i) = u(v_i) − Σ_{j≠i} E_j(v_i) = u(v_i) = 1 for normalized states,
    and E_i ≤ u on C: the E_i are a measurement that tells the v_j apart.
    Effects on L lift to the ambient space as E ↦ E @ basis, which has the
    same value at every state; E_n = u − Σ_{i<n} E_i makes them sum to u
    there too.

    A facet vanishes at v when |h(v)| ≤ tol · max|v| in L's coordinates, the
    scaled test of ``convex._first_non_vertex``.  The LP has r equality rows,
    Σ_k c_k h_k = u on L, where ``_polytope_distinguishable``'s has
    (n − 1)·K free variables and n·nv inequality rows.  A state more than
    10 tol off u(v) = 1 has no witness, as there.
    """
    n, K = states.shape
    unit = unit_effect_vector(K)
    if np.max(np.abs(states @ unit - 1.0)) > 10 * tol:
        return None
    coords = states @ basis.T
    vanish = np.abs(coords @ facets.T) <= tol * np.abs(coords).max(axis=1, keepdims=True)
    usable = np.flatnonzero(vanish.sum(axis=0) >= n - 1)
    if usable.size == 0:
        return None
    vanish = vanish[:, usable]
    feasible, weights = lp_feasible(LinearProgram(
        n_vars=usable.size, a_eq=facets[usable].T, b_eq=basis @ unit, nonneg=True), tol=tol)
    if not feasible:
        return None
    # each facet goes to the one state it does not vanish on, or to the last
    owner = np.where(vanish.all(axis=0), n - 1, np.argmin(vanish, axis=0))
    effects = ((owner == np.arange(n - 1)[:, None]) * weights) @ facets[usable] @ basis
    effects = np.vstack([effects, unit - effects.sum(axis=0)])
    return DistinguishabilityWitness(Measurement(effects), states)


def _unit_rows(facets: np.ndarray) -> np.ndarray:
    """Facet rows scaled to unit max-abs, as ``_facet_distinguishable`` takes them."""
    return facets / np.abs(facets).max(axis=1, keepdims=True)


def _rep_frame(rep: PolytopeRep) -> tuple[np.ndarray, np.ndarray] | None:
    """The frame (basis, facets) of a polytope's own facets: the identity
    basis and the rep's facets at unit max-abs, or None when its facets are
    unknown.  Public ``distinguishable`` and ``capacity`` both test in it."""
    if rep.facets is None:
        return None
    return np.eye(rep.ambient_dim), _unit_rows(rep.facets)


def _ball_distinguishable(space: StateSpace, states: np.ndarray,
                          tol: float) -> DistinguishabilityWitness | None:
    """Exact criterion: an effect attains value 1 on the ball only at a single
    boundary point, so a perfectly distinguishable set is a pair of antipodal
    boundary points; larger sets are impossible."""
    n = states.shape[0]
    if n > 2:
        return None
    a, b = states[0][1:], states[1][1:]
    check_tol = max(tol, 1e-9)
    if abs(np.linalg.norm(a) - 1.0) > check_tol or abs(np.linalg.norm(b) - 1.0) > check_tol:
        return None
    if np.max(np.abs(a + b)) > check_tol:
        return None
    direction = a / np.linalg.norm(a)
    e1 = np.concatenate([[0.5], 0.5 * direction])
    e2 = unit_effect_vector(space.ambient_dim) - e1
    return DistinguishabilityWitness(Measurement(np.vstack([e1, e2])), states)


def _quantum_distinguishable(space: StateSpace, states: np.ndarray,
                             tol: float) -> DistinguishabilityWitness | None:
    """Exact criterion: quantum states are perfectly distinguishable iff their
    supports are pairwise orthogonal.  The effects are the support projectors
    of all states but the last (eigenvalues above ``tol``) and the identity
    minus their sum; they verify exactly when the supports are orthogonal."""
    n_level = space.rep.n
    effects = []
    for s in states[:-1]:
        eigvals, eigvecs = np.linalg.eigh(quantum.state_matrix(s, n_level))
        support = eigvecs[:, eigvals > tol]
        effects.append(quantum.effect_coords(support @ support.conj().T, n_level))
    effects.append(unit_effect_vector(states.shape[1]) - np.sum(effects, axis=0))
    witness = DistinguishabilityWitness(Measurement(np.array(effects)), states)
    return witness if verify_witness(space, witness, tol=tol) else None


def distinguishable(space: StateSpace, states, tol: float | None = None
                    ) -> DistinguishabilityWitness | None:
    """Perfect-distinguishability witness for the given states, or None.

    Every state must lie in the space, within max(tol, 1e-7).  The test is
    chosen by the representation, as ``distinguishable_unchecked`` says."""
    tol = resolve_tol(tol)
    states = np.atleast_2d(np.asarray(states, dtype=float))
    if states.size == 0:  # [] and [[]] give shape (1, 0)
        raise DomainError("empty state list")
    for s in states:
        if not contains_state(space, s, tol=max(tol, 1e-7)):
            raise DomainError("state not contained in the space")
    return distinguishable_unchecked(space, states, tol)


def distinguishable_unchecked(space: StateSpace, states: np.ndarray, tol: float
                              ) -> DistinguishabilityWitness | None:
    """``distinguishable`` without its membership check, for states known to lie
    in the space, such as its own vertices.  ``states`` is a non-empty 2-D float
    array and ``tol`` a resolved tolerance.

    One state is told apart by u alone; balls and quantum systems are
    decided by their exact criteria.  A ``PolytopeRep`` with facets is
    decided by the cone test over them in the identity basis
    (``_rep_frame``), whose proof holds for any states in the cone, not only
    vertices, and for any finite set of rows that cuts the cone out, a max
    composite's product rows among them.  A facet counts as vanishing on a
    state at |h(v)| ≤ tol · max|v|, so a state admitted by the membership
    check but farther than that off a facet is not on it.  A polytope
    without facets takes the vertex LP ``_polytope_distinguishable``."""
    n = states.shape[0]
    if n == 1:
        return _single_state_witness(space, states[0])
    rep = space.rep
    if isinstance(rep, BallRep):
        return _ball_distinguishable(space, states, tol)
    if isinstance(rep, QuantumRep):
        return _quantum_distinguishable(space, states, tol)
    frame = _rep_frame(rep) if isinstance(rep, PolytopeRep) else None
    return _candidate_distinguishable(space, states, frame, tol)


# ---------------------------------------------------------------------------
# Capacity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapacityResult:
    """Capacity value with its witness.  ``n`` is None, and the result not
    exact, when the search ran out of budget; the witness then shows the
    lower bound it reached.  Results are equal when both fields are, the
    witness by value.  No field lists distinguishable pairs: every boundary
    state of a polytope has a partner by theorem (P4′)."""

    n: int | None
    witness: DistinguishabilityWitness

    @property
    def exact(self) -> bool:
        return self.n is not None

    @property
    def lower_bound(self) -> int:
        return self.witness.n


def _simplex_capacity(verts: np.ndarray) -> CapacityResult:
    """Linearly independent vertices span a simplex, and its capacity is
    their number by theorem.  The dual basis, the rows of R⁻¹ Qᵀ with
    Vᵀ = QR, which are those of (V Vᵀ)⁻¹ V and of ``pinv(V).T``, holds
    effects that are 1 on one vertex and 0 on the others, so on a state
    they are its barycentric weights, all in [0, 1]: the first nv − 1 of
    them and u minus their sum are a measurement that tells all vertices
    apart.  One QR keeps V's condition number, which the normal equations
    V Vᵀ would square, so the witness verifies on thin simplices too: on a
    triangle of width 1e-6 theirs misses the delta values by 2e-4."""
    q, r = np.linalg.qr(verts.T)
    dual = np.linalg.solve(r, q.T)[:-1]
    effects = np.vstack([dual, unit_effect_vector(verts.shape[1]) - dual.sum(axis=0)])
    return CapacityResult(verts.shape[0], DistinguishabilityWitness(Measurement(effects), verts))


def _ball_capacity(space: StateSpace, tol: float) -> CapacityResult:
    poles = np.zeros((2, space.ambient_dim))
    poles[:, 0] = 1.0
    poles[:, 1] = [1.0, -1.0]
    return CapacityResult(2, _ball_distinguishable(space, poles, tol))


def _quantum_capacity(space: StateSpace) -> CapacityResult:
    n = space.rep.n
    states = []
    effects = []
    for k in range(n):
        v = np.zeros(n, dtype=complex)
        v[k] = 1.0
        proj = np.outer(v, v.conj())
        states.append(quantum.state_coords(proj, n))
        effects.append(quantum.effect_coords(proj, n))
    witness = DistinguishabilityWitness(Measurement(np.array(effects)), np.array(states))
    return CapacityResult(n, witness)


def _vertex_permutations(verts: np.ndarray, tol: float) -> np.ndarray:
    """Vertex permutations of linear symmetries, one per row: the group that
    ``geometry.vertex_symmetries`` finds.  ``capacity`` calls it at most
    once per search, at the first test that answers "not distinguishable",
    since only then can a mark save a test.  If the search passes
    SYMMETRY_NODE_BUDGET nodes, only the identity is kept: any set of
    verified symmetries marks sound orbits, only smaller ones.
    """
    try:
        return vertex_symmetries(verts, tol, SYMMETRY_NODE_BUDGET)
    except BudgetExceededError:
        return np.arange(verts.shape[0])[None, :]


def _capacity_bound(verts: np.ndarray, facets: np.ndarray, tol: float) -> int | None:
    """⌊β⌋ ≥ N, with μ the vertex mean and β the largest h(v)/h(μ) over
    facets h and vertices v; None unless every h(μ) > tol.

    Proof.  The facets cut out the state space S: a normalized y with
    h(y) ≥ 0 for every h is a state.  For a state x, y = μ − (x − μ)/(β − 1)
    is normalized and h(y) = (β·h(μ) − h(x))/(β − 1) ≥ 0, since
    h(x) ≤ β·h(μ) at the vertices and so on their hull; so y is a state.
    If effects e_1..e_N with Σ eᵢ = u tell states x_1..x_N apart, then
    0 ≤ eᵢ(yᵢ) = (β·eᵢ(μ) − 1)/(β − 1), so eᵢ(μ) ≥ 1/β, and summing gives
    1 = u(μ) ≥ N/β: N ≤ β, and N is an integer.  β − 1 is Minkowski's
    measure of asymmetry of S about μ (Grünbaum, 1963); a simplex about its
    centroid has β = N, a centrally symmetric space β = 2.  Either test
    accepts effects up to about 10·tol below 0, which the same steps turn into
    N ≤ β/(1 − 10·β·tol); the slack 100·β²·tol covers that and the
    rounding of β, and it can only loosen the bound.

    A space that spans only a subspace L of its ambient space has no facets
    that cut it out (a facet test accepts points off L), and the proof runs
    in L instead: ``_span_bound`` writes the vertices in an orthonormal
    basis of L and takes the facets h of their cone there.  x, μ and so y
    lie in L, where the h cut out S; the effects restricted to L are linear
    functionals, nonnegative on S, that sum to u, so the same steps give
    N ≤ β.  β is the same in any coordinates of L: each h(v)/h(μ) is one
    linear functional at two points.
    """
    h_mu = facets @ verts.mean(axis=0)
    if np.any(h_mu <= tol):
        return None
    beta = float(np.max((verts @ facets.T) / h_mu))
    return int(beta + 100 * beta * beta * tol)


def _span_bound(verts: np.ndarray, tol: float
                ) -> tuple[int | None, np.ndarray, np.ndarray | None]:
    """``_capacity_bound`` on the vertices V written in an orthonormal basis
    of their linear span, the leading rows of Wᵀ in the thin SVD V = U S Wᵀ
    with the rank cut at ``tol`` as ``geometry.vertex_symmetries`` cuts it,
    and the facets of their cone in that span from one DD.  Returns the
    bound, the basis and the facets; the bound and the facets are None if
    the DD fails or shows more than FACET_DD_BUDGET facets."""
    _, svals, wt = np.linalg.svd(verts, full_matrices=False)
    basis = wt[: int(np.sum(svals > tol * max(1.0, svals[0])))]
    coords = verts @ basis.T
    try:
        facets = dual_cone_rays(coords, tol=tol, max_rays=FACET_DD_BUDGET)
    except (ValidationError, BudgetExceededError):
        return None, basis, None
    return _capacity_bound(coords, facets, tol), basis, facets


def _search_frame(rep: PolytopeRep, verts: np.ndarray, tol: float
                  ) -> tuple[int | None, tuple[np.ndarray, np.ndarray] | None]:
    """The bound ⌊β⌋ of ``capacity``'s search and the frame (basis, facets)
    it tests candidates in: the rep's own (``_rep_frame``), when its facets
    are known, else the span basis and the facets of one DD in the vertices'
    span (``_span_bound``), scaled to unit max-abs as
    ``_facet_distinguishable`` takes them.  The frame is None when neither
    is known."""
    frame = _rep_frame(rep)
    if frame is not None:
        return _capacity_bound(verts, rep.facets, tol), frame
    bound, basis, facets = _span_bound(verts, tol)
    return bound, None if facets is None else (basis, _unit_rows(facets))


def _candidate_distinguishable(space: StateSpace, states: np.ndarray, frame, tol: float
                               ) -> DistinguishabilityWitness | None:
    """The test of n ≥ 2 states of a polytope: the cone test over the facets
    of ``frame`` = (basis, facets), as ``_facet_distinguishable`` takes them,
    or the LP ``_polytope_distinguishable`` when ``frame`` is None.  The
    capacity search passes its ``_search_frame``, public ``distinguishable``
    the rep's own ``_rep_frame``."""
    if frame is None:
        return _polytope_distinguishable(space, states, tol)
    return _facet_distinguishable(states, *frame, tol)


def _check_lp_budget(lp_budget) -> None:
    """Raise DomainError unless ``lp_budget`` is a nonnegative integer,
    Python's or numpy's, and not a bool: a negative budget would end a
    search at once, as if it had run out."""
    if (isinstance(lp_budget, (bool, np.bool_)) or not isinstance(lp_budget, (int, np.integer))
            or lp_budget < 0):
        raise DomainError(f"lp_budget must be a nonnegative integer, got {lp_budget!r}")


def capacity(space: StateSpace, lp_budget: int = DEFAULT_LP_BUDGET,
             tol: float | None = None) -> CapacityResult:
    """Maximal number of jointly perfectly distinguishable states.

    Closed form with a verified certificate for balls and quantum systems.
    Linearly independent vertices, a simplex's among them, span a simplex,
    whose capacity is the vertex count by theorem (``_simplex_capacity``).
    For other polytopes, one depth-first search over vertex index tuples
    in lexicographic order: a distinguishable tuple is extended by each
    index past its last, and a candidate is skipped when a subset one
    element smaller is already known not to be distinguishable
    (monotonicity).  Each candidate is decided by one test: the cone test
    ``_facet_distinguishable`` over the facets the search holds, the
    polytope's own or, without them, those of one DD in the span of its
    vertices (``_span_bound``), and the LP ``distinguishable_unchecked``
    only when neither is known.  A linear map that permutes the vertices
    maps distinguishable sets to distinguishable sets, so one test decides
    a candidate's whole orbit under a set of vertex symmetries: the
    ``perms`` of the space's group, which were found or checked against the
    vertices when the group was built, and otherwise those that
    ``geometry.vertex_symmetries`` finds.  After each test the answer is
    marked on the candidate, which a loaded group need not fix, and on each
    of its sorted images, one per symmetry; a marked candidate takes no
    test.  Without a group, the symmetries are searched only at the first
    test that answers "not distinguishable" (``_vertex_permutations``), and
    the marks of the tests before it are then replayed in test order.
    Until then only the candidate is marked, and no mark is lost: before
    the first "no" the search follows one chain (0, 1), (0, 1, 2), .. whose
    candidates each open a new size, so no earlier mark could decide one,
    and no subset is marked not distinguishable; the tests run, and so the
    result, are those of a search that finds the symmetries first.  A
    search that meets no "no", such as one that the bound ends at the first
    pair, searches no symmetries.
    The search bounds itself by N ≤ ⌊β⌋ (``_capacity_bound``), from the
    same facets: the first distinguishable candidate of size ⌊β⌋ ends it.
    Otherwise it ends when the tuples run out, and N is the largest size it
    found.

    The result is that of a search level by level, which keeps every
    distinguishable tuple of one size before it opens the next: the
    lexicographically first distinguishable set of the largest size, or of
    size ⌊β⌋ when the bound ends the search, with the witness of its test.
    A pre-order DFS visits each size's candidates in lexicographic order,
    and it reaches every distinguishable set, because every prefix of one
    is distinguishable and no subset of one is marked otherwise.  The first
    distinguishable candidate of a size gets its own test on the same
    ``verts[list(cand)]``: a mark on it could only come from an earlier
    distinguishable candidate of that size, and there is none.  So N and
    the witness do not depend on which symmetries mark the orbits or on
    the bound, only the test count does.  Each candidate tested counts one
    against ``lp_budget``, and the candidates the marks decide count
    nothing.  Every budget ends in a result: past ``lp_budget`` tests, or
    past DEFAULT_VERTEX_BUDGET vertices, ``n`` is None and the witness is
    the lexicographically first distinguishable set of the largest size
    found.  The search records no distinguishable pairs: a polytope with
    two or more vertices gives every vertex a partner by theorem, which is
    how P4′ is decided (``runner._check_p4_prime``).  ``lp_budget`` must be
    a nonnegative integer (``_check_lp_budget``), on every kind of space.
    """
    _check_lp_budget(lp_budget)
    tol = resolve_tol(tol)
    rep = space.rep
    if isinstance(rep, BallRep):
        return _ball_capacity(space, tol)
    if isinstance(rep, QuantumRep):
        return _quantum_capacity(space)

    verts = vertices_of(space)
    nv = verts.shape[0]
    if np.linalg.matrix_rank(verts) == nv:
        return _simplex_capacity(verts)
    best = _single_state_witness(space, verts[0])
    if nv > DEFAULT_VERTEX_BUDGET:
        return CapacityResult(None, best)
    perms = getattr(space.group, "perms", None)  # a FiniteMatrixGroup's checked table
    bound, frame = _search_frame(rep, verts, tol)

    firsts = [best]  # the witness of the first distinguishable set of each size
    decided: dict[tuple, bool] = {}  # candidate -> distinguishable
    spent = 0  # candidates tested

    def mark(cand: tuple, answer: bool) -> None:
        """Mark cand's orbit: cand and its sorted images."""
        images = np.sort(perms[:, cand], axis=1).tolist()
        decided.update(dict.fromkeys([cand, *map(tuple, images)], answer))

    stack = list(combinations(range(nv), 2))[::-1]  # popped in lexicographic order
    while stack:
        cand = stack.pop()
        if any(decided.get(cand[:x] + cand[x + 1:]) is False for x in range(len(cand))):
            continue
        if cand not in decided:
            if spent >= lp_budget:
                return CapacityResult(None, firsts[-1])
            spent += 1
            w = _candidate_distinguishable(space, verts[list(cand)], frame, tol)
            if perms is None and w is None:  # the first "no": replay the marks so far
                perms = _vertex_permutations(verts, tol)
                for tested in list(decided):  # in test order, all distinguishable
                    mark(tested, True)
            if perms is None:
                decided[cand] = True
            else:
                mark(cand, w is not None)
        if decided[cand]:
            if len(cand) > len(firsts):  # the first of its size has its own test
                firsts.append(w)
                if len(cand) == bound:
                    return CapacityResult(bound, w)
            stack.extend(cand + (j,) for j in range(nv - 1, cand[-1], -1))
    return CapacityResult(len(firsts), firsts[-1])


def complete_measurement(space: StateSpace, tol: float | None = None) -> DistinguishabilityWitness:
    """A measurement distinguishing as many states as the capacity allows."""
    result = capacity(space, tol=tol)
    if not result.exact:
        raise BudgetExceededError("capacity search exhausted its budget")
    return result.witness


# ---------------------------------------------------------------------------
# Capacity-exponent structure
# ---------------------------------------------------------------------------

def _count(x) -> int:
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
        raise DomainError(f"capacities and dimensions must be integers, got {x!r}")
    return int(x)


def fit_capacity_exponent(pairs) -> int | None:
    """The unique integer r >= 1 with K = N^r across all (N, K) pairs, else
    None.  N and K must be integers, Python's or numpy's, and not bools."""
    pairs = [(_count(n), _count(k)) for n, k in pairs]
    if not pairs:
        raise DomainError("empty pair list")
    for n, k in pairs:
        if n < 1 or k < 1:
            raise DomainError("capacities and dimensions must be >= 1")
    anchors = [(n, k) for n, k in pairs if n >= 2]
    if not anchors:
        return None  # only trivial pairs: the exponent is not unique
    n0, k0 = anchors[0]
    r = int(round(np.log(k0) / np.log(n0)))
    if r < 1 or n0**r != k0:
        return None
    if all(n**r == k for n, k in pairs + [(1, 1)]):
        return r
    return None


def admissible_bit_dimensions(r_max: int) -> list[int]:
    """Ball dimensions compatible with K_2 = 2^r: the list 2^r - 1 for r <= r_max."""
    if r_max < 1:
        raise DomainError("r_max must be >= 1")
    return [2**r - 1 for r in range(1, r_max + 1)]
