"""Distinguishability, capacity, and the K = N^r structure."""

import sys
from dataclasses import replace
from functools import partial
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from gptlab import convex, discrimination, geometry, symmetry
from gptlab.composites import capacity_multiplicativity_check, compose
from gptlab.errors import BudgetExceededError, DomainError, ValidationError
from gptlab.config import resolve_tol
from gptlab.convex import (
    BallRep,
    Measurement,
    PolytopeRep,
    StateSpace,
    cone_contains,
    sample_pure_state,
    vertices_of,
)
from gptlab.discrimination import (
    CapacityResult,
    DistinguishabilityWitness,
    admissible_bit_dimensions,
    capacity,
    complete_measurement,
    distinguishable,
    distinguishable_unchecked,
    fit_capacity_exponent,
    verify_witness,
)
from gptlab.lp import LinearProgram, lp_feasible
from gptlab.geometry import affine_dimension, vertex_symmetries
from gptlab.models import classical, gbit_ball, quantum, square_gbit
from gptlab.runner import PASS, _check_p4_prime, build_space, load_theory, theory_from_dict
from gptlab.symmetry import FiniteMatrixGroup, maximally_mixed, maximally_mixed_decomposition
from gptlab import quantum as qc


def test_simplex_vertices_distinguishable():
    space = classical(4)
    witness = distinguishable(space, vertices_of(space))
    assert witness is not None
    assert verify_witness(space, witness)


def test_ball_poles_distinguishable():
    space = gbit_ball(3)
    north = np.array([1.0, 0.0, 0.0, 1.0])
    south = np.array([1.0, 0.0, 0.0, -1.0])
    witness = distinguishable(space, [north, south])
    assert witness is not None
    assert verify_witness(space, witness)
    # the witness is the pole measurement E(omega) = (1 +- <omega_hat, n>)/2
    e1 = witness.measurement.effects[0]
    assert e1[0] == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(e1[1:], [0.0, 0.0, 0.5], atol=1e-9)


def test_ball_orthogonal_pair_not_distinguishable_with_lp_oracle():
    space = gbit_ball(3)
    omega1 = np.array([1.0, 1.0, 0.0, 0.0])
    omega2 = np.array([1.0, 0.0, 1.0, 0.0])
    assert distinguishable(space, [omega1, omega2]) is None

    # Independent oracle: an outer polyhedral relaxation of the effect system
    # is already LP-infeasible.  Cut states sit on the circle spanned by the
    # two Bloch vectors; infeasibility of the relaxation certifies the claim.
    cuts = []
    for theta in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        s = np.zeros(4)
        s[0] = 1.0
        s[1] = np.cos(theta)
        s[2] = np.sin(theta)
        cuts.append(s)
    cuts = np.array(cuts)
    prog = LinearProgram(
        n_vars=4,
        a_eq=np.vstack([omega1, omega2]),
        b_eq=np.array([1.0, 0.0]),
        a_ub=np.vstack([-cuts, cuts]),
        b_ub=np.concatenate([np.zeros(16), np.ones(16)]),
    )
    feasible, _ = lp_feasible(prog)
    assert not feasible

    # analytic cross-check: complementarity r_x^2 + r_y^2 <= 1 forbids both
    # X and Y readouts from being deterministic simultaneously
    assert omega1[1] ** 2 + omega2[2] ** 2 > 1.0


def _partner(space: StateSpace, pure: np.ndarray, rng) -> np.ndarray:
    """The antipode of a pure ball state; a random pure state orthogonal to a
    pure quantum state."""
    if isinstance(space.rep, BallRep):
        return np.concatenate([[1.0], -pure[1:]])
    n = space.rep.n
    psi = np.linalg.eigh(qc.state_matrix(pure, n))[1][:, -1]
    phi = rng.normal(size=n) + 1j * rng.normal(size=n)
    phi -= (psi.conj() @ phi) * psi
    phi /= np.linalg.norm(phi)
    return qc.state_coords(np.outer(phi, phi.conj()), n)


@pytest.mark.parametrize(
    "space", [gbit_ball(d) for d in range(1, 5)] + [quantum(n) for n in range(2, 5)],
    ids=lambda s: s.name,
)
def test_every_pure_state_has_a_distinguishable_partner(space):
    # the theorem P4' reads on balls and quantum systems
    rng = np.random.default_rng(4)
    tol = resolve_tol(None)
    for _ in range(10):
        pure = sample_pure_state(space, rng)
        states = np.array([pure, _partner(space, pure, rng)])
        witness = distinguishable_unchecked(space, states, tol)
        assert witness is not None
        assert verify_witness(space, witness)


def test_a_single_state_is_distinguished_by_the_unit_effect():
    space = _polygon(5)
    for state in (vertices_of(space)[2], vertices_of(space).mean(axis=0)):
        witness = distinguishable(space, state)
        assert witness.n == 1
        assert np.array_equal(witness.measurement.effects, [[1.0, 0.0, 0.0]])
        assert verify_witness(space, witness)


def test_identical_states_not_distinguishable():
    space = classical(3)
    v = vertices_of(space)[0]
    assert distinguishable(space, [v, v]) is None


def test_quantum_basis_states_distinguishable():
    for n in (2, 3):
        space = quantum(n)
        states = [qc.state_coords(np.diag(np.eye(n)[k]).astype(complex), n) for k in range(n)]
        witness = distinguishable(space, states)
        assert witness is not None
        assert verify_witness(space, witness)


def test_quantum_nonorthogonal_not_distinguishable():
    space = quantum(2)
    zero = qc.state_coords(np.diag([1.0, 0.0]).astype(complex), 2)
    plus = qc.state_coords(np.full((2, 2), 0.5, dtype=complex), 2)
    assert distinguishable(space, [zero, plus]) is None



@pytest.fixture
def lp_calls(monkeypatch):
    """Every lp_solve / lp_feasible call made through any gptlab module."""
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}  # one wrapper per original function, shared by every binding
    for name, module in list(sys.modules.items()):
        if name == "gptlab" or name.startswith("gptlab."):
            for fname in ("lp_solve", "lp_feasible"):
                fn = getattr(module, fname, None)
                if callable(fn):
                    monkeypatch.setattr(module, fname, wrappers.setdefault(fn, counting(fn)))
    return calls


def _block_states(n_level: int, n_states: int, rng: np.random.Generator):
    """States mixed within disjoint blocks of columns of a random unitary."""
    u = qc.random_unitary(n_level, rng)
    cuts = np.sort(rng.choice(np.arange(1, n_level), size=n_states - 1, replace=False))
    blocks = np.split(rng.permutation(n_level), cuts)
    states = []
    for block in blocks:
        weights = rng.dirichlet(np.ones(len(block)))
        cols = u[:, block]
        states.append(qc.state_coords((cols * weights) @ cols.conj().T, n_level))
    return np.array(states), u, blocks


@pytest.mark.parametrize("n_level", [2, 3, 4])
def test_quantum_states_on_orthogonal_supports_are_distinguishable(n_level, lp_calls):
    rng = np.random.default_rng(100 + n_level)
    space = quantum(n_level)
    for n_states in range(2, n_level + 1):
        states, _, _ = _block_states(n_level, n_states, rng)
        witness = distinguishable(space, states)
        assert witness is not None and witness.n == n_states
        assert verify_witness(space, witness)
    assert lp_calls == []


@pytest.mark.parametrize("n_level", [2, 3, 4])
def test_quantum_states_with_overlapping_supports_are_not_distinguishable(n_level, lp_calls):
    rng = np.random.default_rng(200 + n_level)
    space = quantum(n_level)
    eps = 1e-3
    for n_states in range(2, n_level + 1):
        states, u, blocks = _block_states(n_level, n_states, rng)
        for i in range(n_states):
            # leak eps of a column of another block into state i
            other = blocks[(i + 1) % n_states][0]
            leak = qc.state_coords(np.outer(u[:, other], u[:, other].conj()), n_level)
            leaky = states.copy()
            leaky[i] = (1 - eps) * states[i] + eps * leak
            assert distinguishable(space, leaky) is None
        # the maximally mixed state overlaps every support
        mixed = maximally_mixed(space)
        assert distinguishable(space, np.vstack([states[:-1], mixed])) is None
        assert distinguishable(space, np.vstack([mixed, states[1:]])) is None
    # more states than levels
    basis = np.array([qc.state_coords(np.outer(c, c.conj()), n_level) for c in np.eye(n_level)])
    extra = qc.state_coords(qc.random_pure_density(n_level, rng), n_level)
    assert distinguishable(space, np.vstack([basis, extra])) is None
    assert lp_calls == []

def test_state_outside_space_rejected():
    space = gbit_ball(3)
    with pytest.raises(DomainError):
        distinguishable(space, [np.array([1.0, 2.0, 0.0, 0.0])])


@pytest.mark.parametrize(
    "states",
    [
        [[1.0, 1.5, 0.5], [1.0, 0.0, 0.0]],  # normalized, outside the square
        [[2.0, 0.0, 0.0], [2.0, 2.0, 2.0]],  # in the cone over the square, unnormalized
    ],
)
def test_polytope_state_outside_space_rejected(states):
    with pytest.raises(DomainError):
        distinguishable(square_gbit(), states)


def _ns_face() -> StateSpace:
    """The 8-vertex face of the no-signalling polytope on which the facets
    x*x' >= 0 and x*(1 - x') >= 0 are tight (coordinates 4 and 3 - 4 vanish)."""
    sq = square_gbit()
    verts = vertices_of(compose(sq, sq, "max").space)
    face = verts[(np.abs(verts[:, 3]) <= 1e-9) & (np.abs(verts[:, 4]) <= 1e-9)]
    assert face.shape[0] == 8
    return StateSpace(name="ns-face", rep=PolytopeRep(face))


def _polygon(n: int) -> StateSpace:
    angles = 2 * np.pi * np.arange(n) / n
    corners = np.column_stack([np.ones(n), np.cos(angles), np.sin(angles)])
    return StateSpace(name=f"{n}-gon", rep=PolytopeRep(corners))


@pytest.mark.parametrize("states", [[], [[]], np.zeros((0, 3))], ids=["list", "nested", "0x3"])
def test_an_empty_state_list_is_a_domain_error(states):
    # np.atleast_2d([]) has shape (1, 0), whose one empty row used to reach
    # the membership test and raise DimensionMismatchError
    with pytest.raises(DomainError, match="empty state list"):
        distinguishable(square_gbit(), states)


def test_capacity_of_own_vertices_runs_no_membership_check(monkeypatch):
    # capacity and the decomposition search pass only the space's own
    # vertices to the distinguishability core, which must not re-prove them
    sq = square_gbit()
    space = _ns_face()

    def refuse(*args, **kwargs):
        raise AssertionError("membership re-checked")

    monkeypatch.setattr(discrimination, "contains_state", refuse)
    result = capacity(space)
    assert result.n == 4 and result.exact
    assert verify_witness(space, result.witness)
    assert maximally_mixed_decomposition(sq).n == 2


@pytest.mark.parametrize(
    "space,expected",
    [
        (classical(4), 4),
        (gbit_ball(3), 2),
        (square_gbit(), 2),
        (quantum(3), 3),
    ],
    ids=["simplex4", "ball3", "square", "quantum3"],
)
def test_capacity_values(space, expected):
    result = capacity(space)
    assert result.exact
    assert result.n == expected
    assert verify_witness(space, result.witness)


def _assert_every_vertex_has_a_partner(space):
    # oracle for the theorem P4' states on polytopes: one LP per vertex pair
    verts = vertices_of(space)
    partnered = {
        k for i, j in combinations(range(verts.shape[0]), 2)
        if distinguishable(space, verts[[i, j]]) is not None for k in (i, j)
    }
    assert partnered == set(range(verts.shape[0]))
    assert _check_p4_prime(space) == {"status": PASS}


@pytest.mark.parametrize(
    "space", [square_gbit(), _polygon(5), _ns_face(), classical(4)],
    ids=["square", "5-gon", "ns-face", "simplex4"],
)
def test_every_vertex_has_a_distinguishable_partner(space):
    # the no-signalling face spans only part of its ambient space
    _assert_every_vertex_has_a_partner(space)


@seed(20120321)
@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), count=st.integers(min_value=4, max_value=9),
       point_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_every_vertex_of_a_random_polytope_has_a_distinguishable_partner(dim, count, point_seed):
    # polygons and 3-polytopes: the hull of 4 to 9 Gaussian points
    hull = pytest.importorskip("scipy.spatial").ConvexHull
    points = np.random.default_rng(point_seed).normal(size=(count, dim))
    corners = points[np.sort(hull(points).vertices)]
    verts = np.column_stack([np.ones(len(corners)), corners])
    _assert_every_vertex_has_a_partner(StateSpace(name="random", rep=PolytopeRep(verts)))


@seed(20120321)
@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), count=st.integers(min_value=4, max_value=9),
       point_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_the_facet_bound_holds_and_changes_no_capacity(dim, count, point_seed):
    # N ≤ ⌊β⌋ on the hull of 4 to 9 Gaussian points and on a unit-fixing
    # linear image of it; the search over the rep's facets finds N, exact
    # and the witness states that the search on the bare vertices, bounded
    # and tested by the facets of their span, finds.  The two witnesses'
    # effects combine different facet normals, and both verify
    hull = pytest.importorskip("scipy.spatial").ConvexHull
    rng = np.random.default_rng(point_seed)
    points = rng.normal(size=(count, dim))
    corners = points[np.sort(hull(points).vertices)]
    verts = np.column_stack([np.ones(len(corners)), corners])
    a = np.eye(dim + 1)
    a[1:, 0] = rng.uniform(-0.5, 0.5, size=dim)
    a[1:, 1:] = rng.uniform(-1.0, 1.0, size=(dim, dim)) + 1.5 * np.eye(dim)
    assume(np.linalg.cond(a) < 20)
    for rows in (verts, verts @ a.T):
        rep = PolytopeRep.with_facets(rows)
        result = capacity(StateSpace(name="random", rep=rep))
        bound = discrimination._capacity_bound(rep.vertices, rep.facets, resolve_tol(None))
        assert bound is not None and bound >= result.n
        bare = StateSpace(name="random", rep=PolytopeRep(rows))
        spanned = capacity(bare)
        assert (result.n, result.exact) == (spanned.n, spanned.exact)
        assert np.array_equal(result.witness.states, spanned.witness.states)
        assert verify_witness(bare, result.witness) and verify_witness(bare, spanned.witness)


def _highs_distinguishable(verts: np.ndarray, subset: tuple) -> bool:
    """Oracle: are the subset's vertices perfectly distinguishable?"""
    return _highs_tells_apart(verts, verts[list(subset)])


def _highs_tells_apart(verts: np.ndarray, states: np.ndarray) -> bool:
    """Oracle: one HiGHS feasibility LP over all n effects, E_i ≥ 0 on every
    vertex, Σ E_i = u and E_i(ω_j) = δ_ij on the states."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    (nv, k), n = verts.shape, len(states)
    eye = np.eye(n)
    res = linprog(np.zeros(n * k), method="highs", bounds=(None, None),
                  A_ub=-np.kron(eye, verts), b_ub=np.zeros(n * nv),
                  A_eq=np.vstack([np.kron(eye, states), np.kron(np.ones(n), np.eye(k))]),
                  b_eq=np.concatenate([eye.ravel(), np.eye(k)[0]]))
    assert res.status in (0, 2), res.message  # feasible or infeasible
    return res.status == 0


@seed(20120321)
@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), order=st.sampled_from([1, 2, 3, 4]),
       count=st.integers(min_value=2, max_value=8), extra=st.sampled_from([0, 1, 2]),
       point_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_capacity_matches_a_brute_force_oracle_on_random_hulls(dim, order, count, extra,
                                                               point_seed):
    # the hull of at most 8 Gaussian points, closed under a rotation of the
    # given order in the first two coordinates so that orbit marks decide
    # candidates, and its image under an injective linear map into `extra`
    # more dimensions, rank-deficient like the no-signalling faces.  The
    # oracle tries every subset of each size until a size has none: the
    # search's N and witness size match it, ⌊β⌋ in the span is at least N,
    # and no LP is solved on a candidate with a subset one element smaller
    # in the orbit of a set an earlier LP found not distinguishable
    hull = pytest.importorskip("scipy.spatial").ConvexHull
    rng = np.random.default_rng(point_seed)
    base = rng.normal(size=(min(count, 8 // order), dim))
    turn = np.eye(dim)
    turn[:2, :2] = [[np.cos(2 * np.pi / order), -np.sin(2 * np.pi / order)],
                    [np.sin(2 * np.pi / order), np.cos(2 * np.pi / order)]]
    points = np.vstack([base @ np.linalg.matrix_power(turn, i).T for i in range(order)])
    assume(len(points) > dim + 1)
    corners = points[np.sort(hull(points).vertices)]
    verts = np.column_stack([np.ones(len(corners)), corners])
    embed = np.vstack([np.eye(dim + 1)[:1], rng.normal(size=(dim + extra, dim + 1))])
    assume(np.linalg.cond(embed) < 20)
    tol = resolve_tol(None)
    for rows in (verts, verts @ embed.T):
        space = StateSpace(name="random", rep=PolytopeRep(rows))
        verts_k = vertices_of(space)
        answers = {}

        def oracle(subset):
            if subset not in answers:
                answers[subset] = _highs_distinguishable(verts_k, subset)
            return answers[subset]

        n = 1
        while n < len(verts_k) and any(oracle(c) for c in combinations(range(len(verts_k)), n + 1)):
            n += 1
        with pytest.MonkeyPatch.context() as monkeypatch:
            result, solved = _solved_candidates(monkeypatch, space)
        assert (result.n, result.exact, result.witness.n) == (n, True, n)
        assert verify_witness(space, result.witness)
        bound, _, facets = discrimination._span_bound(verts_k, tol)
        assert bound is not None and bound >= n and facets is not None
        perms = discrimination._vertex_permutations(verts_k, tol)
        refuted = set()
        for cand in solved:
            assert not any(cand[:x] + cand[x + 1:] in refuted for x in range(len(cand))), cand
            if not oracle(cand):
                refuted.update(map(tuple, np.sort(perms[:, cand], axis=1).tolist()))


def _differential_inputs() -> list[tuple[StateSpace, int, list[tuple]]]:
    """(space, largest subset size, subsets known to be distinguishable) for
    the cone-test oracle: the NS polytope with its product facets, four of
    its 8-vertex faces with the facets of their span, the corpus cube,
    octahedron, tesseract, 5-gon and 12-gon with the facets of their JSON
    build, and max(5-gon, 5-gon), whose vertices 0, 5, 95, 109 and 130 are
    distinguishable, with its 25 product facets."""
    sq = square_gbit()
    pentagon = build_space(load_theory(str(CORPUS / "5-gon.json")))
    spaces = [compose(sq, sq, "max").space, *_ns_faces()[:4]] + [
        build_space(load_theory(str(CORPUS / f"{name}.json")))
        for name in ["cube", "octahedron", "tesseract", "5-gon", "12-gon"]]
    inputs = []
    for space in spaces:
        row = {v.tobytes(): i for i, v in enumerate(vertices_of(space))}
        inputs.append((space, 5, [tuple(row[s.tobytes()] for s in capacity(space).witness.states)]))
    return inputs + [(compose(pentagon, pentagon, "max").space, 3, [(0, 5), (0, 5, 95)])]


def test_the_cone_test_matches_the_lp_and_highs():
    # on seeded vertex subsets of sizes 2-5, 2-3 on max(5-gon, 5-gon), and
    # on each capacity witness, the cone test over the facets the search
    # holds answers as the LP and HiGHS do, and every witness it returns
    # verifies
    rng = np.random.default_rng(20120321)
    tol = resolve_tol(None)
    answers = []
    for space, top, known in _differential_inputs():
        verts = vertices_of(space)
        _, frame = discrimination._search_frame(space.rep, verts, tol)
        assert frame is not None, space.name
        drawn = [tuple(sorted(rng.choice(len(verts), size, replace=False)))
                 for size in range(2, top + 1) for _ in range(6)]
        for subset in known + drawn:
            states = verts[list(subset)]
            witness = discrimination._facet_distinguishable(states, *frame, tol)
            lp = discrimination._polytope_distinguishable(space, states, tol)
            assert (witness is not None) == (lp is not None) == _highs_distinguishable(
                verts, subset), (space.name, subset)
            assert witness is None or verify_witness(space, witness), (space.name, subset)
            answers.append((len(subset), witness is not None))
    # both answers at every size but 5; the capacity witnesses give the yes at 4
    assert {size for size, yes in answers if yes} == {2, 3, 4}
    assert {size for size, yes in answers if not yes} == {2, 3, 4, 5}


def _non_vertex_sets(space: StateSpace, witness: DistinguishabilityWitness, rng
                     ) -> list[tuple[str, np.ndarray]]:
    """Seeded state sets with non-vertex states, labelled by kind: pairs of
    edge midpoints, an edge midpoint with a vertex, pairs and triples of
    Dirichlet mixtures inside one facet each, a vertex with an interior
    point (never distinguishable) and two interior points, and mixtures
    inside the faces where each effect of ``witness`` is 1, which are
    distinguishable by it."""
    verts = vertices_of(space)
    nv, k = verts.shape
    facets = convex.unit_rows(space.rep.facets)
    tight = np.abs(verts @ facets.T) <= 1e-9
    edges = []
    for pair in rng.permutation(list(combinations(range(nv), 2))):
        if np.linalg.matrix_rank(facets[tight[pair[0]] & tight[pair[1]]]) == k - 2:
            edges.append(verts[pair].mean(axis=0))
            if len(edges) == 8:
                break

    def mixture(rows):
        return rng.dirichlet(np.ones(len(rows))) @ rows

    def in_facet():
        return mixture(verts[tight[:, rng.integers(len(facets))]])

    def vertex():
        return verts[rng.integers(nv)]

    faces = [verts[e @ verts.T >= 1 - 1e-9] for e in witness.measurement.effects]
    sets = [("edges", np.array(edges[i:i + 2])) for i in range(0, len(edges) - 1, 2)]
    sets += [("edge-vertex", np.array([edge, vertex()])) for edge in edges[:4]]
    sets += [("facets", np.array([in_facet() for _ in range(n)])) for n in (2, 2, 2, 3, 3)]
    sets += [("vertex-interior", np.array([vertex(), mixture(verts)])) for _ in range(3)]
    sets += [("interior", np.array([mixture(verts), mixture(verts)]))]
    sets += [("faces", np.array([mixture(face) for face in faces[:n]]))
             for n in (2, len(faces))]
    return sets


def test_public_distinguishable_matches_the_lp_and_highs_on_non_vertex_states():
    # states capacity never passes, on polytopes whose facets are known:
    # public distinguishable (the cone test) answers as the vertex LP and
    # HiGHS do, and every witness it returns verifies
    rng = np.random.default_rng(20120325)
    tol = resolve_tol(None)
    sq = square_gbit()
    pentagon = build_space(load_theory(str(CORPUS / "5-gon.json")))
    spaces = [compose(sq, sq, "max").space, sq] + [
        build_space(load_theory(str(CORPUS / f"{name}.json")))
        for name in ["cube", "octahedron", "5-gon", "12-gon"]]
    inputs = [(space, capacity(space).witness) for space in spaces]
    # max(5-gon, 5-gon) is past the search's vertex budget; its five
    # vertices 0, 5, 95, 109 and 130 are distinguishable
    space = compose(pentagon, pentagon, "max").space
    inputs.append((space, distinguishable(space, vertices_of(space)[[0, 5, 95, 109, 130]])))
    answers = set()
    for space, code in inputs:
        assert space.rep.facets is not None and code.n >= 2, space.name
        verts = vertices_of(space)
        for kind, states in _non_vertex_sets(space, code, rng):
            witness = distinguishable(space, states)
            lp = discrimination._polytope_distinguishable(space, states, tol)
            assert (witness is not None) == (lp is not None) == _highs_tells_apart(
                verts, states), (space.name, kind)
            assert witness is None or verify_witness(space, witness), (space.name, kind)
            answers.add((kind, witness is not None))
    # both answers on edges; random facet points are nearly all "no", and
    # the witness faces give the "yes" on mixtures
    assert ("vertex-interior", True) not in answers and ("faces", False) not in answers
    assert {("edges", True), ("edges", False), ("edge-vertex", True), ("edge-vertex", False),
            ("facets", False), ("faces", True)} <= answers


def test_only_a_polytope_without_facets_solves_the_vertex_lp(monkeypatch):
    # min(square, square) has product vertices and no facets, so public
    # distinguishable takes the vertex LP there; the no-signalling polytope
    # max(square, square) has its product facets and takes the cone test
    sq = square_gbit()
    calls = []
    for name in ("_polytope_distinguishable", "_facet_distinguishable"):
        def recording(*args, name=name, test=getattr(discrimination, name)):
            calls.append(name)
            return test(*args)

        monkeypatch.setattr(discrimination, name, recording)
    for rule, route in (("min", "_polytope_distinguishable"), ("max", "_facet_distinguishable")):
        space = compose(sq, sq, rule).space
        assert (space.rep.facets is None) == (rule == "min")
        calls.clear()
        pair = vertices_of(space)[[0, 15]]
        witness = distinguishable(space, pair)
        assert witness is not None and verify_witness(space, witness)
        assert distinguishable(space, np.vstack([pair[0], vertices_of(space).mean(axis=0)])) is None
        assert calls == [route, route], rule


def test_the_pentagon_squared_has_capacity_five():
    # min(5-gon, 5-gon) holds 5 distinguishable product states, one more
    # than N_A·N_B = 4: Shannon's zero-error code for the pentagon, since
    # the 5-gon's confusability graph is C5 and α(C5 ⊠ C5) = 5.  Its 135
    # facets pass FACET_DD_BUDGET, so the search tests candidates by the LP
    pentagon = build_space(load_theory(str(CORPUS / "5-gon.json")))
    comp = compose(pentagon, pentagon, "min")
    result = capacity_multiplicativity_check(comp, full_search=True)
    assert (result.product_bound, result.composite_capacity, result.ok) == (4, 5, False)
    witness = capacity(comp.space).witness
    verts = vertices_of(comp.space)
    row = {v.tobytes(): i for i, v in enumerate(verts)}
    subset = tuple(row[s.tobytes()] for s in witness.states)
    assert len(subset) == 5 and _highs_distinguishable(verts, subset)
    assert verify_witness(comp.space, witness)


def test_measurements_witnesses_and_capacity_results_compare_by_value():
    square = square_gbit()
    result = capacity(square)
    witness = result.witness
    effects = witness.measurement.effects
    assert Measurement(effects) == Measurement(effects.copy())
    assert Measurement(effects) != Measurement(effects[::-1])
    assert Measurement(effects) != witness
    assert witness == DistinguishabilityWitness(Measurement(effects.copy()), witness.states.copy())
    assert witness != DistinguishabilityWitness(witness.measurement, witness.states[::-1])
    assert result == capacity(square_gbit())
    assert result != capacity(_polygon(5))
    assert result == CapacityResult(result.n, witness)
    assert result != CapacityResult(result.n, capacity(_polygon(5)).witness)
    assert result != CapacityResult(None, witness)
    assert result != CapacityResult(result.n + 1, witness)


def test_a_capacity_result_is_exact_exactly_when_it_has_n():
    # exactness and the lower bound are derived, so no result carries an N
    # it calls inexact or a bound its witness does not show
    witness = capacity(square_gbit()).witness
    assert CapacityResult(2, witness).exact and CapacityResult(2, witness).lower_bound == 2
    assert not CapacityResult(None, witness).exact
    assert CapacityResult(None, witness).lower_bound == witness.n == 2
    with pytest.raises(TypeError):
        CapacityResult(2, witness, exact=False)
    with pytest.raises(TypeError):
        CapacityResult(2, witness, lower_bound=2)


def test_a_facet_less_rank_deficient_face_answers_through_the_lp(monkeypatch):
    # the NS face spans only part of its ambient space and carries no
    # facets, so membership and the public distinguishable solve the cone LP
    face = _ns_face()
    assert face.rep.facets is None
    verts = vertices_of(face)
    sq = square_gbit()
    off_face = vertices_of(compose(sq, sq, "max").space)
    off_face = off_face[np.abs(off_face[:, 3]) > 1e-9][0]
    pair = capacity(face).witness.states[:2]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return cone_contains(*args, **kwargs)

    monkeypatch.setattr(convex, "cone_contains", counting)
    assert convex.contains_state(face, verts.mean(axis=0))
    assert not convex.contains_state(face, off_face)
    assert len(calls) == 2
    witness = distinguishable(face, pair)
    assert witness is not None and verify_witness(face, witness)
    # an effect that is 0 at an interior point is 0 on the whole face
    assert distinguishable(face, np.vstack([pair[0], verts.mean(axis=0)])) is None
    assert len(calls) == 6  # one membership LP per state


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_distinguishability_lp_solves_for_all_effects_but_the_last(monkeypatch, n):
    # E_n = u - sum of the others, so the LP has n - 1 effect blocks, n(n - 1)
    # delta rows and n rows per vertex (E_1..E_{n-1} >= 0 and E_n >= 0)
    face = _ns_face()
    verts = vertices_of(face)
    programs = []

    def capture(prog, tol=None):
        programs.append(prog)
        return lp_feasible(prog, tol=tol)

    monkeypatch.setattr(discrimination, "lp_feasible", capture)
    distinguishable_unchecked(face, verts[:n], 1e-9)
    [prog] = programs
    K, nv = face.ambient_dim, verts.shape[0]
    assert prog.n_vars == (n - 1) * K
    assert prog.a_eq.shape == ((n - 1) * n, (n - 1) * K)
    assert prog.a_ub.shape == (n * nv, (n - 1) * K)


@pytest.mark.parametrize("off", [5e-9, -5e-9, 5e-8, -5e-8, 9e-8])
def test_a_witness_verifies_for_states_off_normalization(off):
    # distinguishable admits states up to 1e-7 off u(omega) = 1; a measurement
    # sums to u(omega) on omega, so past 10 tol there is no witness to return
    space = square_gbit()
    states = np.array([[1.0 + off, 0.0, 0.0], [1.0, 1.0, 1.0]])
    witness = distinguishable(space, states, tol=1e-9)
    assert (witness is not None) == (abs(off) <= 1e-8)
    assert witness is None or verify_witness(space, witness, tol=1e-9)


def test_square_capacity_matches_bruteforce():
    # oracle: try every subset of the 4 vertices directly by LP
    space = square_gbit()
    verts = vertices_of(space)
    largest = 1
    for size in (2, 3, 4):
        for subset in combinations(range(4), size):
            if distinguishable(space, verts[list(subset)]) is not None:
                largest = max(largest, size)
    assert largest == capacity(space).n == 2


def test_subsets_of_distinguishable_sets_stay_distinguishable():
    # coarse-grain the witness measurement onto the subset
    for space in (classical(4), quantum(2), square_gbit(), gbit_ball(4)):
        witness = capacity(space).witness
        effects = witness.measurement.effects
        states = witness.states
        n = effects.shape[0]
        if n < 2:
            continue
        keep = list(range(n - 1))
        coarse = effects[keep].copy()
        coarse[-1] = coarse[-1] + effects[n - 1]
        sub = DistinguishabilityWitness(Measurement(coarse), states[keep])
        assert verify_witness(space, sub)


def test_complete_measurement_examples():
    bit = classical(2)
    witness = complete_measurement(bit)
    assert witness.n == 2
    assert verify_witness(bit, witness)

    ball = gbit_ball(3)
    witness = complete_measurement(ball)
    assert witness.n == 2 and verify_witness(ball, witness)

    q2 = quantum(2)
    witness = complete_measurement(q2)
    assert witness.n == 2 and verify_witness(q2, witness)
    # effects are an orthonormal projector pair
    e = witness.measurement.effects
    assert np.allclose(qc.effect_matrix(e[0], 2) @ qc.effect_matrix(e[1], 2), 0, atol=1e-12)


# ---------------------------------------------------------------------------
# Orbits of the capacity search
# ---------------------------------------------------------------------------

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"
CORPUS_POLYTOPES = ["square"] + [f"{n}-gon" for n in range(3, 13)] + [
    "cube", "octahedron", "tesseract"]


def _ns_faces(order_seed: int = 0) -> list[StateSpace]:
    """The 16 faces of the no-signalling polytope with 8 vertices, each cut
    out by two of its 16 positivity facets, vertices in seeded order."""
    sq = square_gbit()
    verts = vertices_of(compose(sq, sq, "max").space)
    facets = np.array([[0.0, 1, 0], [1, -1, 0], [0, 0, 1], [1, 0, -1]])
    tight = np.abs(verts @ np.array([np.kron(f, g) for f in facets for g in facets]).T) <= 1e-9
    rng = np.random.default_rng(order_seed)
    faces = []
    for a, b in combinations(range(16), 2):
        face = verts[tight[:, a] & tight[:, b]]
        if face.shape[0] == 8:
            faces.append(StateSpace(name=f"ns-face-{a}-{b}",
                                    rep=PolytopeRep(face[rng.permutation(8)])))
    assert len(faces) == 16
    return faces


def _cross_polytope(d: int) -> StateSpace:
    e = np.eye(d)
    return StateSpace(name=f"{d}-cross",
                      rep=PolytopeRep(np.column_stack([np.ones(2 * d), np.vstack([e, -e])])))


def _identity_only(verts, tol):
    return np.arange(verts.shape[0])[None, :]


def _without_bound(monkeypatch):
    """Disable the ⌊β⌋ bound, from facets or from the span, so that the
    search runs until its candidates run out."""
    monkeypatch.setattr(discrimination, "_capacity_bound", lambda *args: None)


def _assert_orbits_change_nothing(monkeypatch, space, **kwargs):
    # the memo keyed by the group's permutations, by a fresh search, and by
    # the identity alone (one LP per candidate) gives one answer
    with_orbits = capacity(space, **kwargs)
    groupless = replace(space, group=None)
    searched = capacity(groupless, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(discrimination, "_vertex_permutations", _identity_only)
        every_lp = capacity(groupless, **kwargs)
    assert with_orbits == searched == every_lp, space.name


def _count_search_tests(monkeypatch) -> list:
    """Record the arguments of each candidate test the capacity search runs."""
    calls = []
    test = discrimination._candidate_distinguishable

    def counting_test(*args):
        calls.append(args)
        return test(*args)

    monkeypatch.setattr(discrimination, "_candidate_distinguishable", counting_test)
    return calls


def _corpus_space_with_group(name: str) -> StateSpace:
    """A corpus polytope with its vertex group: a family's own, or for an
    "auto" polytope the group that a check searches for it."""
    space = build_space(load_theory(str(CORPUS / f"{name}.json")))
    if space.group is None:
        space = replace(space, group=symmetry.polytope_symmetry_group(space.rep.vertices))
    return space


@pytest.mark.parametrize("name", CORPUS_POLYTOPES)
def test_orbit_memo_matches_an_lp_per_candidate_on_the_corpus(monkeypatch, name):
    # with the identity as the only symmetry, every candidate gets its own LP
    space = _corpus_space_with_group(name)
    assert space.group.perms is not None
    _assert_orbits_change_nothing(monkeypatch, space)


@pytest.mark.parametrize("matrices", [
    [np.eye(3).tolist()],
    [[[1.0, 0.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]],  # (x, y) -> (1 - y, x)
], ids=["identity", "quarter-turn"])
def test_orbit_memo_matches_an_lp_per_candidate_under_a_loaded_finite_group(monkeypatch, matrices):
    # the square's capacity read through a "finite" group's permutations,
    # the identity alone or the quarter-turn alone, which is no group
    space = build_space(theory_from_dict({"name": "square", "space": {"family": "square"},
                                          "group": {"kind": "finite", "matrices": matrices}}))
    assert space.group.perms.shape == (len(matrices), 4)
    _assert_orbits_change_nothing(monkeypatch, space)


def test_orbit_memo_matches_an_lp_per_candidate_on_the_no_signalling_faces(monkeypatch):
    for face in _ns_faces():
        _assert_orbits_change_nothing(monkeypatch, face, lp_budget=100_000)


@pytest.mark.parametrize("lp_budget", [2, 30, 60])
def test_lp_budget_counts_only_the_lps_solved(monkeypatch, lp_budget):
    # candidates the orbit memo or the reject decides are free, so the orbit
    # search gets at least as far as one LP per candidate on the same budget;
    # without the bound, the face takes 8 LPs with its orbits and 112 without
    # them
    _without_bound(monkeypatch)
    face = _ns_face()
    calls = _count_search_tests(monkeypatch)
    with_orbits = capacity(face, lp_budget=lp_budget)
    assert len(calls) <= lp_budget if with_orbits.exact else len(calls) == lp_budget
    with monkeypatch.context() as m:
        m.setattr(discrimination, "_vertex_permutations", _identity_only)
        calls.clear()
        every_lp = capacity(face, lp_budget=lp_budget)
    assert len(calls) == lp_budget and not every_lp.exact
    assert with_orbits.lower_bound >= every_lp.lower_bound
    if with_orbits.exact:
        assert with_orbits == capacity(face, lp_budget=100_000)


def test_orbit_memo_with_a_large_symmetry_group(monkeypatch):
    # the 5-cross-polytope has 3840 symmetries, all of which mark orbits
    space = _cross_polytope(5)
    assert len(discrimination._vertex_permutations(vertices_of(space), 1e-9)) == 3840
    _assert_orbits_change_nothing(monkeypatch, space)


def test_orbit_memo_falls_back_to_the_identity_past_the_node_budget(monkeypatch):
    # a search that passes SYMMETRY_NODE_BUDGET nodes keeps only the identity:
    # one LP per candidate that the reject leaves, and the same result as the
    # search's orbits
    _without_bound(monkeypatch)
    face = _ns_face()
    assert face.group is None
    calls = _count_search_tests(monkeypatch)
    searched = capacity(face)
    assert len(calls) == 8
    monkeypatch.setattr(discrimination, "SYMMETRY_NODE_BUDGET", 1)
    assert discrimination._vertex_permutations(vertices_of(face), 1e-9).tolist() == [
        list(range(8))]
    calls.clear()
    assert capacity(face) == searched
    assert len(calls) == 112


# Integer points on a circle and on a sphere: every subset is in convex position.
CIRCLE = [p for p in product(range(-5, 6), repeat=2) if p[0] ** 2 + p[1] ** 2 == 25]
SPHERE = [p for p in product(range(-3, 4), repeat=3) if sum(x * x for x in p) == 9]


@seed(20120321)
@settings(max_examples=25, deadline=None)
@given(
    points=st.sampled_from([CIRCLE, SPHERE]).flatmap(
        lambda pts: st.lists(st.sampled_from(pts), min_size=3, max_size=9, unique=True)),
    map_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_orbit_memo_on_integer_polytopes_and_their_linear_images(points, map_seed):
    verts = np.array([[1.0, *p] for p in points])
    k = verts.shape[1]
    assume(affine_dimension(verts) == k - 1)
    a = np.eye(k)
    a[1:] = np.random.default_rng(map_seed).uniform(-1.0, 1.0, size=(k - 1, k))
    a[1:, 1:] += 1.5 * np.eye(k - 1)
    assume(np.linalg.cond(a) < 20)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for v in (verts, verts @ a.T):
            _assert_orbits_change_nothing(monkeypatch, StateSpace(name="p", rep=PolytopeRep(v)))


def test_one_lp_per_orbit_on_the_no_signalling_polytope(monkeypatch):
    # each 8-vertex face has 128 linear symmetries, and its span bound
    # ⌊β⌋ = 4 ends the search after 3 LPs, one per size, 48 over the 16
    # faces: the candidates before its first distinguishable 4-set are
    # rejected by their facets with no LP.  The whole polytope's facet
    # bound ends it after 3.  Without the bound the search decides every
    # candidate: 8 LPs per face and 104 on the whole polytope, never two in
    # one orbit
    sq = square_gbit()
    spaces = _ns_faces() + [compose(sq, sq, "max").space]
    lps = []
    for space in spaces:
        result, solved = _solved_candidates(monkeypatch, space, lp_budget=100_000)
        assert (result.n, result.exact) == (4, True)
        lps.append(len(solved))
    assert lps == [3] * 17
    _without_bound(monkeypatch)
    for space, lps in zip(spaces, [8] * 16 + [104]):
        perms = vertex_symmetries(vertices_of(space), 1e-9, 10**6)
        result, solved = _solved_candidates(monkeypatch, space, lp_budget=100_000)
        assert (result.n, result.exact) == (4, True)
        assert len(solved) == len({_lexicographic_orbit_key(perms, c) for c in solved}) == lps


def _hypercube(d: int) -> StateSpace:
    corners = np.array(list(product((-1.0, 1.0), repeat=d)))
    return StateSpace(name=f"{d}-cube",
                      rep=PolytopeRep(np.column_stack([np.ones(2**d), corners])))


def _solved_candidates(monkeypatch, space, search=capacity, **kwargs
                       ) -> tuple[CapacityResult, list]:
    """The result of a capacity search and the index tuple of each candidate
    it tests."""
    row = {v.tobytes(): i for i, v in enumerate(vertices_of(space))}
    solved = []
    test = discrimination._candidate_distinguishable

    def recording_test(space, states, frame, tol):
        solved.append(tuple(row[s.tobytes()] for s in states))
        return test(space, states, frame, tol)

    with monkeypatch.context() as m:
        m.setattr(discrimination, "_candidate_distinguishable", recording_test)
        return search(space, **kwargs), solved


def _lexicographic_orbit_key(perms: np.ndarray, cand: tuple) -> bytes:
    """Reference orbit key: the lexicographically least sorted image."""
    images = np.sort(perms[:, cand], axis=1)
    return images[np.lexsort(images.T[::-1])[0]].tobytes()


def _spaces(name: str) -> list[StateSpace]:
    if name == "ns-faces":
        return _ns_faces()
    if name == "5-cube":
        return [_hypercube(5)]
    if name == "5-cross":
        return [_cross_polytope(5)]
    return [_corpus_space_with_group(name)]


@pytest.mark.parametrize("name", CORPUS_POLYTOPES + ["ns-faces", "5-cube", "5-cross"])
def test_the_marked_search_solves_one_lp_per_orbit(monkeypatch, name):
    # the identity-only search solves every candidate; the marked search
    # solves one of each orbit of them under the whole vertex group, and
    # gives the same result.  Without the bound the search runs to the end,
    # where a subset marked non-distinguishable skips candidates that the
    # identity-only search still solves: there the marked search solves no
    # orbit twice and at most one LP per orbit of the identity-only search's
    for bound in (True, False):
        with monkeypatch.context() as unbounded:
            if not bound:
                _without_bound(unbounded)
            for space in _spaces(name):
                groupless = replace(space, group=None)
                perms = getattr(space.group, "perms", None)
                if perms is None:
                    perms = vertex_symmetries(vertices_of(space), 1e-9, 10**6)
                marked, marked_lps = _solved_candidates(monkeypatch, space, lp_budget=100_000)
                with monkeypatch.context() as m:
                    m.setattr(discrimination, "_vertex_permutations", _identity_only)
                    every_lp, candidates = _solved_candidates(monkeypatch, groupless,
                                                              lp_budget=100_000)
                orbits = {_lexicographic_orbit_key(perms, cand) for cand in candidates}
                solved = {_lexicographic_orbit_key(perms, cand) for cand in marked_lps}
                assert marked == every_lp, space.name
                if bound:
                    assert len(marked_lps) == len(orbits), space.name
                else:
                    assert len(marked_lps) == len(solved) <= len(orbits), space.name


def _eager_capacity(space: StateSpace, lp_budget: int = 100_000, tol: float = 1e-9
                    ) -> CapacityResult:
    """Reference for capacity on a polytope: the search that finds the vertex
    group before its first candidate and marks each orbit from the first
    one on, with the same pre-LP reject of a candidate that no facet tells
    apart."""
    verts = vertices_of(space)
    nv = verts.shape[0]
    if np.linalg.matrix_rank(verts) == nv:
        return discrimination._simplex_capacity(verts)
    perms = getattr(space.group, "perms", None)
    if perms is None:
        perms = discrimination._vertex_permutations(verts, tol)
    bound, frame = discrimination._search_frame(space.rep, verts, tol)
    masks = None
    if frame is not None:
        masks = geometry.bitmask_rows(discrimination._vanishing(verts, *frame, tol))
    firsts = [discrimination._single_state_witness(space, verts[0])]
    decided = {}
    spent = 0
    stack = list(combinations(range(nv), 2))[::-1]
    while stack:
        cand = stack.pop()
        if any(decided.get(cand[:x] + cand[x + 1:]) is False for x in range(len(cand))):
            continue
        if cand not in decided:
            rejected = masks is not None and discrimination._unseparated(masks, cand)
            if not rejected:
                if spent >= lp_budget:
                    return CapacityResult(None, firsts[-1])
                spent += 1
                w = discrimination._candidate_distinguishable(space, verts[list(cand)], frame, tol)
            images = np.sort(perms[:, cand], axis=1).tolist()
            decided.update(dict.fromkeys([cand, *map(tuple, images)],
                                         not rejected and w is not None))
        if decided[cand]:
            if len(cand) > len(firsts):
                firsts.append(w)
                if len(cand) == bound:
                    return CapacityResult(bound, w)
            stack.extend(cand + (j,) for j in range(nv - 1, cand[-1], -1))
    return CapacityResult(len(firsts), firsts[-1])


def test_a_search_with_no_lp_answering_no_searches_no_group(monkeypatch):
    # ⌊β⌋ = 2 ends the 6-cube's and the 6-cross's search at their first
    # pair, and each NS face ends after 3 LPs, on a pair, a triple and a
    # 4-set: the candidates between them are rejected by their facets with
    # no LP.  No LP answers "no" and no two LPs test one size, so no mark
    # could save an LP, and none of them searches the vertex group, whose
    # 46,080 elements the cubes share.  Without the bound, a face searches
    # it once, just before its second 4-set LP, and the 6-cross just after
    # its first "no"
    events = []
    search = discrimination._vertex_permutations
    test = discrimination._candidate_distinguishable

    def recording_search(*args):
        events.append("group")
        return search(*args)

    def recording_test(space, states, frame, tol):
        w = test(space, states, frame, tol)
        events.append((len(states), w is not None))
        return w

    monkeypatch.setattr(discrimination, "_vertex_permutations", recording_search)
    monkeypatch.setattr(discrimination, "_candidate_distinguishable", recording_test)
    for space, n in [(_hypercube(6), 2), (_cross_polytope(6), 2)]:
        events.clear()
        result = capacity(space)
        assert (result.n, result.exact, events) == (n, True, [(2, True)]), space.name
    for face in _ns_faces():
        events.clear()
        assert capacity(face).n == 4
        assert events == [(2, True), (3, True), (4, True)], face.name
    _without_bound(monkeypatch)
    for face in _ns_faces():
        events.clear()
        assert capacity(face).n == 4
        assert events[:5] == [(2, True), (3, True), (4, True), "group", (4, True)], face.name
        assert (events.count("group"), len(events)) == (1, 9), face.name
    events.clear()
    assert capacity(_cross_polytope(6)).n == 2
    assert events == [(2, True), (3, False), "group", (2, True)]


def _lazy_group_inputs(name: str) -> list[StateSpace]:
    if name == "ns-faces":
        return [face for order_seed in range(3) for face in _ns_faces(order_seed)]
    if name == "ns-polytope":
        sq = square_gbit()
        return [compose(sq, sq, "max").space]
    if name == "corpus":
        spaces = [build_space(load_theory(str(CORPUS / f"{n}.json"))) for n in CORPUS_POLYTOPES]
        return ([replace(space, group=None) for space in spaces]
                + [StateSpace(name=space.name, rep=PolytopeRep(vertices_of(space)))
                   for space in spaces])
    return {"5-cube": [_hypercube(5)], "5-cross": [_cross_polytope(5)],
            "6-cross": [_cross_polytope(6)]}[name]


@pytest.mark.parametrize("name", ["ns-faces", "ns-polytope", "corpus", "5-cube", "5-cross",
                                  "6-cross"])
def test_the_lazy_group_search_matches_the_eager_one(monkeypatch, name):
    # searching the group just before the first LP that a mark could save,
    # and replaying the marks made before it, gives the result, its witness
    # bytes and the LPs of the search that finds the group first, with the
    # ⌊β⌋ bound and without it; the corpus polytopes run without their
    # groups, with and without facets, so that capacity searches the group
    # itself
    for bound in (True, False):
        with monkeypatch.context() as unbounded:
            if not bound:
                _without_bound(unbounded)
            for space in _lazy_group_inputs(name):
                assert space.group is None
                lazy, lazy_lps = _solved_candidates(monkeypatch, space, lp_budget=100_000)
                eager, eager_lps = _solved_candidates(monkeypatch, space, _eager_capacity)
                assert lazy == eager and lazy_lps == eager_lps, (space.name, bound)
                for a, b in [(lazy.witness.states, eager.witness.states),
                             (lazy.witness.measurement.effects, eager.witness.measurement.effects)]:
                    assert a.tobytes() == b.tobytes(), (space.name, bound)


def _assert_the_reject_is_sound(space: StateSpace, sizes, highs_every: int) -> int:
    """Every candidate of the given sizes that ``_unseparated`` rejects in the
    capacity search's frame is refused by the vertex LP, and every
    ``highs_every``-th of them by HiGHS; the reject is monotone and
    invariant under the vertex symmetries.  Returns the number rejected."""
    tol = resolve_tol(None)
    verts = vertices_of(space)
    nv = verts.shape[0]
    _, frame = discrimination._search_frame(space.rep, verts, tol)
    masks = geometry.bitmask_rows(discrimination._vanishing(verts, *frame, tol))
    perms = discrimination._vertex_permutations(verts, tol)
    rejected = [cand for k in sizes for cand in combinations(range(nv), k)
                if discrimination._unseparated(masks, cand)]
    for cand in rejected:
        assert discrimination._polytope_distinguishable(space, verts[list(cand)], tol) is None
        supersets = [tuple(sorted(cand + (j,))) for j in range(nv) if j not in cand]
        images = map(tuple, np.sort(perms[:, cand], axis=1).tolist())
        assert all(discrimination._unseparated(masks, c) for c in [*supersets, *images]), cand
    for cand in rejected[::highs_every]:
        assert not _highs_distinguishable(verts, cand), cand
    kept = [cand for k in sizes for cand in combinations(range(nv), k) if cand not in rejected]
    for cand in kept:  # invariance both ways: no image of a kept set is rejected
        images = map(tuple, np.sort(perms[:, cand], axis=1).tolist())
        assert not any(discrimination._unseparated(masks, c) for c in images), cand
    return len(rejected)


def test_the_reject_is_sound_on_the_no_signalling_faces():
    # every pair, triple and 4-set of each 8-vertex face: a rejected set is
    # not distinguishable, by the vertex LP and by HiGHS, its supersets and
    # its images under the face's 128 symmetries are rejected, and the
    # reject fires on most of the triples and 4-sets
    rejected = [_assert_the_reject_is_sound(face, (2, 3, 4), highs_every=25)
                for face in _ns_faces()]
    assert min(rejected) > 0


@seed(20120321)
@settings(max_examples=15, deadline=None)
@given(
    points=st.sampled_from([CIRCLE, SPHERE]).flatmap(
        lambda pts: st.lists(st.sampled_from(pts), min_size=4, max_size=9, unique=True)),
    map_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_the_reject_is_sound_on_integer_polytopes_and_their_linear_images(points, map_seed):
    verts = np.array([[1.0, *p] for p in points])
    k = verts.shape[1]
    assume(affine_dimension(verts) == k - 1)
    a = np.eye(k)
    a[1:] = np.random.default_rng(map_seed).uniform(-1.0, 1.0, size=(k - 1, k))
    a[1:, 1:] += 1.5 * np.eye(k - 1)
    assume(np.linalg.cond(a) < 20)
    for v in (verts, verts @ a.T):
        _assert_the_reject_is_sound(StateSpace(name="p", rep=PolytopeRep(v)), (2, 3, 4),
                                    highs_every=10)


def test_default_lp_budget_counts_lps_not_candidates(monkeypatch):
    # without the bound ⌊β⌋, 104 LPs decide the no-signalling polytope's
    # candidates; 9 decide the 5-cube's and 3 the 6-cross's, whose 46,080
    # symmetries mark a whole size with one LP, all far below the default
    # budget of 4000 LPs.  The candidates that the facets reject take none.
    # With the bound the first distinguishable 4-set or pair ends each
    # search
    sq = square_gbit()
    spaces = [(compose(sq, sq, "max").space, 4), (_hypercube(5), 2), (_cross_polytope(6), 2)]
    calls = _count_search_tests(monkeypatch)
    for bounded_lps, unbounded_lps in [((3, 1, 1), None), (None, (104, 9, 3))]:
        if unbounded_lps:
            _without_bound(monkeypatch)
        for (space, n), lps in zip(spaces, bounded_lps or unbounded_lps):
            calls.clear()
            result = capacity(space)
            assert (result.n, result.exact, len(calls)) == (n, True, lps)


def test_linearly_independent_vertices_take_no_lp(monkeypatch):
    # a facet of classical(8) is a simplex with 7 vertices: its capacity is 7
    # by theorem, with the dual basis as witness, where the search decides
    # all 120 subsets, with the bound ⌊β⌋ = 7 disabled, and ends with the LP
    # on all of them
    facet = StateSpace(name="facet", rep=PolytopeRep(vertices_of(classical(8))[1:]))
    calls = _count_search_tests(monkeypatch)
    result = capacity(facet)
    assert (result.n, len(calls)) == (7, 0)
    assert verify_witness(facet, result.witness)
    with monkeypatch.context() as m:
        m.setattr(discrimination.np.linalg, "matrix_rank", lambda verts: -1)
        m.setattr(discrimination, "_vertex_permutations", _identity_only)
        _without_bound(m)
        searched = capacity(facet)
    assert len(calls) == 120
    assert (searched.n, searched.exact) == (result.n, result.exact)
    assert verify_witness(facet, searched.witness)


@pytest.mark.parametrize("eps", [1e-4, 1e-6, 3e-8, 1e-8, 1e-9])
def test_a_thin_simplex_gets_a_witness_that_verifies(eps):
    # the triangle (0, 0), (1, 0), (2, eps) is a simplex however thin; the
    # normal equations V Vᵀ square V's condition number, and their witness
    # missed the delta values by up to 3e-2, or the solve raised
    # LinAlgError for eps <= 2e-8, where validate_space refuses the triangle
    thin = StateSpace(name="thin", rep=PolytopeRep(np.array([[1, 0, 0], [1, 1, 0], [1, 2, eps]])))
    if eps >= 3e-8:
        convex.validate_space(thin)
    result = capacity(thin)
    delta = result.witness.measurement.effects @ result.witness.states.T
    assert result.n == 3
    assert np.max(np.abs(delta - np.eye(3))) <= 1e-12
    assert verify_witness(thin, result.witness)


@pytest.mark.parametrize("verts", [
    [[2, 1, 1], [2, 1, -1], [2, -1, 1], [2, -1, -1]],
    [[1.5, 1, 1], [1, 1, -1], [1, -1, 1], [1, -1, -1]],
    [[2, 0, 0], [2, 1, 0], [2, 0, 1]],
    [[1 + 2e-9, 0, 0], [1, 1, 0], [1, 0, 1]],
], ids=["scaled-square", "one-scaled-vertex", "scaled-simplex", "simplex-off-by-2-tol"])
def test_capacity_refuses_a_vertex_off_normalization(verts):
    # a vertex v with u(v) != 1 gave an exact N whose witness fails
    # verification: N = 1 on the scaled square and N = 2 with one vertex
    # scaled, and the simplex shortcut's N = 3; capacity now refuses them
    # with validate_space's error, past tol as validate_space does
    space = StateSpace(name="off", rep=PolytopeRep(np.array(verts, dtype=float)))
    with pytest.raises(ValidationError, match="off: vertex with normalization coordinate != 1"):
        convex.validate_space(space)
    with pytest.raises(ValidationError, match="off: vertex with normalization coordinate != 1"):
        capacity(space)


def test_capacity_takes_a_vertex_within_tol_of_normalization():
    verts = np.array([[1 + 5e-10, 0, 0], [1, 1, 0], [1, 0, 1]])
    assert capacity(StateSpace(name="near", rep=PolytopeRep(verts))).n == 3


def test_capacity_is_multiplicative_on_a_thin_triangle_times_a_bit():
    thin = StateSpace(name="thin", rep=PolytopeRep(np.array([[1, 0, 0], [1, 1, 0], [1, 2, 1e-6]])))
    result = capacity_multiplicativity_check(compose(thin, classical(2), "min"))
    assert (result.product_bound, result.ok) == (6, True)


def test_capacity_vertex_budget(monkeypatch):
    # past the vertex budget the search solves no LP and returns a result,
    # not exact, with a single vertex as its witness
    calls = _count_search_tests(monkeypatch)
    space = _polygon(discrimination.DEFAULT_VERTEX_BUDGET + 1)
    result = capacity(space)
    assert result.n is None and result.lower_bound == 1
    assert np.array_equal(result.witness.states, vertices_of(space)[:1])
    assert verify_witness(space, result.witness)
    assert calls == []


def test_capacity_lp_budget_gives_lower_bound(monkeypatch):
    # ⌊β⌋ = 2, from the square's facets or from a DD of its bare vertices,
    # ends the search at the first distinguishable pair, within a budget of
    # 1 LP; without the bound the next candidate, a triple, finds the budget
    # spent, and that pair is the lower bound; a budget of 0 LPs leaves one
    # vertex
    sq = square_gbit()
    bare = StateSpace(name="square", rep=PolytopeRep(vertices_of(sq)))
    for space in (sq, bare):
        result = capacity(space, lp_budget=1)
        assert (result.n, result.exact) == (2, True) and verify_witness(sq, result.witness)
    _without_bound(monkeypatch)
    for budget, lower_bound in [(1, 2), (0, 1)]:
        result = capacity(bare, lp_budget=budget)
        assert not result.exact
        assert result.lower_bound == lower_bound and verify_witness(sq, result.witness)


@pytest.mark.parametrize("lp_budget", [-1, True, False, 2.0, 1.5, "3", None])
def test_capacity_rejects_a_budget_that_is_not_a_nonnegative_integer(lp_budget):
    # a negative budget ended the search at once with N None, as if a budget
    # had run out, and a bool or a float passed as a count of LPs; each is
    # refused on entry, on every kind of space, and through the composite
    # check that passes the budget on
    for space in (square_gbit(), gbit_ball(2), quantum(2), classical(3)):
        with pytest.raises(DomainError, match="lp_budget"):
            capacity(space, lp_budget=lp_budget)
    pair = compose(square_gbit(), classical(2), "min")
    for full_search in (True, False):
        with pytest.raises(DomainError, match="lp_budget"):
            capacity_multiplicativity_check(pair, full_search=full_search, lp_budget=lp_budget)


def test_capacity_takes_any_nonnegative_integer_budget():
    # a budget of 0 LPs is a budget like any other, and numpy integers count
    assert capacity(square_gbit(), lp_budget=0).lower_bound == 1
    assert capacity(square_gbit(), lp_budget=np.int64(1)) == capacity(square_gbit())
    pair = compose(square_gbit(), classical(2), "min")
    assert capacity_multiplicativity_check(pair, full_search=True, lp_budget=np.int64(0)).ok


def test_uniform_decomposition_size_equals_capacity():
    # a distinguishable pure set averaging to the maximally mixed state has
    # size equal to the capacity
    cases = [
        (classical(3), vertices_of(classical(3))),
        (gbit_ball(3), np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0]])),
        (square_gbit(), np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])),
    ]
    for space, states in cases:
        witness = distinguishable(space, states)
        assert witness is not None
        mu = maximally_mixed(space)
        assert np.max(np.abs(states.mean(axis=0) - mu)) <= 1e-9
        assert states.shape[0] == capacity(space).n


def test_decomposition_raises_when_the_capacity_search_runs_out(monkeypatch):
    # the 5-cube with the identity as its only symmetry and its bound
    # ⌊β⌋ = 2 disabled: all 496 pairs are distinguishable, and 500 LPs run
    # out among its 4960 triples
    _without_bound(monkeypatch)
    cube = _hypercube(5)
    space = replace(cube, group=FiniteMatrixGroup(np.eye(6)[None], perms=[range(32)]))
    monkeypatch.setattr(symmetry, "capacity", partial(capacity, lp_budget=500))
    assert symmetry.capacity(space).lower_bound == 2
    with pytest.raises(BudgetExceededError, match="capacity search exhausted"):
        maximally_mixed_decomposition(space)


def test_fit_capacity_exponent():
    assert fit_capacity_exponent([(2, 4), (3, 9)]) == 2
    assert fit_capacity_exponent([(2, 2), (3, 3), (4, 4)]) == 1
    assert fit_capacity_exponent([(2, 4), (3, 8)]) is None
    assert fit_capacity_exponent([(1, 1)]) is None  # exponent not unique
    assert fit_capacity_exponent([(2, 1)]) is None  # needs r >= 1
    with pytest.raises(DomainError):
        fit_capacity_exponent([])
    with pytest.raises(DomainError):
        fit_capacity_exponent([(0, 1)])


@pytest.mark.parametrize("pair", [(2, 4.9), (2.7, 4), (2.0, 4), (True, 1), (2, np.True_), ("2", 4)])
def test_fit_capacity_exponent_rejects_a_value_that_is_not_an_integer(pair):
    # capacities and dimensions are counts; int() truncated (2, 4.9) and
    # (2.7, 4) to (2, 4), and both fitted r = 2
    with pytest.raises(DomainError):
        fit_capacity_exponent([pair])


def test_fit_capacity_exponent_takes_numpy_integers():
    assert fit_capacity_exponent([(np.int64(2), np.int32(4)), (np.uint8(3), 9)]) == 2


def test_admissible_bit_dimensions():
    assert admissible_bit_dimensions(5) == [1, 3, 7, 15, 31]
    assert admissible_bit_dimensions(1) == [1]
    assert admissible_bit_dimensions(3) == [1, 3, 7]
    with pytest.raises(DomainError):
        admissible_bit_dimensions(0)
