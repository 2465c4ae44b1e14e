"""Distinguishability, capacity, and the K = N^r structure."""

from itertools import combinations

import numpy as np
import pytest

from gptlab import discrimination
from gptlab.composites import compose
from gptlab.errors import BudgetExceededError, DomainError
from gptlab.convex import Measurement, PolytopeRep, StateSpace, vertices_of
from gptlab.discrimination import (
    DistinguishabilityWitness,
    admissible_bit_dimensions,
    capacity,
    complete_measurement,
    distinguishable,
    fit_capacity_exponent,
    verify_witness,
)
from gptlab.lp import LinearProgram, lp_feasible
from gptlab.models import classical, gbit_ball, quantum, square_gbit
from gptlab.symmetry import maximally_mixed, maximally_mixed_decomposition
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
        objective=np.zeros(4),
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


def _pentagon() -> StateSpace:
    angles = 2 * np.pi * np.arange(5) / 5
    corners = np.column_stack([np.ones(5), np.cos(angles), np.sin(angles)])
    return StateSpace(name="5-gon", rep=PolytopeRep(corners))


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


@pytest.mark.parametrize(
    "space", [square_gbit(), _pentagon(), _ns_face(), classical(4)],
    ids=["square", "5-gon", "ns-face", "simplex4"],
)
def test_capacity_pairs_are_the_distinguishable_vertex_pairs(space):
    verts = vertices_of(space)
    expected = {
        (i, j) for i, j in combinations(range(verts.shape[0]), 2)
        if distinguishable(space, verts[[i, j]]) is not None
    }
    assert capacity(space).pairs == expected


def test_capacity_pairs_unknown_for_continuous_spaces():
    assert capacity(gbit_ball(3)).pairs is None
    assert capacity(quantum(2)).pairs is None


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


def test_capacity_vertex_budget():
    space = square_gbit()
    with pytest.raises(BudgetExceededError):
        capacity(space, vertex_budget=2)


def test_capacity_lp_budget_gives_lower_bound():
    result = capacity(square_gbit(), lp_budget=2)
    assert result.indeterminate
    assert result.lower_bound >= 1
    assert result.pairs is None  # the budget ran out among the 6 pairs


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


def test_admissible_bit_dimensions():
    assert admissible_bit_dimensions(5) == [1, 3, 7, 15, 31]
    assert admissible_bit_dimensions(1) == [1]
    assert admissible_bit_dimensions(3) == [1, 3, 7]
    with pytest.raises(DomainError):
        admissible_bit_dimensions(0)
