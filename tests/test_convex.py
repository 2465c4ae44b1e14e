"""Core types and operations: evaluation, mixing, membership, effect duality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptlab.errors import (
    DimensionMismatchError,
    DomainError,
    UnsupportedRepresentationError,
    ValidationError,
)
from gptlab.convex import (
    Measurement,
    PolytopeRep,
    StateSpace,
    cone_contains,
    contains_effect,
    contains_state,
    evaluate,
    extremal_effects,
    mix,
    sample_state,
    unit_effect_vector,
    validate_space,
    vertices_of,
)
from gptlab.models import bloch_map, classical, gbit_ball, quantum, square_gbit
from gptlab import quantum as qc


def test_unit_effect_on_any_normalized_state(rng):
    for space in (classical(3), gbit_ball(3), square_gbit(), quantum(2)):
        for _ in range(5):
            omega = sample_state(space, rng)
            assert evaluate(space.unit_effect, omega) == pytest.approx(1.0, abs=1e-12)


def test_ball_bit_pole_effect():
    # E_1(omega) = (1 + <omega_hat, n>)/2 evaluates to 1 on the north pole
    d = 3
    north = np.array([1.0, 1.0, 0.0, 0.0])
    e1 = np.array([0.5, 0.5, 0.0, 0.0])
    assert evaluate(e1, north) == pytest.approx(1.0, abs=1e-15)
    south = np.array([1.0, -1.0, 0.0, 0.0])
    assert evaluate(e1, south) == pytest.approx(0.0, abs=1e-15)


def test_classical_bit_fiducial_readout():
    heads = np.array([0.0, 1.0])
    assert evaluate(heads, np.array([1.0, 0.3])) == pytest.approx(0.3, abs=1e-15)


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        evaluate(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))


def test_mix_identity():
    omega = np.array([1.0, 0.25, 0.5])
    assert np.array_equal(mix([omega], [1.0]), omega)


def test_mix_poles_to_center():
    north = np.array([1.0, 1.0, 0.0, 0.0])
    south = np.array([1.0, -1.0, 0.0, 0.0])
    center = mix([north, south], [0.5, 0.5])
    assert np.allclose(center, [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_mix_simplex_vertices_uniform():
    space = classical(3)
    out = mix(vertices_of(space), np.full(3, 1.0 / 3.0))
    assert np.allclose(out, [1.0, 1.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_mix_rejects_bad_weights():
    omega = np.array([1.0, 0.0])
    with pytest.raises(DomainError):
        mix([omega, omega], [0.7, 0.7])
    with pytest.raises(DomainError):
        mix([omega, omega], [1.5, -0.5])


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_evaluate_exactly_affine(p, seed):
    r = np.random.default_rng(seed)
    k = int(r.integers(2, 8))
    effect = r.normal(size=k)
    a, b = r.normal(size=k), r.normal(size=k)
    a[0] = b[0] = 1.0
    mixed = p * a + (1.0 - p) * b
    lhs = evaluate(effect, mixed)
    rhs = p * evaluate(effect, a) + (1.0 - p) * evaluate(effect, b)
    assert abs(lhs - rhs) <= 1e-12


def test_contains_state_ball_boundary_and_outside():
    ball = gbit_ball(3)
    assert contains_state(ball, np.array([1.0, 0.0, 0.0, 1.0]))
    assert not contains_state(ball, np.array([1.0, 0.0, 0.0, 1.2]))


def test_contains_state_quantum_negative_eigenvalue():
    q2 = quantum(2)
    rho = np.diag([1.1, -0.1]).astype(complex)
    coords = qc.state_coords(rho, 2)
    assert not contains_state(q2, coords)
    assert contains_state(q2, qc.state_coords(np.diag([0.7, 0.3]).astype(complex), 2))


def test_contains_state_polytope_and_simplex(rng):
    square = square_gbit()
    assert contains_state(square, np.array([1.0, 0.5, 0.25]))
    assert not contains_state(square, np.array([1.0, 1.5, 0.25]))
    tri = classical(3)
    assert contains_state(tri, np.array([1.0, 0.2, 0.3]))
    assert not contains_state(tri, np.array([1.0, 0.8, 0.9]))  # sums beyond 1


def test_contains_state_polytope_rejects_unnormalized_cone_points():
    # both vectors are nonnegative combinations of the square's vertices, but
    # neither has normalization coordinate 1
    square = square_gbit()
    assert not contains_state(square, np.array([2.0, 0.0, 0.0]))
    assert not contains_state(square, np.array([0.5, 0.25, 0.25]))
    assert contains_state(square, np.array([1.0, 0.25, 0.25]))


def test_cone_of_no_rows_holds_only_zero():
    no_rows = np.zeros((0, 3))
    assert not cone_contains(no_rows, np.array([1.0, 0.0, 0.0]), 1e-9)
    assert cone_contains(no_rows, np.zeros(3), 1e-9)
    assert cone_contains(no_rows, np.array([1e-12, 0.0, -1e-12]), 1e-9)


def test_contains_effect_examples():
    for space in (classical(3), gbit_ball(3), square_gbit(), quantum(2)):
        unit = space.unit_effect
        assert contains_effect(space, unit)
        assert not contains_effect(space, 2.0 * unit)
    x_effect = np.array([0.0, 1.0, 0.0])
    assert contains_effect(square_gbit(), x_effect)


def test_extremal_effects_continuous_unsupported():
    with pytest.raises(UnsupportedRepresentationError):
        extremal_effects(gbit_ball(3))
    with pytest.raises(UnsupportedRepresentationError):
        extremal_effects(quantum(2))


def test_extremal_effects_contain_zero_and_unit():
    for space in (classical(2), classical(3), square_gbit()):
        effects = extremal_effects(space)
        rows = {tuple(np.round(f, 9)) for f in effects}
        assert tuple(np.zeros(space.ambient_dim)) in rows
        assert tuple(unit_effect_vector(space.ambient_dim)) in rows


def test_duality_round_trip_square(rng):
    # membership iff nonnegative on every extremal effect and normalized
    space = square_gbit()
    effects = extremal_effects(space)
    for _ in range(200):
        v = np.concatenate([[1.0], rng.uniform(-0.3, 1.3, size=2)])
        member = contains_state(space, v)
        dual_ok = bool(np.all(effects @ v >= -1e-9))
        assert member == dual_ok


def test_quantum2_membership_matches_ball3_under_bloch(rng):
    ball = gbit_ball(3)
    q2 = quantum(2)
    agree = 0
    for _ in range(1000):
        v = np.concatenate([[1.0], rng.uniform(-1.4, 1.4, size=3)])
        if contains_state(ball, v) == contains_state(q2, bloch_map(v)):
            agree += 1
    assert agree == 1000


def test_measurement_must_sum_to_unit():
    with pytest.raises(ValidationError):
        Measurement(np.array([[0.5, 0.0], [0.4, 0.0]]))
    m = Measurement(np.array([[0.5, 0.2], [0.5, -0.2]]))
    assert m.n_outcomes == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_measurement_and_mix_reject_non_finite_numbers(bad):
    # a NaN sum slips past a `> tol` comparison
    with pytest.raises(ValidationError):
        Measurement(np.full((2, 3), bad))
    with pytest.raises(ValidationError):
        Measurement(np.array([[0.5, bad], [0.5, -bad]]))
    omega = np.array([1.0, 0.0])
    with pytest.raises(DomainError):
        mix([omega, omega], [bad, bad])
    with pytest.raises(DomainError):
        mix([omega, omega], [bad, 0.0])


def test_polytope_vertex_validation():
    # a non-extreme point in the claimed vertex list must be rejected
    bad = StateSpace(
        name="bad",
        rep=PolytopeRep(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 0.5]])),
    )
    with pytest.raises(ValidationError):
        validate_space(bad)
    with pytest.raises(ValidationError):
        validate_space(
            StateSpace(name="unnorm", rep=PolytopeRep(np.array([[2.0, 0.0], [1.0, 1.0]])))
        )


def test_vertex_canonicalization_is_deterministic():
    # same vertex set in different order, with a duplicate: identical result
    a = PolytopeRep(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
    b = PolytopeRep(np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]]))
    assert np.array_equal(a.vertices, b.vertices)
    # near-duplicates within tolerance collapse to a single vertex
    c = PolytopeRep(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1e-13]]))
    assert c.vertices.shape == (1, 3)
