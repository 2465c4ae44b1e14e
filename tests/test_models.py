"""Built-in theory constructors and the Bloch correspondence."""

import numpy as np
import pytest

from gptlab.errors import DomainError
from gptlab.convex import contains_state, validate_space, vertices_of
from gptlab.composites import compose, no_signalling_check, reduced_state
from gptlab.discrimination import capacity, fit_capacity_exponent
from gptlab.models import (
    bell_state,
    bloch2_isometry_check,
    bloch2_matrix,
    bloch_map,
    classical,
    gbit_ball,
    pr_box_state,
    psi_u,
    qubit_measurement,
    quantum,
    square_gbit,
    square_measurements,
)
from gptlab import quantum as qc


@pytest.mark.parametrize(
    "space,k,n",
    [
        (classical(2), 2, 2),
        (classical(5), 5, 5),
        (gbit_ball(2), 3, 2),
        (gbit_ball(3), 4, 2),
        (square_gbit(), 3, 2),
        (quantum(2), 4, 2),
        (quantum(3), 9, 3),
    ],
    ids=["bit", "classical5", "disk", "ball3", "square", "qubit", "qutrit"],
)
def test_dimension_and_capacity_anchors(space, k, n):
    assert space.ambient_dim == k
    assert capacity(space).n == n


def test_constructor_parameter_validation():
    with pytest.raises(DomainError):
        classical(0)
    with pytest.raises(DomainError):
        gbit_ball(0)
    with pytest.raises(DomainError):
        quantum(5)  # desk-scale cap


def test_constructed_spaces_pass_validation():
    for space in (classical(4), gbit_ball(5), square_gbit(), quantum(3)):
        validate_space(space)


def test_capacity_exponent_families():
    quantum_pairs = [(n, quantum(n).ambient_dim) for n in (2, 3, 4)]
    assert fit_capacity_exponent(quantum_pairs) == 2
    classical_pairs = [(n, classical(n).ambient_dim) for n in (2, 3, 4, 5, 6)]
    assert fit_capacity_exponent(classical_pairs) == 1


def test_bloch_map_anchors():
    center = bloch_map(np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(qc.state_matrix(center, 2), np.eye(2) / 2, atol=1e-15)
    north = bloch_map(np.array([1.0, 0.0, 0.0, 1.0]))
    assert np.allclose(qc.state_matrix(north, 2), np.diag([1.0, 0.0]), atol=1e-15)
    x_plus = bloch_map(np.array([1.0, 1.0, 0.0, 0.0]))
    assert np.allclose(
        qc.state_matrix(x_plus, 2), (np.eye(2) + qc.SIGMA_X) / 2, atol=1e-15
    )


def test_bloch_map_is_linear_bijection(rng):
    mat = np.column_stack([bloch_map(e) for e in np.eye(4)])
    assert abs(np.linalg.det(mat)) > 1e-6
    for _ in range(20):
        v = rng.normal(size=4)
        assert np.allclose(bloch_map(v), mat @ v, atol=1e-12)


def test_bloch_membership_correspondence(rng):
    ball, q2 = gbit_ball(3), quantum(2)
    for _ in range(1000):
        v = np.concatenate([[1.0], rng.uniform(-1.3, 1.3, size=3)])
        assert contains_state(ball, v) == contains_state(q2, bloch_map(v))


def test_pure_ball_states_map_to_projectors(rng):
    for _ in range(50):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        rho = qc.state_matrix(bloch_map(np.concatenate([[1.0], direction])), 2)
        assert np.allclose(rho @ rho, rho, atol=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_bloch2_isometry_center():
    x = np.kron(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 0]))
    lhs = np.trace(bloch2_matrix(x) @ bloch2_matrix(x)).real
    assert lhs == pytest.approx(0.25, abs=1e-15)
    assert 0.25 * x @ x == pytest.approx(0.25, abs=1e-15)
    assert bloch2_isometry_check(x, x)


def test_bloch2_isometry_random_draws(rng):
    for _ in range(1000):
        x, y = rng.normal(size=16), rng.normal(size=16)
        assert bloch2_isometry_check(x, y)


def test_bloch2_isometry_orthogonal_basis_pairs():
    eye = np.eye(16)
    for i in (0, 3, 7, 11):
        for j in (1, 2, 5, 15):
            if i == j:
                continue
            lhs = np.trace(bloch2_matrix(eye[i]) @ bloch2_matrix(eye[j])).real
            assert lhs == pytest.approx(0.0, abs=1e-15)
            assert bloch2_isometry_check(eye[i], eye[j])


def test_psi_zero_is_pure_product():
    q2 = quantum(2)
    comp = compose(q2, q2, "min")
    omega = psi_u(0.0)
    rho = qc.composite_state_matrix(omega, 2, 2)
    assert np.allclose(rho, np.diag([1.0, 0, 0, 0]), atol=1e-12)
    red = reduced_state(comp, omega, "A")
    red_rho = qc.state_matrix(red, 2)
    assert np.allclose(red_rho @ red_rho, red_rho, atol=1e-12)  # pure marginal


def test_bell_schmidt_coefficients():
    omega = psi_u(np.pi / 2.0)
    rho = qc.composite_state_matrix(omega, 2, 2)
    eigvals, eigvecs = np.linalg.eigh(rho)
    assert eigvals[-1] == pytest.approx(1.0, abs=1e-12)  # pure in the composite
    amplitude = eigvecs[:, -1].reshape(2, 2)
    schmidt = np.linalg.svd(amplitude, compute_uv=False)
    assert np.allclose(schmidt, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)


def test_psi_u_purity_gap(rng):
    q2 = quantum(2)
    comp = compose(q2, q2, "min")
    for u in (0.3, 0.9, 1.8, 2.8):
        omega = psi_u(u)
        rho = qc.composite_state_matrix(omega, 2, 2)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
        red = qc.state_matrix(reduced_state(comp, omega, "A"), 2)
        assert np.trace(red @ red).real < 1.0 - 1e-6  # mixed marginal


def test_psi_u_domain():
    with pytest.raises(DomainError):
        psi_u(np.pi)
    with pytest.raises(DomainError):
        psi_u(-0.1)


def test_pr_box_is_extremal_no_signalling_state():
    sq = square_gbit()
    comp = compose(sq, sq, "max")
    pr = pr_box_state()
    assert contains_state(comp.space, pr)
    mx, my = square_measurements()
    assert no_signalling_check(comp, pr, [mx, my])
    # it is one of the 24 vertices
    rows = {tuple(np.round(v, 9)) for v in vertices_of(comp.space)}
    assert tuple(np.round(pr, 9)) in rows


def test_bell_state_matches_psi_half_pi():
    assert np.array_equal(bell_state(), psi_u(np.pi / 2.0))


@pytest.mark.parametrize("direction", [[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]])
def test_qubit_measurement_needs_a_finite_nonzero_direction(direction):
    with pytest.raises(DomainError):
        qubit_measurement(direction)


def test_qubit_measurement_normalizes_its_direction():
    m = qubit_measurement([0.0, 0.0, 2.0])
    assert np.allclose(qc.effect_matrix(m.effects[0], 2), np.diag([1.0, 0.0]), atol=1e-12)
