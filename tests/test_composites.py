"""Tensor composition, marginals, conditioning, no-signalling and CHSH."""

import hashlib
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import gptlab.composites
import gptlab.lp.engine
from gptlab.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    UnsupportedRepresentationError,
    ZeroProbabilityConditioningError,
)
from gptlab.config import resolve_tol
from gptlab.convex import (
    BallRep,
    PolytopeRep,
    QuantumRep,
    StateSpace,
    cone_contains,
    contains_state,
    extremal_effects,
    sample_state,
    two_outcome,
    vertices_of,
)
from gptlab.composites import (
    MAX_COMPOSITE_VERTICES,
    Composite,
    capacity_multiplicativity_check,
    chsh_value,
    compose,
    conditional_state,
    local_tomography_check,
    max_tensor_contains,
    maximally_mixed_composite,
    no_signalling_check,
    product_effect,
    product_state,
    reduced_state,
    sample_composite_state,
)
from gptlab.discrimination import verify_witness
from gptlab.geometry import affine_dimension, dual_cone_rays
from gptlab.models import (
    bell_state,
    classical,
    gbit_ball,
    pr_box_state,
    qubit_measurement,
    quantum,
    square_gbit,
    square_measurements,
    tsirelson_settings,
)
from gptlab.runner import build_space, load_theory
from gptlab.symmetry import maximally_mixed
from gptlab import quantum as qc


@pytest.fixture(scope="module")
def square_pair():
    sq = square_gbit()
    return compose(sq, sq, "max")


def test_product_unit_effect_on_products(rng):
    a, b = classical(2), gbit_ball(3)
    omega = product_state(sample_state(a, rng), sample_state(b, rng))
    unit = product_effect(a.unit_effect, b.unit_effect)
    assert unit @ omega == pytest.approx(1.0, abs=1e-12)


def test_product_effect_factorizes():
    # E1 (x) E1 on north (x) north = 1; X (x) Y on vertex(1,.) (x) vertex(.,0) = 0
    e1 = np.array([0.5, 0.5, 0.0, 0.0])
    north = np.array([1.0, 1.0, 0.0, 0.0])
    assert product_effect(e1, e1) @ product_state(north, north) == pytest.approx(1.0, abs=1e-15)
    x_eff = np.array([0.0, 1.0, 0.0])
    y_eff = np.array([0.0, 0.0, 1.0])
    va = np.array([1.0, 1.0, 0.0])  # X = 1
    vb = np.array([1.0, 1.0, 0.0])  # Y = 0
    assert product_effect(x_eff, y_eff) @ product_state(va, vb) == pytest.approx(0.0, abs=1e-15)


def test_max_tensor_square_square(square_pair):
    comp = square_pair
    verts = vertices_of(comp.space)
    assert verts.shape == (24, 9)
    assert affine_dimension(verts) == 8
    # 16 deterministic vertices (binary entries) + 8 PR-type vertices
    binary = sum(1 for v in verts if np.all(np.isin(np.round(v, 9), (0.0, 1.0))))
    assert binary == 16


def _polytope(name: str, vertices) -> StateSpace:
    return StateSpace(name=name, rep=PolytopeRep(np.array(vertices, dtype=float)))


CUBE = _polytope("cube", [[1, *signs] for signs in product((-1, 1), repeat=3)])
OCTAHEDRON = _polytope("octahedron",
                       np.column_stack([np.ones(6), np.vstack([np.eye(3), -np.eye(3)])]))


@pytest.mark.parametrize(
    "part_a, part_b, count, digest",
    [
        (square_gbit(), square_gbit(), 24,
         "c4c8abc052af702a55a8b7aec29a226a158335a3db8bc8edd0d3b80fd68550ba"),
        (square_gbit(), CUBE, 128,
         "1a02045f330ae89308f663fb58e0af600270f0d57a8b835ba267e1fead1c8a14"),
        (classical(3), square_gbit(), 12,
         "3abcc976bb25bcafd8d59b0c760a9da67d33879a06267626d3a66b3e9272e610"),
        (square_gbit(), OCTAHEDRON, 48,
         "cac159359afc6b3fa6f22ea64ffdd123515aa4def79146baec449d38e9dd5d7f"),
    ],
    ids=["square-square", "square-cube", "classical3-square", "square-octahedron"],
)
def test_exact_max_tensor_vertex_bytes_are_pinned(part_a, part_b, count, digest):
    # digests recorded from the Fraction-based exact path; int / int rounds
    # each coordinate correctly, as float(Fraction) does, so the bytes stay
    verts = vertices_of(compose(part_a, part_b, "max").space)
    assert verts.shape[0] == count
    assert hashlib.sha256(np.ascontiguousarray(verts).tobytes()).hexdigest() == digest


def test_exact_max_tensor_of_facets_past_int64():
    # product-facet entries of 1e20 are integral floats past 2**63, where an
    # int64 cast wraps; each row is scaled down by its gcd before the DD
    sq = square_gbit()
    big = StateSpace(name="square", rep=PolytopeRep(vertices_of(sq), facets=sq.rep.facets * 1e10))
    verts = vertices_of(compose(big, big, "max").space)
    assert verts.shape == (24, 9)
    assert verts.tobytes() == vertices_of(compose(sq, sq, "max").space).tobytes()


def _corpus_part(name: str) -> StateSpace:
    return build_space(load_theory(
        str(Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / f"{name}.json")))


@pytest.mark.parametrize(
    "name_a, name_b, count, digest",
    [
        ("5-gon", "5-gon", 135,
         "6286a8a3ea8e90494f261cf64abd972127c46e1a845678c52e205382049c150d"),
        ("square", "6-gon", 144,
         "263fdfad7014a52fb746e6dd700673f696a4808744caaba02e6b9aca75e9ada7"),
        ("3-gon", "5-gon", 15,
         "014cc69d8e3efaee413a34725f897f37221aa2d27ffe8ecc7f4c733267d67bd1"),
        ("6-gon", "6-gon", 552,
         "99905ca5ed7baebe7501e87a3487db7e10af3c6f944f3930866eef860952f7a2"),
    ],
    ids=["5gon-5gon", "square-6gon", "3gon-5gon", "6gon-6gon"],
)
def test_float_max_tensor_vertex_bytes_are_pinned(name_a, name_b, count, digest):
    # digests recorded from the float double description with one Python
    # adjacency scan per ray pair; the row values are per-ray dot products
    verts = vertices_of(compose(_corpus_part(name_a), _corpus_part(name_b), "max").space)
    assert verts.shape[0] == count
    assert hashlib.sha256(np.ascontiguousarray(verts).tobytes()).hexdigest() == digest


def test_a_part_with_facets_gives_compose_its_cone_rays_without_a_dd(monkeypatch):
    # the square and JSON polytopes carry the facets that a DD of their
    # vertices finds, so a max composite of them runs only its own DD, and
    # membership in it none; bare parts run one DD each, to the same bytes
    sq, tri = square_gbit(), _corpus_part("3-gon")
    bare_sq, bare_tri = (StateSpace(name=s.name, rep=PolytopeRep(vertices_of(s))) for s in (sq, tri))
    calls = []
    dd = gptlab.composites.dual_cone_rays

    def counting(*args, **kwargs):
        calls.append(args)
        return dd(*args, **kwargs)

    monkeypatch.setattr(gptlab.composites, "dual_cone_rays", counting)
    faceted = compose(tri, sq, "max")
    assert len(calls) == 1
    assert max_tensor_contains(faceted, vertices_of(faceted.space).mean(axis=0))
    assert len(calls) == 1
    bare = compose(bare_tri, bare_sq, "max")
    assert len(calls) == 4
    assert vertices_of(faceted.space).tobytes() == vertices_of(bare.space).tobytes()
    assert faceted.space.rep.facets.tobytes() == bare.space.rep.facets.tobytes()


@pytest.mark.parametrize("name", ["square", "5-gon"], ids=["exact", "float"])
def test_a_part_and_an_equal_copy_share_one_part_dd(monkeypatch, name):
    # parts with equal vertices have one effect cone: a copy built apart, its
    # vertices in another order, costs no second part DD, and the composite
    # keeps the bytes of the part composed with itself
    verts = vertices_of(_corpus_part(name))
    part = StateSpace(name=name, rep=PolytopeRep(verts))
    copy = StateSpace(name=name, rep=PolytopeRep(verts[::-1].copy()))
    part_dds = []
    dd = gptlab.composites.dual_cone_rays

    def counting(generators, *args, **kwargs):
        if np.shape(generators)[1] == verts.shape[1]:
            part_dds.append(generators)
        return dd(generators, *args, **kwargs)

    monkeypatch.setattr(gptlab.composites, "dual_cone_rays", counting)
    shared = compose(part, copy, "max").space.rep
    assert len(part_dds) == 1
    itself = compose(part, part, "max").space.rep
    assert len(part_dds) == 2
    assert shared.vertices.tobytes() == itself.vertices.tobytes()
    assert shared.facets.tobytes() == itself.facets.tobytes()


@pytest.mark.parametrize("verts", [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 1.5], [1.0, 0.25]]],
                         ids=["exact", "float"])
def test_an_unnormalizable_max_tensor_ray_is_refused_on_both_paths(verts):
    # vertices with a zero normalization coordinate give rays with x_0 = 0,
    # which neither path can scale to x_0 = 1
    part = StateSpace(name="x", rep=PolytopeRep(np.array(verts)))
    with pytest.raises(UnsupportedRepresentationError, match="unnormalizable ray"):
        compose(part, part, "max")


@pytest.mark.parametrize(
    "make_a, make_b",
    [
        (lambda: classical(2), lambda: classical(2)),
        (lambda: classical(3), square_gbit),
        (square_gbit, square_gbit),
        (lambda: _corpus_part("square"), lambda: _corpus_part("5-gon")),
        (lambda: _corpus_part("5-gon"), lambda: _corpus_part("5-gon")),
        (lambda: _corpus_part("3-gon"), lambda: _corpus_part("5-gon")),
        (lambda: _corpus_part("square"), lambda: _corpus_part("6-gon")),
        (lambda: _corpus_part("6-gon"), lambda: _corpus_part("6-gon")),
    ],
    ids=["bit-bit", "trit-square", "square-square", "square-5gon", "5gon-5gon", "3gon-5gon",
         "square-6gon", "6gon-6gon"],
)
def test_max_composite_facets_describe_the_vertex_hull(make_a, make_b):
    # contains_state trusts the facets over the vertices, so each row must be
    # valid on every vertex and tight on K - 1 independent ones (a facet)
    rep = compose(make_a(), make_b(), "max").space.rep
    tol = resolve_tol(None)
    values = rep.facets @ rep.vertices.T
    assert values.min() >= -tol
    k = rep.vertices.shape[1]
    for row in values:
        assert np.linalg.matrix_rank(rep.vertices[np.abs(row) <= tol]) == k - 1


def test_max_tensor_over_budget_stops_before_the_enumeration_ends():
    # the octagon square has 8656 vertices; a count below that shows the
    # enumeration stopped before its last row
    octagon = _corpus_part("8-gon")
    start = time.process_time()
    with pytest.raises(BudgetExceededError) as info:
        compose(octagon, octagon, "max")
    elapsed = time.process_time() - start
    reported = int(str(info.value).split("at least ")[1].split()[0])
    assert MAX_COMPOSITE_VERTICES < reported < 8656
    assert elapsed < 20.0


def test_min_tensor_classical_bit_with_three_level():
    comp = compose(classical(2), classical(3), "min")
    assert comp.ambient_dim == 6
    verts = vertices_of(comp.space)
    assert verts.shape == (6, 6)
    assert affine_dimension(verts) == 5
    assert local_tomography_check(comp)


def test_min_tensor_of_classicals_probes_like_classical_product():
    from gptlab.symmetry import equivalence_probe

    comp = compose(classical(2), classical(3), "min")
    probe = equivalence_probe(comp.space, classical(6))
    assert probe.consistent


def test_min_tensor_equals_max_tensor_for_simplices():
    lo = compose(classical(2), classical(2), "min")
    hi = compose(classical(2), classical(2), "max")
    a = {tuple(np.round(v, 9)) for v in vertices_of(lo.space)}
    b = {tuple(np.round(v, 9)) for v in vertices_of(hi.space)}
    assert a == b


def test_min_tensor_contained_in_max_tensor(square_pair):
    sq = square_gbit()
    lo = compose(sq, sq, "min")
    for v in vertices_of(lo.space):
        assert contains_state(square_pair.space, v)


def test_every_product_state_is_contained(square_pair, rng):
    sq = square_gbit()
    for _ in range(25):
        omega = product_state(sample_state(sq, rng), sample_state(sq, rng))
        assert contains_state(square_pair.space, omega)


def test_reduced_state_of_product_is_factor(rng):
    a, b = square_gbit(), classical(3)
    comp = compose(a, b, "min")
    sa, sb = sample_state(a, rng), sample_state(b, rng)
    omega = product_state(sa, sb)
    assert np.allclose(reduced_state(comp, omega, "A"), sa, atol=1e-12)
    assert np.allclose(reduced_state(comp, omega, "B"), sb, atol=1e-12)


def test_reduced_state_of_pr_box_is_center(square_pair):
    pr = pr_box_state()
    assert np.allclose(reduced_state(square_pair, pr, "A"), [1.0, 0.5, 0.5], atol=1e-12)
    assert np.allclose(reduced_state(square_pair, pr, "B"), [1.0, 0.5, 0.5], atol=1e-12)
    # cross-check: uniform outcome marginals 1/2 per fiducial measurement
    mx, my = square_measurements()
    for m in (mx, my):
        lam = product_effect(np.array([1.0, 0, 0]), m.effects[0]) @ pr
        assert lam == pytest.approx(0.5, abs=1e-12)


def test_marginals_and_conditionals_reject_an_unknown_side(square_pair):
    pr = pr_box_state()
    mx, _ = square_measurements()
    with pytest.raises(ValueError):
        reduced_state(square_pair, pr, "C")
    with pytest.raises(ValueError):
        conditional_state(square_pair, pr, mx.effects[0], side="C")


def test_reduced_bell_state_is_maximally_mixed():
    q2 = quantum(2)
    comp = compose(q2, q2, "min")
    red = reduced_state(comp, bell_state(), "A")
    # oracle: partial trace of the 4x4 density matrix
    rho = qc.composite_state_matrix(bell_state(), 2, 2)
    oracle = qc.state_coords(qc.partial_trace(rho, 2, 2, "A"), 2)
    assert np.allclose(red, oracle, atol=1e-12)
    assert np.allclose(qc.state_matrix(red, 2), np.eye(2) / 2, atol=1e-12)


def test_conditional_state_of_product_is_independent(rng):
    a, b = square_gbit(), square_gbit()
    comp = compose(a, b, "min")
    sa, sb = sample_state(a, rng), sample_state(b, rng)
    omega = product_state(sa, sb)
    mx, _ = square_measurements()
    cond = conditional_state(comp, omega, mx.effects[0], side="B")
    assert np.allclose(cond, sa, atol=1e-11)


def test_conditional_pr_box_collapses_to_vertex(square_pair):
    pr = pr_box_state()
    mx, _ = square_measurements()
    # outcome 0 of the X measurement on B leaves the (0,0) vertex on A
    cond = conditional_state(square_pair, pr, mx.effects[1], side="B")
    assert np.allclose(cond, [1.0, 0.0, 0.0], atol=1e-12)
    # outcome 1 leaves the (1,1) vertex: perfect correlation
    cond = conditional_state(square_pair, pr, mx.effects[0], side="B")
    assert np.allclose(cond, [1.0, 1.0, 1.0], atol=1e-12)


def test_conditional_bell_state_on_projector():
    q2 = quantum(2)
    comp = compose(q2, q2, "min")
    proj = qc.effect_coords(np.diag([1.0, 0.0]).astype(complex), 2)
    cond = conditional_state(comp, bell_state(), proj, side="B")
    # oracle: conditional density matrix (P rho P / Tr) partial-traced
    rho = qc.composite_state_matrix(bell_state(), 2, 2)
    pb = np.kron(np.eye(2), np.diag([1.0, 0.0]))
    sub = pb @ rho @ pb
    sub = sub / np.trace(sub).real
    oracle = qc.state_coords(qc.partial_trace(sub, 2, 2, "A"), 2)
    assert np.allclose(cond, oracle, atol=1e-12)
    assert np.allclose(qc.state_matrix(cond, 2), np.diag([1.0, 0.0]), atol=1e-12)


def test_conditional_on_side_a(square_pair):
    # conditioning on an A effect leaves a B state; PR correlations are symmetric
    pr = pr_box_state()
    mx, _ = square_measurements()
    cond = conditional_state(square_pair, pr, mx.effects[0], side="A")
    assert np.allclose(cond, [1.0, 1.0, 1.0], atol=1e-12)


def test_max_tensor_membership_quantum_parts(rng):
    q2 = quantum(2)
    comp = compose(q2, q2, "max")
    assert comp.space is None
    for _ in range(5):
        from gptlab.convex import sample_state

        omega = product_state(sample_state(q2, rng), sample_state(q2, rng))
        assert max_tensor_contains(comp, omega)
    # the maximally entangled state is inside the max tensor of two qubits
    assert max_tensor_contains(comp, bell_state())
    # an overstretched entangled vector violates some product effect
    mu = product_state(
        np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 0])
    )
    stretched = mu + 3.0 * (bell_state() - mu)
    assert not max_tensor_contains(comp, stretched)


def test_conditional_zero_probability_raises(square_pair):
    pr = pr_box_state()
    zero_effect = np.zeros(3)
    with pytest.raises(ZeroProbabilityConditioningError):
        conditional_state(square_pair, pr, zero_effect, side="B")


def test_no_signalling_for_composite_states(square_pair, rng):
    mx, my = square_measurements()
    for _ in range(50):
        omega = sample_composite_state(square_pair, rng)
        assert no_signalling_check(square_pair, omega, [mx, my])
    assert no_signalling_check(square_pair, pr_box_state(), [mx, my])


def test_no_signalling_detects_tampering(square_pair):
    mx, my = square_measurements()
    tampered = pr_box_state()
    # a huge joint coordinate: the per-measurement reconstructions of the
    # A-marginal no longer cancel, exposing the tampering
    tampered[4] += 1e16
    assert not no_signalling_check(square_pair, tampered, [mx, my])


def test_chsh_pr_box_is_four(square_pair):
    mx, my = square_measurements()
    assert chsh_value(square_pair, pr_box_state(), (mx, my), (mx, my)) == pytest.approx(4.0, abs=1e-12)


def test_chsh_deterministic_maximum_is_two(square_pair):
    # brute force over all 16 deterministic product strategies
    mx, my = square_measurements()
    sq = square_gbit()
    verts = vertices_of(sq)
    best = 0.0
    for va, vb in product(verts, verts):
        value = chsh_value(square_pair, product_state(va, vb), (mx, my), (mx, my))
        best = max(best, value)
    assert best == pytest.approx(2.0, abs=1e-12)


def test_chsh_bell_tsirelson():
    q2 = quantum(2)
    comp = compose(q2, q2, "min")
    (a0, a1), (b0, b1) = tsirelson_settings()
    value = chsh_value(comp, bell_state(), (a0, a1), (b0, b1))
    # oracle: direct quantum expectation values on the 4x4 density matrix
    rho = qc.composite_state_matrix(bell_state(), 2, 2)
    sx, sz = qc.SIGMA_X, qc.SIGMA_Z
    s = 1 / np.sqrt(2)
    ops = [
        (sz, (sz + sx) * s), (sz, (sz - sx) * s),
        (sx, (sz + sx) * s), (sx, (sz - sx) * s),
    ]
    corr = [np.trace(np.kron(p, q) @ rho).real for p, q in ops]
    oracle = abs(corr[0] + corr[1] + corr[2] - corr[3])
    assert value == pytest.approx(oracle, abs=1e-12)
    assert value == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)




def _chsh_oracle(omega, a_measurements, b_measurements) -> float:
    """Per-term CHSH: one Kronecker product effect per pair of outcomes."""

    def correlator(ma, mb) -> float:
        total = 0.0
        for i, ea in enumerate(ma.effects):
            for j, eb in enumerate(mb.effects):
                sign = 1.0 if i == j else -1.0
                total += sign * float(np.kron(ea, eb) @ omega)
        return total

    (a0, a1), (b0, b1) = a_measurements, b_measurements
    return abs(correlator(a0, b0) + correlator(a0, b1) + correlator(a1, b0) - correlator(a1, b1))


def _random_settings(space, rng):
    """Two random two-outcome measurements whose first effect is an effect of ``space``."""
    if isinstance(space.rep, QuantumRep):
        return tuple(qubit_measurement(rng.normal(size=3)) for _ in range(2))
    if isinstance(space.rep, BallRep):
        directions = rng.normal(size=(2, space.rep.d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        return tuple(two_outcome(np.concatenate([[0.5], 0.5 * n])) for n in directions)
    effects = extremal_effects(space)
    return tuple(two_outcome(rng.dirichlet(np.ones(len(effects))) @ effects) for _ in range(2))


def _chsh_cases():
    sq, ball, q2 = square_gbit(), gbit_ball(3), quantum(2)
    return [compose(sq, sq, "max"), compose(sq, ball, "min"), compose(q2, q2, "min")]


@seed(20240607)
@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_chsh_stacked_call_matches_rows_and_per_term_oracle(draw):
    rng = np.random.default_rng(draw)
    for comp in _chsh_cases():
        a_settings = _random_settings(comp.part_a, rng)
        b_settings = _random_settings(comp.part_b, rng)
        if comp.space is not None:
            verts = vertices_of(comp.space)
            stack = rng.dirichlet(np.ones(len(verts)), size=5) @ verts
        elif isinstance(comp.part_a.rep, QuantumRep):
            stack = np.array([qc.composite_state_coords(qc.random_density(4, rng), 2, 2)
                              for _ in range(5)])
        else:
            stack = np.array([sample_composite_state(comp, rng) for _ in range(5)])
        values = chsh_value(comp, stack, a_settings, b_settings)
        assert values.shape == (5,)
        for omega, value in zip(stack, values):
            row = chsh_value(comp, omega, a_settings, b_settings)
            assert isinstance(row, float)
            assert abs(row - value) <= 1e-12
            assert abs(value - _chsh_oracle(omega, a_settings, b_settings)) <= 1e-12


def test_chsh_stack_reaches_pr_box_and_tsirelson(square_pair):
    mx, my = square_measurements()
    values = chsh_value(square_pair, vertices_of(square_pair.space), (mx, my), (mx, my))
    assert values.max() == pytest.approx(4.0, abs=1e-12)
    assert chsh_value(square_pair, pr_box_state()[None], (mx, my), (mx, my))[0] == 4.0
    q2 = quantum(2)
    comp = compose(q2, q2, "min")
    a_settings, b_settings = tsirelson_settings()
    product = product_state(np.eye(4)[0], np.eye(4)[0])
    values = chsh_value(comp, np.vstack([product, bell_state()]), a_settings, b_settings)
    assert values[1] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
    assert values[0] <= 2.0 + 1e-12


def test_product_maps_broadcast_over_leading_axes(rng):
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(5, 2))
    stacked = product_state(a[:, None], b[None])
    assert stacked.shape == (4, 5, 6)
    for i, j in product(range(4), range(5)):
        assert np.array_equal(stacked[i, j], np.kron(a[i], b[j]))
        assert np.array_equal(product_effect(a[i], b[j]), np.kron(a[i], b[j]))

def test_chsh_rejects_settings_given_for_the_wrong_side():
    # K_A * K_B = 12 either way round, so only the setting lengths tell the
    # sides apart: the square's readouts act on A, the ball's on B
    sq, ball = square_gbit(), gbit_ball(3)
    comp = compose(sq, ball, "min")
    square_settings = square_measurements()
    ball_settings = tuple(two_outcome(0.5 * np.eye(4)[0] + 0.5 * np.eye(4)[k]) for k in (1, 2))
    omega = product_state(np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.0, 0.0]))
    assert chsh_value(comp, omega, square_settings, ball_settings) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        chsh_value(comp, omega, ball_settings, square_settings)
    with pytest.raises(DimensionMismatchError):
        chsh_value(comp, omega, square_settings, square_settings)

def test_local_tomography_sampled_for_quantum_min_tensor():
    q2 = quantum(2)
    comp = compose(q2, q2, "min")
    assert comp.space is None
    assert comp.ambient_dim == 16
    assert local_tomography_check(comp)


def _sampled_local_tomography(c: Composite, rng: np.random.Generator, tol: float = 1e-9) -> bool:
    """Oracle: the affine span of sampled product states, which
    local_tomography_check computed for composites without a vertex list
    before it read the parts' own spans."""
    draws = [(sample_state(c.part_a, rng), sample_state(c.part_b, rng))
             for _ in range(2 * c.ambient_dim + 8)]
    samples = product_state(*map(np.array, zip(*draws)))
    return affine_dimension(samples, tol=max(tol, 1e-7)) == c.ambient_dim - 1


@pytest.mark.parametrize("pair", [
    (quantum(2), quantum(2)),
    (gbit_ball(3), square_gbit()),
    (gbit_ball(2), gbit_ball(3)),
    (classical(3), quantum(2)),
], ids=lambda p: f"{p[0].name}-{p[1].name}")
def test_local_tomography_from_the_parts_spans_matches_sampling(pair, rng):
    comp = compose(*pair, "min")
    assert comp.space is None
    assert _sampled_local_tomography(comp, rng)
    assert local_tomography_check(comp)


def test_local_tomography_fails_when_a_part_does_not_span_its_space(rng):
    # an unvalidated triangle in K = 4: its states span a plane, not the space
    flat = StateSpace(name="flat", rep=PolytopeRep(np.array([
        [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]])))
    comp = Composite(gbit_ball(2), flat, "min", None)
    assert not _sampled_local_tomography(comp, rng)
    assert not local_tomography_check(comp)


def test_local_tomography_draws_no_states(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("local tomography sampled a state")

    monkeypatch.setattr(gptlab.composites, "sample_state", no_sampling)
    q2 = quantum(2)
    assert local_tomography_check(compose(q2, q2, "min"))
    assert local_tomography_check(compose(gbit_ball(3), square_gbit(), "min"))


def test_maximally_mixed_composite_multiplicative(rng):
    parts = [classical(2), classical(3), square_gbit(), gbit_ball(3), quantum(2)]
    for a in parts:
        for b in parts:
            for rule in ("min", "max"):
                comp = compose(a, b, rule)
                mu = maximally_mixed_composite(comp)
                expected = product_state(maximally_mixed(a), maximally_mixed(b))
                assert np.max(np.abs(mu - expected)) <= 1e-9, (a.name, b.name, rule)


def test_orbit_average_of_pr_vertex_is_product_mixed(square_pair):
    # the composite group average is an honest computation on a non-product vertex
    mu = maximally_mixed_composite(square_pair)
    sq_mu = np.array([1.0, 0.5, 0.5])
    assert np.allclose(mu, product_state(sq_mu, sq_mu), atol=1e-12)


def test_capacity_multiplicativity():
    comp = compose(classical(2), classical(2), "min")
    result = capacity_multiplicativity_check(comp, full_search=True)
    assert result.ok
    assert result.product_bound == 4
    assert result.composite_capacity == 4

    comp = compose(quantum(2), quantum(2), "min")
    result = capacity_multiplicativity_check(comp)
    assert result.ok and result.product_bound == 4


def test_capacity_multiplicativity_max_square(square_pair):
    result = capacity_multiplicativity_check(square_pair)
    assert result.ok
    assert result.product_bound == 4
    # a budget below the 3 LPs the search needs to reach the composite's
    # bound ⌊β⌋ = 4 leaves the full capacity unconfirmed, not failed; the
    # candidates that no facet tells apart take no LP and no budget
    limited = capacity_multiplicativity_check(square_pair, full_search=True, lp_budget=2)
    assert limited.ok and not limited.capacity_exact
    confirmed = capacity_multiplicativity_check(square_pair, full_search=True, lp_budget=3)
    assert confirmed.ok and confirmed.composite_capacity == 4


def test_a_full_search_past_the_vertex_budget_keeps_the_product_bound():
    # max(5-gon, 5-gon) has 135 vertices, more than the capacity search
    # takes: the composite capacity stays unknown and the product witness
    # alone decides ok
    pentagon = _corpus_part("5-gon")
    comp = compose(pentagon, pentagon, "max")
    assert vertices_of(comp.space).shape[0] == 135
    result = capacity_multiplicativity_check(comp, full_search=True)
    assert (result.composite_capacity, result.capacity_exact) == (None, False)
    assert result.ok and result.product_bound == 4
    assert verify_witness(comp.space, result.witness)


@pytest.mark.parametrize("parts, duals, count", [
    (("square", "square"), ("square", "square"), 24),
    (("5-gon", "5-gon"), ("5-gon", "5-gon"), 135),
    (("6-gon", "6-gon"), ("6-gon", "6-gon"), 552),
    (("square", "5-gon"), ("square", "5-gon"), 60),
    (("cube", "cube"), ("octahedron", "octahedron"), 684),
    (("octahedron", "octahedron"), ("cube", "cube"), 1408),
], ids=["square2", "5-gon2", "6-gon2", "square-5-gon", "cube2", "octahedron2"])
def test_min_composite_facets_count_the_vertices_of_the_dual_max_composite(parts, duals, count):
    # cone duality: the facets of min(A, B) are the extreme rays of
    # {E : E(a ⊗ b) ≥ 0}, one DD of its product vertices, and the max tensor
    # of the dual cones A*, B* has as many vertices.  Regular polygons and
    # the square are self-dual, the cube and the octahedron each other's
    # dual.  This checks the float DD of the min side against compose's
    # max side
    a, b = map(_corpus_part, parts)
    facets = dual_cone_rays(vertices_of(compose(a, b, "min").space),
                            max_rays=MAX_COMPOSITE_VERTICES)
    dual_a, dual_b = map(_corpus_part, duals)
    assert facets.shape[0] == vertices_of(compose(dual_a, dual_b, "max").space).shape[0] == count


def test_no_signalling_polytope_capacity_is_multiplicative(square_pair):
    # full subset search over the 24 vertices confirms capacity 2*2
    result = capacity_multiplicativity_check(square_pair, full_search=True, lp_budget=100_000)
    assert result.ok
    assert result.capacity_exact
    assert result.composite_capacity == 4


def test_conditional_states_stay_in_local_space(square_pair, rng):
    # conditional states of max-tensor states lie in the local state space
    sq = square_gbit()
    effects = extremal_effects(sq)
    for _ in range(100):
        omega = sample_composite_state(square_pair, rng)
        for effect in effects:
            lam = product_effect(np.array([1.0, 0.0, 0.0]), effect) @ omega
            if lam <= 1e-9:
                continue
            cond = conditional_state(square_pair, omega, effect, side="B")
            assert contains_state(sq, cond, tol=1e-7)


def test_marginal_decomposition_identity(square_pair, rng):
    # omega_A = lam * cond(E) + (1 - lam) * cond(1 - E)
    sq = square_gbit()
    mx, _ = square_measurements()
    effect = mx.effects[0]
    complement = mx.effects[1]
    for _ in range(100):
        omega = sample_composite_state(square_pair, rng)
        marg = reduced_state(square_pair, omega, "A")
        lam = product_effect(np.array([1.0, 0.0, 0.0]), effect) @ omega
        if lam <= 1e-9 or lam >= 1 - 1e-9:
            continue
        c1 = conditional_state(square_pair, omega, effect, side="B")
        c2 = conditional_state(square_pair, omega, complement, side="B")
        recombined = lam * c1 + (1.0 - lam) * c2
        assert np.max(np.abs(recombined - marg)) <= 1e-9


def test_max_tensor_membership_for_continuous_parts(rng):
    ball = gbit_ball(3)
    comp = compose(ball, ball, "max")
    assert comp.space is None
    for _ in range(10):
        omega = product_state(sample_state(ball, rng), sample_state(ball, rng))
        assert max_tensor_contains(comp, omega)
    # a vector scaled beyond the state set must be rejected
    bad = product_state(np.array([1.0, 1.4, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0]))
    assert not max_tensor_contains(comp, bad)
    # Its product-effect minimum stays near -0.8 under a 1e-10 nudge, yet the
    # plain S-lemma form max_mu lambda_min(M J M^T - mu J) is -4.3e-10 here
    # (-8.9e-18 at exact rank one): the quadratic form only certifies L u -L.
    nudge = np.concatenate([[0.0], np.random.default_rng(0).normal(size=15)])
    assert not max_tensor_contains(comp, bad + 1e-10 * nudge)


def test_max_tensor_contains_enumerates_each_polytope_part_once(monkeypatch, rng):
    # a bare square part is enumerated once per query; the built square
    # carries its facets and is enumerated never
    ball = gbit_ball(3)
    bare = StateSpace(name="square", rep=PolytopeRep(vertices_of(square_gbit())))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return dual_cone_rays(*args, **kwargs)

    monkeypatch.setattr(gptlab.composites, "dual_cone_rays", counting)
    for square, dds in [(bare, 1), (square_gbit(), 0)]:
        comp = compose(ball, square, "max")
        assert comp.space is None
        for _ in range(5):
            omega = product_state(sample_state(ball, rng), sample_state(square, rng))
            calls.clear()
            assert max_tensor_contains(comp, omega)
            assert len(calls) == dds
        # the A-marginal of this product vector lies outside the ball
        stretched = product_state(np.array([1.0, 1.4, 0.0, 0.0]), vertices_of(square)[0])
        calls.clear()
        assert not max_tensor_contains(comp, stretched)
        assert len(calls) == dds


PENTAGON = build_space(load_theory(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "5-gon.json")))
# max(5-gon, ball(2)) vector, -0.031 on a product effect; alternating
# minimization from random starts accepted it at several seeds
OUTSIDE_PENTAGON_BALL = np.array([
    1.0, 0.05855166957319989, -0.9037393631529792, -0.3890067915658269,
    0.10005637437940032, 0.35960313297518864, 0.1562176063987351,
    -0.06830277276795499, -0.25935288663721356,
])


def test_max_tensor_contains_rejects_a_vector_below_a_product_effect():
    comp = compose(PENTAGON, gbit_ball(2), "max")
    M = OUTSIDE_PENTAGON_BALL.reshape(3, 3)
    # the witness: a facet effect f of the pentagon, and the ball effect
    # that is least on the contraction f·M
    values = []
    for f in dual_cone_rays(vertices_of(PENTAGON)):
        w = f @ M
        g = np.concatenate([[1.0], -w[1:] / np.linalg.norm(w[1:])])
        values.append(product_effect(f, g) @ OUTSIDE_PENTAGON_BALL)
    assert min(values) < -0.01
    assert not max_tensor_contains(comp, OUTSIDE_PENTAGON_BALL)


# max(ball(3), ball(3)) vector Omega = diag(1, -S R^T), S = diag(1.0001, 0.999,
# 0.998), R a rotation: -1e-4 on a product effect.  Alternating minimization
# from the 8 default-seeded starts stopped above zero: the worst product
# effect lies far from every start and 60 steps at ratio (0.999/1.0001)^2
# did not reach it.
OUTSIDE_BALL_PAIR = np.array([
    1.0, 0.0, 0.0, 0.0, 0.0, -0.331087, 0.680178, 0.654171,
    0.0, 0.942668, 0.238369, 0.229255, 0.0, 0.0, 0.691807, -0.71931,
])


def test_max_tensor_contains_rejects_a_ball_pair_vector_below_a_slow_minimum():
    comp = compose(gbit_ball(3), gbit_ball(3), "max")
    w = np.array([1.0, 1.0, 0.0, 0.0]) @ OUTSIDE_BALL_PAIR.reshape(4, 4)
    assert w[0] - np.linalg.norm(w[1:]) < -9e-5
    assert not max_tensor_contains(comp, OUTSIDE_BALL_PAIR)


def _least_ball_effect(w: np.ndarray) -> np.ndarray:
    """Least normalized ball effect on each row of ``w``: w_0 - |w_hat|."""
    return w[..., 0] - np.linalg.norm(w[..., 1:], axis=-1)


def _least_qubit_effect(w: np.ndarray) -> np.ndarray:
    """Least qubit effect on each row of ``w``: the least eigenvalue."""
    mats = np.einsum("nk,kij->nij", w, qc.reconstruction_basis(2))
    return np.linalg.eigvalsh(mats)[:, 0]


def _units(rng, count: int, n: int) -> np.ndarray:
    v = rng.normal(size=(count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.mark.parametrize(
    "part_b, least_b",
    [(gbit_ball(2), _least_ball_effect), (quantum(2), _least_qubit_effect)],
    ids=["ball2-ball2", "ball2-qubit"],
)
def test_max_tensor_contains_matches_a_grid_oracle(part_b, least_b):
    # oracle: 4001 ball(2) effects f on A, the least B effect on f·Omega exactly
    comp = compose(gbit_ball(2), part_b, "max")
    angles = np.linspace(0.0, 2.0 * np.pi, 4001)
    grid = np.stack([np.ones_like(angles), np.cos(angles), np.sin(angles)], axis=1)
    k_b = part_b.ambient_dim
    unit_b = 1.0 if k_b == 3 else 1.0 / np.sqrt(2.0)  # length of a pure Bloch part
    center = np.zeros((3, k_b))
    center[0, 0] = 1.0
    rng = np.random.default_rng(15)
    answers = []
    while len(answers) < 150:
        # three pure products, mixed, then stretched away from the center
        a = np.column_stack([np.ones(3), _units(rng, 3, 2)])
        b = np.column_stack([np.ones(3), unit_b * _units(rng, 3, k_b - 1)])
        M = center + rng.uniform(0.5, 2.0) * ((a.T * rng.dirichlet(np.ones(3))) @ b - center)
        least = float(np.min(least_b(grid @ M)))
        if abs(least) > 1e-3:
            answers.append((max_tensor_contains(comp, M.ravel()), least >= 0))
    assert all(fast == oracle for fast, oracle in answers)
    assert 30 < sum(oracle for _, oracle in answers) < 120


def _boost(rapidity: float, k: int) -> np.ndarray:
    """Lorentz boost along coordinate 1: it maps the Lorentz cone onto itself."""
    out = np.eye(k)
    out[0, 0] = out[1, 1] = np.cosh(rapidity)
    out[0, 1] = out[1, 0] = np.sinh(rapidity)
    return out


@pytest.mark.parametrize("part_b", [gbit_ball(2), quantum(2)], ids=lambda s: s.name)
def test_max_tensor_contains_is_sharp_at_the_boundary(part_b):
    # diag(1, -s, -s/2) has least product effect 1 - s; local boosts keep the
    # max tensor's boundary and move the best mu off any coarse grid point
    comp = compose(gbit_ball(2), part_b, "max")
    k_b = part_b.ambient_dim
    to_coords = np.concatenate([[1.0], np.full(k_b - 1, 1.0 if k_b == 3 else 1 / np.sqrt(2.0))])
    for s, inside in ((1 - 1e-6, True), (1 + 1e-6, False)):
        core = np.zeros((3, k_b))
        core[0, 0], core[1, 1], core[2, 2] = 1.0, -s, -0.5 * s
        M = _boost(0.7, 3) @ core @ _boost(-0.4, k_b).T
        assert max_tensor_contains(comp, (M / M[0, 0] * to_coords).ravel()) == inside


def test_max_tensor_contains_keeps_tol_on_the_product_effect_scale():
    # Omega = [[1, d/2], [1, -d/2]] on ball(1)^2: the effect (1, -1) on both
    # sides gives -d, yet Omega^T nearly annihilates it, so the S-lemma value
    # is only about -d^2/2 (-8e-10 at d = 4e-5)
    balls = compose(gbit_ball(1), gbit_ball(1), "max")
    bits = compose(classical(2), classical(2), "max")
    to_bits = np.kron(*[np.linalg.inv(np.array([[1.0, 0.0], [-1.0, 2.0]]))] * 2)
    for omega in (np.array([1.0, 2e-5, 1.0, -2e-5]), np.array([1.0, 5e-7, 1.0, -5e-7])):
        assert product_effect(np.array([1.0, -1.0]), np.array([1.0, -1.0])) @ omega < -9e-7
        assert not max_tensor_contains(balls, omega)
        assert not contains_state(bits.space, to_bits @ omega)
    # the same matrix in ball(2)^2, which takes the Lorentz-cone path (ball(1)
    # has two extreme effects and takes the exact finite one)
    disks = compose(gbit_ball(2), gbit_ball(2), "max")
    for d, inside in ((0.0, True), (0.5, True), (0.99, True), (1.01, False), (2.0, False),
                      (10.0, False), (1e3, False), (4e4, False)):
        omega = np.array([1.0, d * 5e-10, 1.0, -d * 5e-10])
        assert max_tensor_contains(balls, omega) == inside
        assert max_tensor_contains(disks, np.pad(omega.reshape(2, 2), (0, 1)).ravel()) == inside


def _rotation(rng, k: int) -> np.ndarray:
    """Random orthogonal map of coordinates 1..k-1: it maps the Lorentz cone onto itself."""
    out = np.eye(k)
    out[1:, 1:] = np.linalg.qr(rng.normal(size=(k - 1, k - 1)))[0]
    return out


@pytest.mark.parametrize("part, unit", [(gbit_ball(3), 1.0), (quantum(2), 0.25)],
                         ids=["ball3", "qubit"])
def test_max_tensor_contains_is_sharp_on_rotated_rank_deficient_vectors(part, unit):
    # rows [1, d/2, 0, 0], [1, -d/2, 0, 0] and two zero rows: Omega^T kills the
    # effect (1, -1, 0, 0) up to d and a plane of A directions outright.  The
    # least product effect is -d * unit (a qubit projector has weight 1/2).
    comp = compose(part, part, "max")
    to_coords = np.array([1.0] + [1.0 if unit == 1.0 else np.sqrt(0.5)] * 3)
    rng = np.random.default_rng(17)
    for d in (0.99, 1.01, 1.5, 4.0, 100.0):
        for _ in range(20):
            core = np.zeros((4, 4))
            core[0, :2] = core[1, :2] = 1.0
            core[0, 1], core[1, 1] = d * 5e-10 / unit, -d * 5e-10 / unit
            L = _rotation(rng, 4) @ core @ _rotation(rng, 4).T
            omega = (to_coords[:, None] * L * to_coords).ravel()
            assert max_tensor_contains(comp, omega) == (d < 1)


@pytest.mark.parametrize("part, unit", [(gbit_ball(2), 1.0), (gbit_ball(3), 1.0), (quantum(2), 0.25)],
                         ids=["ball2", "ball3", "qubit"])
def test_max_tensor_contains_is_sharp_at_a_doubly_annihilated_corner(part, unit):
    # (1 - b) h h^T + b h' h'^T with h = (1, 1, 0, ...), h' = (1, -1, 0, ...):
    # the least product effect is 4b * unit, and Omega^T and Omega both nearly
    # annihilate h', so neither side's S-lemma value sees it
    k = part.ambient_dim
    comp = compose(part, part, "max")
    to_coords = np.array([1.0] + [1.0 if unit == 1.0 else np.sqrt(0.5)] * (k - 1))
    h, h_bar = np.eye(k)[0] + np.eye(k)[1], np.eye(k)[0] - np.eye(k)[1]
    for r, inside in ((0.5, True), (0.99, True), (1.01, False), (1.2, False), (10.0, False)):
        b = -r * 1e-9 / (4.0 * unit)
        L = (1.0 - b) * np.outer(h, h) + b * np.outer(h_bar, h_bar)
        assert max_tensor_contains(comp, (to_coords[:, None] * L * to_coords).ravel()) == inside


def _refined_least(M: np.ndarray, least_b) -> float:
    """Least product effect with a ball(2) A-part: golden-section search on
    the angle of the A effect beside each of the 8 best of 4001 grid angles."""
    def values(t):
        return least_b(np.stack([np.ones_like(t), np.cos(t), np.sin(t)], axis=-1) @ M)

    grid = np.linspace(0.0, 2.0 * np.pi, 4001)
    best = grid[np.argsort(values(grid))[:8]]
    lo, hi = best - grid[1], best + grid[1]
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(70):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        left = values(a) < values(b)
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
    return float(np.min(values(np.concatenate([best, (lo + hi) / 2]))))


@pytest.mark.parametrize("part_b", [gbit_ball(2), gbit_ball(3)], ids=lambda s: s.name)
def test_max_tensor_contains_sees_a_nearly_annihilated_effect_from_the_other_side(part_b):
    # Omega^T maps (1, -1, 0) to a boundary vector of size s and (0, 0, 1) to
    # one of size kappa: the worst A effect tilts off (1, -1, 0), where the
    # A-side S-lemma value is far below rounding; the B side sees it
    comp = compose(gbit_ball(2), part_b, "max")
    k_b = part_b.ambient_dim
    tol = 1e-9
    rng = np.random.default_rng(19)
    to_a = np.linalg.inv(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]))
    answers = []
    while len(answers) < 60:
        s, kappa = 10.0 ** rng.uniform(-8.0, -4.0), 10.0 ** rng.uniform(-6.0, -2.0)
        e = _units(rng, 1, k_b - 1)[0]
        images = np.stack([np.concatenate([[1.0], 0.5 * _units(rng, 1, k_b - 1)[0]]),
                           np.concatenate([[s / 2], e * s / 2]), kappa * rng.normal(size=k_b)])
        M = to_a @ images  # rows: the A coordinates; f @ M is the image of f
        M /= M[0, 0]
        M[0, 0] += -tol * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, -0.5)) \
            - _refined_least(M, _least_ball_effect)
        M /= M[0, 0]
        least = _refined_least(M, _least_ball_effect)
        if abs(least + tol) > 1e-3 * tol:
            answers.append((max_tensor_contains(comp, M.ravel()), least >= -tol))
    assert all(fast == oracle for fast, oracle in answers)
    assert 15 < sum(oracle for _, oracle in answers) < 45


@pytest.mark.parametrize(
    "part_b, least_b",
    [(gbit_ball(2), _least_ball_effect), (quantum(2), _least_qubit_effect)],
    ids=["ball2-ball2", "ball2-qubit"],
)
def test_max_tensor_contains_matches_a_refined_oracle_near_the_boundary(part_b, least_b):
    # random matrices shifted so that their least product effect lands within
    # 1e-6 of zero, most within a few tol: adding t to Omega_00 adds t * g_0
    # to every product effect, g_0 = 1 for ball effects and 1/2 for projectors
    comp = compose(gbit_ball(2), part_b, "max")
    k_b = part_b.ambient_dim
    g_0 = 1.0 if k_b == 3 else 0.5
    tol = 1e-9
    rng = np.random.default_rng(18)
    answers = []
    while len(answers) < 120:
        M = rng.normal(size=(3, k_b))
        M[0, 0] = abs(M[0, 0]) + 2.0
        target = -tol * 10.0 ** rng.uniform(-1.0, 1.0) if rng.random() < 0.7 else \
            rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -6.0)
        M[0, 0] += (target - _refined_least(M, least_b)) / g_0
        M /= M[0, 0]
        least = _refined_least(M, least_b)
        if abs(least + tol) > 1e-2 * tol:
            answers.append((max_tensor_contains(comp, M.ravel()), least >= -tol, least))
    assert all(fast == oracle for fast, oracle, _ in answers)
    assert 30 < sum(oracle for _, oracle, _ in answers) < 90
    assert max(abs(least) for *_, least in answers) < 1e-6


def test_max_tensor_contains_on_ball1_pairs_matches_the_classical_polytope():
    # ball(1) is classical(2) under p -> 2p - 1: (1, x) = T (1, p)
    bits = compose(classical(2), classical(2), "max")
    balls = compose(gbit_ball(1), gbit_ball(1), "max")
    T = np.array([[1.0, 0.0], [-1.0, 2.0]])
    rng = np.random.default_rng(16)
    answers = [
        (max_tensor_contains(balls, np.kron(T, T) @ omega), max_tensor_contains(bits, omega),
         contains_state(bits.space, omega),
         cone_contains(vertices_of(bits.space), omega, resolve_tol(None)))
        for omega in _near_boundary_points(bits.space, 200, rng)
    ]
    assert all(len(set(row)) == 1 for row in answers)
    assert 20 < sum(row[0] for row in answers) < 180


def test_polytope_membership_near_a_facet_answers_without_raising():
    # ω = (1, d, 1, -d) on ball(1)², taken to max(classical(2), classical(2))
    # by p = (1 + x) / 2, is -d/2 on a product facet.  The composite carries
    # its product-effect facets, so contains_state applies -tol to that value
    # exactly as max_tensor_contains does: d up to 2 tol is contained.  The
    # cone LP on the same vertices must answer too: Phase 1 tolerates more
    # infeasibility than lp_solve's residual check, and from d = 2e-8 the LP
    # point misses by more than 10 tol, so the point is not contained.
    bits = compose(classical(2), classical(2), "max")
    verts = vertices_of(bits.space)
    T = np.array([[1.0, 0.0], [0.5, 0.5]])
    tol = resolve_tol(None)
    for d in sorted([*np.geomspace(1e-9, 1e-7, 60), 2e-8, 3e-8, 5e-8]):
        omega = np.kron(T, T) @ np.array([1.0, d, 1.0, -d])
        inside = contains_state(bits.space, omega)
        assert inside == max_tensor_contains(bits, omega), d
        if abs(d / 2 - tol) > 0.01 * tol:
            assert inside == (d / 2 < tol), d
        if d >= 2e-8:
            assert not cone_contains(verts, omega, tol), d


@pytest.mark.parametrize("pair", [(gbit_ball(2), gbit_ball(2)), (gbit_ball(2), quantum(2)),
                                  (square_gbit(), gbit_ball(2))], ids=lambda p: ",".join(s.name for s in p))
def test_max_tensor_contains_rejects_non_finite_vectors(pair):
    comp = compose(*pair, "max")
    omega = product_state(maximally_mixed(pair[0]), maximally_mixed(pair[1]))
    assert max_tensor_contains(comp, omega)
    for bad in (np.nan, np.inf):
        assert not max_tensor_contains(comp, np.where(np.arange(omega.size) == 4, bad, omega))


@pytest.mark.parametrize("pair", [(quantum(3), gbit_ball(2)), (gbit_ball(2), quantum(3)),
                                  (quantum(3), quantum(2))], ids=lambda p: ",".join(s.name for s in p))
def test_max_tensor_contains_needs_a_polytope_partner_for_larger_quantum_parts(pair):
    comp = compose(*pair, "max")
    omega = product_state(maximally_mixed(pair[0]), maximally_mixed(pair[1]))
    with pytest.raises(UnsupportedRepresentationError):
        max_tensor_contains(comp, omega)


def test_max_tensor_contains_takes_ball1_and_quantum1_as_polyhedral_partners():
    # their cones have two and one extreme rays, so quantum(3) needs no Lorentz test
    qutrit = quantum(3)
    pure = qc.state_coords(np.diag([1.0, 0.0, 0.0]), 3)
    mixed = maximally_mixed(qutrit)
    for part in (gbit_ball(1), quantum(1)):
        comp = compose(qutrit, part, "max")
        assert max_tensor_contains(comp, product_state(pure, maximally_mixed(part)))
        stretched = mixed + 1.015 * (pure - mixed)  # least eigenvalue 1/3 - 1.015/3 = -0.005
        assert not max_tensor_contains(comp, product_state(stretched, maximally_mixed(part)))


def _near_boundary_points(space: StateSpace, count: int, rng) -> np.ndarray:
    """States and non-states: normalized points in random directions from the
    vertex mean, at distances up to the farthest vertex."""
    verts = vertices_of(space)
    center = verts.mean(axis=0)
    reach = np.linalg.norm(verts - center, axis=1).max()
    directions = rng.normal(size=(count, verts.shape[1]))
    directions[:, 0] = 0.0
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return center + rng.uniform(0.0, reach, size=(count, 1)) * directions


@pytest.mark.parametrize(
    "part_a, part_b",
    [(square_gbit(), square_gbit()), (square_gbit(), PENTAGON),
     (classical(3), square_gbit())],
    ids=["square-square", "square-5gon", "classical3-square"],
)
def test_max_tensor_contains_matches_the_composite_polytope(part_a, part_b):
    # the vertex hull, by LP, and the facets agree away from the band within
    # 10 tol of a facet, which test_facet_membership_matches_the_lp_and_highs_near_a_facet covers
    comp = compose(part_a, part_b, "max")
    rng = np.random.default_rng(7)
    answers = [
        (max_tensor_contains(comp, omega), contains_state(comp.space, omega),
         cone_contains(vertices_of(comp.space), omega, resolve_tol(None)))
        for omega in _near_boundary_points(comp.space, 100, rng)
    ]
    assert all(len(set(row)) == 1 for row in answers)
    assert 10 < sum(row[0] for row in answers) < 90


@pytest.mark.parametrize(
    "part_a, part_b",
    [(square_gbit(), square_gbit()), (square_gbit(), PENTAGON),
     (classical(3), square_gbit()), (classical(2), classical(2))],
    ids=["square-square", "square-5gon", "classical3-square", "bit-bit"],
)
def test_a_max_tensor_carries_its_product_effect_facets(monkeypatch, part_a, part_b):
    comp = compose(part_a, part_b, "max")
    rays_a, rays_b = (dual_cone_rays(vertices_of(part)) for part in (part_a, part_b))
    rows = product_effect(rays_a[:, None], rays_b[None]).reshape(-1, comp.ambient_dim)
    facets = comp.space.rep.facets
    assert np.array_equal(facets, rows) and not facets.flags.writeable
    assert np.all(facets @ vertices_of(comp.space).T >= -1e-12)
    assert compose(part_a, part_b, "min").space.rep.facets is None

    def no_lp(*args, **kwargs):
        raise AssertionError("LP solved")

    monkeypatch.setattr(gptlab.lp.engine, "lp_solve", no_lp)
    rng = np.random.default_rng(3)
    for omega in _near_boundary_points(comp.space, 20, rng):
        assert contains_state(comp.space, omega) == max_tensor_contains(comp, omega)


def _highs_contains(verts: np.ndarray, omega: np.ndarray) -> bool:
    """Is ``omega`` a convex combination of ``verts``?  HiGHS at its tightest
    feasibility tolerances, 1e-10, so it answers on about a tenth of tol."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    result = linprog(np.zeros(len(verts)), A_eq=verts.T, b_eq=omega, bounds=(0, None),
                     method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                              "dual_feasibility_tolerance": 1e-10})
    assert result.status in (0, 2), result.message  # solved or infeasible
    return result.status == 0


def _points_near_a_facet(space: StateSpace, count: int, rng, tol: float):
    """(omega, least facet value) pairs: from the vertex mean along a random
    direction to the first facet, then on past it or back, so that the least
    facet value lies within 10 tol of zero, on either side."""
    facets, verts = space.rep.facets, vertices_of(space)
    center = verts.mean(axis=0)
    out = []
    for _ in range(count):
        direction = np.concatenate([[0.0], rng.normal(size=verts.shape[1] - 1)])
        slope = facets @ direction
        exits = np.where(slope < 0, (facets @ center) / np.where(slope < 0, -slope, 1.0), np.inf)
        first = int(np.argmin(exits))
        value = rng.choice([-1.0, 1.0]) * tol * 10.0 ** rng.uniform(-2.0, 1.0)
        omega = center + (exits[first] + value / slope[first]) * direction
        out.append((omega, float(np.min(facets @ omega))))
    return out


@pytest.mark.parametrize(
    "part_a, part_b",
    [(square_gbit(), square_gbit()), (square_gbit(), PENTAGON), (classical(3), square_gbit())],
    ids=["square-square", "square-5gon", "classical3-square"],
)
def test_facet_membership_matches_the_lp_and_highs_near_a_facet(part_a, part_b):
    # Three routes, each with its own tolerance: the facets accept down to
    # -tol on a facet value, HiGHS down to about -tol/10, and the cone LP,
    # whose tol bounds a residual, down to about -10 tol.  Between -10 tol
    # and -tol only the LP accepts: those are the answers that moved.
    comp = compose(part_a, part_b, "max")
    tol = resolve_tol(None)
    verts = vertices_of(comp.space)
    rng = np.random.default_rng(18)
    for omega, value in _points_near_a_facet(comp.space, 60, rng, tol):
        facet = contains_state(comp.space, omega)
        lp = cone_contains(verts, omega, tol)
        highs = _highs_contains(verts, omega)
        assert facet == (value >= -tol) == max_tensor_contains(comp, omega), value
        if value >= 0.0:
            assert facet and lp and highs, value
        if value < -tol / 2:
            assert not highs, value
        if facet:
            assert lp, value  # the LP is never stricter than the facets
        assert lp == facet or -10 * tol <= value < -tol, value


def test_max_tensor_membership_of_a_polytope_pair_solves_no_lp(monkeypatch, square_pair):
    def no_lp(*args, **kwargs):
        raise AssertionError("LP solved")

    monkeypatch.setattr(gptlab.lp.engine, "lp_solve", no_lp)
    assert max_tensor_contains(square_pair, pr_box_state())
    assert not max_tensor_contains(square_pair, 1.5 * pr_box_state() - 0.5 * vertices_of(
        square_pair.space).mean(axis=0))


@pytest.mark.parametrize("part, dds", [
    (square_gbit(), 0),  # carries its facets
    (classical(3), 1),
    (StateSpace(name="bare-square", rep=PolytopeRep(vertices_of(square_gbit()))), 1),
], ids=["square", "classical(3)", "bare-square"])
def test_a_space_composed_with_itself_enumerates_its_facets_once(monkeypatch, part, dds):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return dual_cone_rays(*args, **kwargs)

    monkeypatch.setattr(gptlab.composites, "dual_cone_rays", counting)
    comp = compose(part, part, "max")
    assert len(calls) == dds  # integral rows: the exact path enumerates the vertices
    calls.clear()
    assert max_tensor_contains(comp, sample_state(comp.space, np.random.default_rng(0)))
    assert len(calls) == dds
