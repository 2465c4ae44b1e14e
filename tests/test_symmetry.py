"""Groups, transitivity, invariant states, strict convexity, faces, probes."""

from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from gptlab import geometry, symmetry
from gptlab.composites import compose
from gptlab.errors import NoFaceError, ValidationError
from gptlab.convex import (
    BallRep,
    PolytopeRep,
    QuantumRep,
    SimplexRep,
    StateSpace,
    cone_contains,
    sample_pure_state,
    validate_space,
    vertices_of,
)
from gptlab.geometry import brute_force_dual_cone_rays, dual_cone_rays
from gptlab.models import classical, gbit_ball, quantum, square_gbit
from gptlab.runner import build_space, load_theory, theory_from_dict
from gptlab.symmetry import (
    FiniteMatrixGroup,
    PermutationGroup,
    RotationGroup,
    UnitaryGroup,
    apply,
    check_group_descriptor,
    continuity_check,
    equivalence_probe,
    face_extract,
    is_g2_exception,
    maximally_mixed,
    maximally_mixed_decomposition,
    orbit_states,
    permutation_coordinate_matrix,
    polytope_symmetry_group,
    sample_element,
    strict_convexity_check,
    transitivity_check,
    two_bit_face_dimension_test,
    validate_group,
)
from gptlab.discrimination import capacity, verify_witness
from gptlab import quantum as qc

ALL_SPACES = [classical(3), gbit_ball(3), square_gbit(), quantum(2)]


def test_apply_identity():
    space = square_gbit()
    omega = np.array([1.0, 0.3, 0.7])
    assert np.array_equal(apply(np.eye(3), omega, space), omega)


def test_apply_transposition_on_classical_bit():
    space = classical(2)
    swap = permutation_coordinate_matrix(np.array([1, 0]), 2)
    v0, v1 = vertices_of(space)
    assert np.allclose(apply(swap, v0, space), v1, atol=1e-12)
    assert np.allclose(apply(swap, v1, space), v0, atol=1e-12)


def test_apply_rotation_fixes_axis():
    space = gbit_ball(3)
    north = np.array([1.0, 0.0, 0.0, 1.0])
    theta = np.pi
    rot = np.eye(4)
    rot[1, 1] = rot[2, 2] = np.cos(theta)
    rot[1, 2] = -np.sin(theta)
    rot[2, 1] = np.sin(theta)
    assert np.allclose(apply(rot, north, space), north, atol=1e-12)


def test_group_validation_all_builtins():
    for space in ALL_SPACES:
        validate_group(space)


def test_group_validation_checks_the_vertices_as_transitivity_does():
    # x -> 1.00001 - x is an involution, so {I, M} is closed; it sends the
    # square's corners 1e-5 outside, which no interior state shows
    flip = np.array([[1.0, 0, 0], [1.00001, -1, 0], [0, 0, 1]])
    space = StateSpace(name="square", rep=square_gbit().rep,
                       group=FiniteMatrixGroup(np.stack([np.eye(3), flip])))
    assert np.allclose(flip @ flip, np.eye(3))
    for check in (validate_group, transitivity_check):
        with pytest.raises(ValidationError, match="does not permute the vertex set"):
            check(space)


def test_group_validation_rejects_a_permutation_group_that_does_not_fit():
    # S_3 relabels the levels of classical(3), not the corners of a triangle
    # placed elsewhere
    triangle = StateSpace(name="triangle", rep=PolytopeRep(np.array(
        [[1.0, 0, 0], [1.0, 2, 0], [1.0, 0, 2]])), group=PermutationGroup(3))
    for check in (validate_group, transitivity_check):
        with pytest.raises(ValidationError, match="does not act on"):
            check(triangle)
    validate_group(classical(5))


@pytest.mark.parametrize("space, message, checks", [
    (replace(classical(3), group=PermutationGroup(4)), "does not act on",
     (validate_group, transitivity_check, continuity_check)),
    (replace(square_gbit(), group=FiniteMatrixGroup(np.eye(2)[None])), r"\(M, 3, 3\)",
     (validate_group, transitivity_check)),
], ids=["classical(3) under S_4", "square under a 2x2 group"])
def test_a_group_of_the_wrong_size_is_a_validation_error(space, message, checks):
    # validate_group and transitivity_check used to fail inside a matrix
    # product with numpy's ValueError, and continuity_check called S_4 on
    # three levels discrete without checking it
    for check in checks:
        with pytest.raises(ValidationError, match=message):
            check(space)


def _bfs_permutation_witnesses(space):
    """P3's witnesses for S_n by an orbit search: each transposition (0 k)
    matched against the vertices, then a BFS from vertex 0 recording a
    transporter matrix per reached vertex."""
    verts = vertices_of(space)
    gens = symmetry._group_matrices(space.group)
    table = [geometry.vertex_permutation(verts, g, 1e-9).tolist() for g in gens]
    transporter = {0: np.eye(space.ambient_dim)}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for mat, images in zip(gens, table):
                j = images[i]
                if j not in transporter:
                    transporter[j] = mat @ transporter[i]
                    nxt.append(j)
        frontier = nxt
    return tuple((verts[0], verts[j], transporter[j]) for j in sorted(transporter))


@pytest.mark.parametrize("n", range(1, 9))
def test_symmetric_group_witnesses_are_the_transpositions_the_orbit_search_finds(n):
    result = transitivity_check(classical(n))
    expected = _bfs_permutation_witnesses(classical(n))
    assert result.transitive and result.stranded is None
    assert len(result.witnesses) == len(expected) == n
    for got, want in zip(result.witnesses, expected):
        for x, y in zip(got, want):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def test_transitivity_ball_rotations():
    assert transitivity_check(gbit_ball(3)).transitive


def test_transitivity_simplex_permutations():
    assert transitivity_check(classical(4)).transitive


def test_transitivity_square_dihedral():
    assert transitivity_check(square_gbit()).transitive


def test_transitivity_quantum():
    assert transitivity_check(quantum(2)).transitive


@pytest.mark.parametrize("space", [gbit_ball(d) for d in range(2, 9)]
                         + [quantum(n) for n in range(1, 5)], ids=lambda s: s.name)
def test_a_matching_parametric_group_is_transitive_and_continuous_by_theorem(space):
    # SO(d), d >= 2, and U(n) are connected and transitive on the pure states
    assert transitivity_check(space) == symmetry.TransitivityResult(True)
    assert continuity_check(space)


MISMATCHED_GROUPS = [
    StateSpace(name="quantum(3) under U(2)", rep=QuantumRep(3), group=UnitaryGroup(2)),
    StateSpace(name="quantum(2) under SO(3)", rep=QuantumRep(2), group=RotationGroup(3)),
    StateSpace(name="ball(3) under SO(2)", rep=BallRep(3), group=RotationGroup(2)),
    StateSpace(name="ball(1) under SO(1)", rep=BallRep(1), group=RotationGroup(1)),
    StateSpace(name="ball(3) under U(2)", rep=BallRep(3), group=UnitaryGroup(2)),
]


@pytest.mark.parametrize("space", MISMATCHED_GROUPS, ids=lambda s: s.name)
def test_a_parametric_group_that_does_not_match_the_space_is_rejected(space, monkeypatch):
    calls = []
    real = symmetry.check_group_descriptor
    monkeypatch.setattr(symmetry, "check_group_descriptor",
                        lambda s: calls.append(s) or real(s))
    for check in (transitivity_check, continuity_check, validate_group):
        with pytest.raises(ValidationError, match="does not act on"):
            check(space)
    # each check is refused by the one helper
    assert calls == [space] * 3
    with pytest.raises(ValidationError, match="does not act on"):
        check_group_descriptor(space)


def test_transitivity_fails_with_trivial_group():
    # square with only the identity: three stranded vertices
    space_cls = square_gbit()
    from gptlab.convex import StateSpace

    trivial = StateSpace(
        name="square-trivial",
        rep=space_cls.rep,
        group=FiniteMatrixGroup(np.eye(3)[None]),
    )
    result = transitivity_check(trivial)
    assert not result.transitive
    assert result.stranded is not None


def test_transitivity_by_the_quarter_turn_alone():
    # (x, y) -> (1 - y, x) cycles the square's vertices 0 -> 1 -> 3 -> 2
    square = square_gbit()
    quarter = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    space = StateSpace(name="square-c4", rep=square.rep, group=FiniteMatrixGroup(quarter[None]))
    result = transitivity_check(space)
    assert result.transitive
    verts = vertices_of(space)
    assert len(result.witnesses) == 4
    for j, (source, target, mat) in enumerate(result.witnesses):
        assert np.array_equal(source, verts[0]) and np.array_equal(target, verts[j])
        assert np.allclose(mat @ verts[0], verts[j], atol=1e-12)


def test_transitivity_rejects_an_element_that_leaves_the_vertex_set_anywhere():
    # the matrix fixes vertex 0, so the orbit of vertex 0 is {0}, but it
    # stretches vertex 1 = (1, 1, 0) to (1, 2, 0), which is no vertex
    square = square_gbit()
    stretch = np.diag([1.0, 2.0, 1.0])
    space = StateSpace(name="square-bad", rep=square.rep, group=FiniteMatrixGroup(stretch[None]))
    with pytest.raises(ValidationError):
        transitivity_check(space)


def test_continuity_examples():
    assert continuity_check(gbit_ball(3))
    assert not continuity_check(classical(3))
    assert continuity_check(quantum(2))
    assert not continuity_check(square_gbit())
    assert not continuity_check(gbit_ball(1))  # finite flip group


def test_maximally_mixed_closed_forms():
    assert np.allclose(maximally_mixed(classical(3)), [1.0, 1 / 3, 1 / 3], atol=1e-15)
    assert np.allclose(maximally_mixed(gbit_ball(4)), [1.0, 0, 0, 0, 0], atol=1e-15)
    mu_q = maximally_mixed(quantum(2))
    assert np.allclose(qc.state_matrix(mu_q, 2), np.eye(2) / 2, atol=1e-15)
    # polytope: exact orbit average of a vertex
    assert np.allclose(maximally_mixed(square_gbit()), [1.0, 0.5, 0.5], atol=1e-12)


def test_maximally_mixed_invariant_under_100_elements(rng):
    for space in ALL_SPACES:
        mu = maximally_mixed(space)
        for _ in range(100):
            g = sample_element(space.group, rng)
            assert np.max(np.abs(g @ mu - mu)) <= 1e-9


def test_orbit_average_equals_closed_form_for_finite_groups():
    square = square_gbit()
    orbit = orbit_states(square, vertices_of(square)[1])
    assert orbit.shape[0] == 4
    assert np.allclose(orbit.mean(axis=0), maximally_mixed(square), atol=1e-12)
    tri = classical(3)
    orbit = orbit_states(tri, vertices_of(tri)[0])
    assert np.allclose(orbit.mean(axis=0), maximally_mixed(tri), atol=1e-12)


def test_strict_convexity():
    assert strict_convexity_check(gbit_ball(3)).strictly_convex
    assert strict_convexity_check(quantum(2)).strictly_convex
    assert strict_convexity_check(classical(2)).strictly_convex  # segment

    square = strict_convexity_check(square_gbit())
    assert not square.strictly_convex
    a, b, mid = square.witness
    assert np.allclose(mid, 0.5 * (a + b), atol=1e-12)

    tri = strict_convexity_check(classical(3))
    assert not tri.strictly_convex

    q3 = strict_convexity_check(quantum(3))
    assert not q3.strictly_convex
    _, _, mid = q3.witness
    rho = qc.state_matrix(mid, 3)
    assert np.allclose(rho, np.diag([0.5, 0.5, 0.0]), atol=1e-12)
    # the witness midpoint is a mixed state on the topological boundary
    assert qc.min_eigenvalue(rho) == pytest.approx(0.0, abs=1e-12)


def test_strict_convexity_of_a_face_that_does_not_span_the_space():
    # the facet of classical(4) opposite the last vertex is a triangle in a
    # four-dimensional ambient space
    face = face_extract(classical(4), np.array([1.0, 0.0, 0.0, -1.0]))
    assert face.vertices.shape == (3, 4)
    result = strict_convexity_check(StateSpace(name="face", rep=PolytopeRep(face.vertices)))
    assert not result.strictly_convex
    a, b, mid = result.witness
    corners = {tuple(v) for v in face.vertices}
    assert tuple(a) in corners and tuple(b) in corners and tuple(a) != tuple(b)
    assert np.allclose(mid, 0.5 * (a + b), atol=1e-12)


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


def _assert_edge_witness(verts: np.ndarray, facets: np.ndarray, tol: float) -> None:
    """The witness endpoints are two vertices, and the only vertices on every
    facet through both of them are those two: they span an edge."""
    result = strict_convexity_check(StateSpace(name="p", rep=PolytopeRep(verts)))
    assert not result.strictly_convex
    a, b, mid = result.witness
    ends = [int(np.nonzero(np.all(verts == x, axis=1))[0][0]) for x in (a, b)]
    assert ends[0] != ends[1]
    assert np.array_equal(mid, 0.5 * (a + b))
    tight = np.abs(verts @ facets.T) <= tol * np.max(np.abs(facets), axis=1)
    through_both = tight[ends[0]] & tight[ends[1]]
    assert set(np.nonzero(np.all(tight[:, through_both], axis=1))[0]) == set(ends)


def _corpus_polytopes():
    spaces = []
    for path in sorted(CORPUS.glob("*.json")):
        space = build_space(load_theory(str(path)))
        if isinstance(space.rep, (PolytopeRep, SimplexRep)) and space.ambient_dim >= 3:
            spaces.append(space)
    square = square_gbit()
    pentagon = build_space(load_theory(str(CORPUS / "5-gon.json")))
    composites = [compose(square, square, "min"), compose(square, square, "max"),
                  compose(pentagon, pentagon, "min")]
    return spaces + [c.space for c in composites]


@pytest.mark.parametrize("space", _corpus_polytopes(), ids=lambda s: s.name)
def test_strict_convexity_witness_is_an_edge_of_every_corpus_polytope(space):
    verts = vertices_of(space)
    _assert_edge_witness(verts, dual_cone_rays(verts), 1e-9)


def _spaces_with_vertex_groups():
    # every corpus polytope, with the group that a check searches for it,
    # the square and ball(1), plus the square with a "finite" group, whose
    # permutations are checked when it is loaded
    spaces = [build_space(load_theory(str(path))) for path in sorted(CORPUS.glob("*.json"))]
    spaces = [replace(s, group=polytope_symmetry_group(s.rep.vertices)) if s.group is None else s
              for s in spaces]
    spaces = [s for s in spaces if isinstance(s.group, FiniteMatrixGroup)]
    quarter = [[1.0, 0.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]]
    square_c4 = build_space(theory_from_dict({
        "name": "square-c4", "space": {"family": "square"},
        "group": {"kind": "finite", "matrices": [quarter]}}))
    spaces.append(replace(square_c4, name="square-c4"))
    assert len(spaces) == 16  # 13 JSON polytopes, the square, ball(1), square-c4
    return spaces


@pytest.mark.parametrize("space", _spaces_with_vertex_groups(), ids=lambda s: s.name)
def test_a_group_keeps_the_vertex_permutations_of_its_matrices(space):
    group = space.group
    verts = vertices_of(space)
    table = symmetry._vertex_table(verts, group.matrices, 1e-9)
    assert np.array_equal(group.perms, table)
    # P3 reads the stored permutations and finds what a fresh table finds
    stored = transitivity_check(space)
    fresh = transitivity_check(replace(space, group=FiniteMatrixGroup(group.matrices)))
    assert stored.transitive == fresh.transitive
    assert np.array_equal(stored.stranded, fresh.stranded)
    assert len(stored.witnesses) == len(fresh.witnesses)
    for a, b in zip(stored.witnesses, fresh.witnesses):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_group_perms_are_a_read_only_int_copy_outside_equality_and_repr():
    group = square_gbit().group
    given = np.array(group.perms)
    kept = FiniteMatrixGroup(group.matrices, perms=given)
    assert kept.perms.dtype == int and not kept.perms.flags.writeable
    assert given.flags.writeable  # the caller's array is copied, not frozen
    with pytest.raises(ValueError):
        kept.perms[0, 0] = 1
    assert FiniteMatrixGroup(group.matrices).perms is None
    assert [f.name for f in fields(FiniteMatrixGroup) if f.compare] == ["matrices"]
    assert kept == FiniteMatrixGroup(group.matrices) == FiniteMatrixGroup(group.matrices,
                                                                          perms=given[::-1])
    assert "perms" not in repr(kept)
    assert repr(kept) == repr(FiniteMatrixGroup(group.matrices))


@pytest.mark.parametrize("shape", [(7, 4), (9, 4), (0, 4), (8,), (8, 4, 1)])
def test_group_perms_need_one_row_per_matrix(shape):
    matrices = square_gbit().group.matrices  # 8 elements
    with pytest.raises(ValidationError, match="one row per matrix"):
        FiniteMatrixGroup(matrices, perms=np.zeros(shape, dtype=int))


@seed(20120321)
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=5).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=k - 1, max_size=k - 1),
            min_size=k,
            max_size=9,
        )
    )
)
def test_strict_convexity_witness_is_an_edge_of_random_polytopes(coords):
    # half-integer coordinates tie often, which the lexicographic order must break
    points = np.unique([[2.0, *c] for c in coords], axis=0) / 2.0
    assume(points.shape[0] >= points.shape[1])
    keep = [i for i in range(points.shape[0])
            if not cone_contains(np.delete(points, i, axis=0), points[i], 1e-9)]
    verts = points[keep]
    try:
        validate_space(StateSpace(name="p", rep=PolytopeRep(verts)))
    except ValidationError:
        assume(False)
    _assert_edge_witness(verts, brute_force_dual_cone_rays(verts), 1e-7)


def test_strict_convexity_runs_no_facet_enumeration(monkeypatch):
    pentagon = build_space(load_theory(str(CORPUS / "5-gon.json")))
    space = compose(pentagon, pentagon, "max").space
    calls = []

    def counting(generators, tol=None):
        calls.append(generators)
        return np.zeros((0, generators.shape[1]))

    monkeypatch.setattr(geometry, "dual_cone_rays", counting)
    monkeypatch.setattr(symmetry, "dual_cone_rays", counting, raising=False)
    assert vertices_of(space).shape == (135, 9)
    assert not strict_convexity_check(space).strictly_convex
    assert calls == []


def test_face_extract_ball_exposed_point():
    space = gbit_ball(3)
    effect = np.array([0.5, 0.0, 0.0, 0.5])
    face = face_extract(space, effect)
    assert face.kind == "point"
    assert np.allclose(face.point, [1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_face_extract_square_edge():
    space = square_gbit()
    x_effect = np.array([0.0, 1.0, 0.0])
    face = face_extract(space, x_effect)
    assert face.kind == "vertices"
    assert face.vertices.shape[0] == 2
    assert np.all(face.vertices[:, 1] == 1.0)


def test_face_extract_quantum_subspace():
    space = quantum(3)
    effect = qc.effect_coords(np.diag([1.0, 1.0, 0.0]).astype(complex), 3)
    face = face_extract(space, effect)
    assert face.kind == "quantum"
    assert face.quantum_rank == 2
    # affine dimension of the supported states is 2^2 - 1 = 3


def test_face_extract_requires_attained_one():
    space = gbit_ball(3)
    with pytest.raises(NoFaceError):
        face_extract(space, np.array([0.25, 0.0, 0.0, 0.25]))


def test_exposed_pure_state_exists_everywhere(rng):
    # every built-in space yields at least one single-point face
    cases = [
        (classical(3), np.array([0.0, 1.0, 0.0])),
        (gbit_ball(3), np.array([0.5, 0.5, 0.0, 0.0])),
        (square_gbit(), np.array([0.0, 0.5, 0.5])),
        (quantum(2), qc.effect_coords(np.diag([1.0, 0.0]).astype(complex), 2)),
    ]
    for space, effect in cases:
        face = face_extract(space, effect)
        size = 1
        if face.kind == "vertices":
            size = face.vertices.shape[0]
        elif face.kind == "quantum":
            size = face.quantum_rank
        assert face.kind in ("point", "vertices", "quantum")
        assert size == 1


def test_equivalence_probe_square_face_vs_classical_bit():
    face = face_extract(square_gbit(), np.array([0.0, 1.0, 0.0]))
    probe = equivalence_probe(face, classical(2))
    assert probe.consistent


def test_equivalence_probe_square_vs_disk():
    probe = equivalence_probe(square_gbit(), gbit_ball(2))
    assert not probe.consistent
    assert probe.mismatch == "strictly_convex"


def test_equivalence_probe_quantum_face_vs_qubit():
    face = face_extract(quantum(3), qc.effect_coords(np.diag([1.0, 1.0, 0.0]).astype(complex), 3))
    probe = equivalence_probe(face, quantum(2))
    assert probe.consistent


def test_two_bit_face_dimension():
    assert two_bit_face_dimension_test(1)
    assert two_bit_face_dimension_test(2)
    assert two_bit_face_dimension_test(3)  # (d-1)^2 = 4 = d+1
    assert not two_bit_face_dimension_test(7)
    assert not two_bit_face_dimension_test(4)
    admissible = [d for d in range(1, 32) if two_bit_face_dimension_test(d)]
    assert admissible == [1, 2, 3]
    assert is_g2_exception(7)
    assert not is_g2_exception(3)


def test_maximally_mixed_decomposition():
    # N distinguishable pure states averaging to the maximally mixed state
    for space in (classical(4), gbit_ball(3), quantum(2), square_gbit()):
        witness = maximally_mixed_decomposition(space)
        assert witness is not None
        assert verify_witness(space, witness)
        mu = maximally_mixed(space)
        assert np.max(np.abs(witness.states.mean(axis=0) - mu)) <= 1e-9
        assert witness.n == capacity(space).n


def test_a_group_element_that_does_not_permute_the_vertices_is_rejected():
    square = square_gbit()
    # diag(1, 1, 0) sends each vertex to a vertex, two of them to the same one
    bad = StateSpace(name="square", rep=square.rep,
                     group=FiniteMatrixGroup(np.array([np.eye(3), np.diag([1.0, 1.0, 0.0])])))
    with pytest.raises(ValidationError):
        transitivity_check(bad)


@pytest.mark.parametrize("space", [gbit_ball(2), gbit_ball(3), gbit_ball(4), quantum(2)],
                         ids=lambda s: s.name)
def test_the_exposing_effect_of_a_pure_state_has_a_one_point_face(space):
    # the theorem P2 (N = 2) reads on strictly convex spaces
    assert strict_convexity_check(space)
    rng = np.random.default_rng(5)
    for _ in range(10):
        pure = sample_pure_state(space, rng)
        if isinstance(space.rep, BallRep):
            face = face_extract(space, np.concatenate([[0.5], 0.5 * pure[1:]]))
            assert face.kind == "point"
            assert np.allclose(face.point, pure, atol=1e-12)
        else:
            rho = qc.state_matrix(pure, 2)
            face = face_extract(space, qc.effect_coords(rho, 2))
            assert face.kind == "quantum" and face.quantum_rank == 1
            assert np.allclose(face.projector, rho, atol=1e-9)


QUARTER_TURN = np.array([[1.0, 0, 0], [1.0, 0, -1], [0, 1.0, 0]])  # (x, y) -> (1 - y, x)
FLIP_X = np.array([[1.0, 0, 0], [1.0, -1, 0], [0, 0, 1]])  # x -> 1 - x on the square
FLIP_Y = np.array([[1.0, 0, 0], [0, 1, 0], [1.0, 0, -1]])  # y -> 1 - y


@pytest.mark.parametrize("matrices, message", [
    ([np.eye(3), np.diag([1.0, 1.0, 0.0])], "singular group element"),
    ([np.eye(3), QUARTER_TURN], "not closed under inverse"),
    ([np.eye(3), FLIP_X, FLIP_Y], "not closed under product"),
], ids=["singular", "no-inverse", "no-product"])
def test_group_validation_rejects_a_matrix_set_that_is_no_group(matrices, message):
    # the two flips are involutions, so the set is closed under inverse; their
    # product, the half-turn, is missing
    space = StateSpace(name="square", rep=square_gbit().rep,
                       group=FiniteMatrixGroup(np.array(matrices)))
    with pytest.raises(ValidationError, match=message):
        validate_group(space)


def test_group_validation_checks_the_perms_that_transitivity_reads():
    # four identities claiming the square's Klein four-group of permutations:
    # read through these perms, P3 would call the identity group transitive
    # and give witnesses that send vertex 0 to itself
    claimed = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    space = StateSpace(name="square", rep=square_gbit().rep,
                       group=FiniteMatrixGroup(np.array([np.eye(3)] * 4), perms=claimed))
    with pytest.raises(ValidationError, match="perms"):
        validate_group(space)
    validate_group(replace(space, group=FiniteMatrixGroup(space.group.matrices,
                                                          perms=[[0, 1, 2, 3]] * 4)))
    validate_group(square_gbit())
