"""Theory I/O, postulate checker, report determinism, CLI."""

import json
from functools import partial
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from gptlab import cli, convex, discrimination, geometry, runner, symmetry
from gptlab.config import DEFAULT_TOL, get_tol, set_tol
from gptlab.composites import chsh_value, compose
from gptlab.convex import PolytopeRep, StateSpace, extremal_effects, validate_space, vertices_of
from gptlab.errors import BudgetExceededError, UnsupportedRepresentationError, ValidationError
from gptlab.cli import main as cli_main
from gptlab.discrimination import capacity, distinguishable
from gptlab.lp import engine as lp_engine
from gptlab.models import classical, square_gbit
from gptlab.runner import (
    FAIL,
    INDETERMINATE,
    PASS,
    POSTULATE_KEYS,
    PROBES_PASS,
    PostulateReport,
    TheoryDefinition,
    build_space,
    check_postulates,
    dump_json,
    load_theory,
    polytope_symmetry_group,
    report_parse,
    report_render,
    theory_from_dict,
)
from gptlab.symmetry import continuity_check, face_extract, transitivity_check

QUANTUM2 = TheoryDefinition(name="quantum(2)", space_spec={"family": "quantum", "N": 2})
CLASSICAL3 = TheoryDefinition(name="classical(3)", space_spec={"family": "classical", "N": 3})
SQUARE = TheoryDefinition(name="square", space_spec={"family": "square"})
_ANGLES = 2 * np.pi * np.arange(5) / 5
PENTAGON_CORNERS = np.column_stack([np.ones(5), np.cos(_ANGLES), np.sin(_ANGLES)])
PENTAGON = TheoryDefinition(
    name="5-gon", space_spec={"family": "polytope", "vertices": PENTAGON_CORNERS.tolist()}
)
ROOT = Path(__file__).resolve().parents[1]
GOLDEN_REPORTS = json.loads((ROOT / "perfbench" / "golden.json").read_text())[
    "check_corpus"]["theories"]


def test_build_space_families():
    assert build_space(QUANTUM2).ambient_dim == 4
    assert build_space(CLASSICAL3).ambient_dim == 3
    assert build_space(SQUARE).ambient_dim == 3
    ball = TheoryDefinition(name="ball", space_spec={"family": "ball", "d": 3})
    assert build_space(ball).ambient_dim == 4


def test_build_space_rejects_unknown_family():
    with pytest.raises(ValidationError):
        build_space(TheoryDefinition(name="x", space_spec={"family": "pentagon"}))


def test_polytope_symmetry_group_square():
    verts = np.array([[1.0, 0, 0], [1.0, 1, 0], [1.0, 0, 1], [1.0, 1, 1]])
    group = polytope_symmetry_group(verts)
    assert group.order == 8  # the dihedral group of the square


def test_polytope_symmetry_group_generic_polytope_is_trivial():
    verts = np.array([[1.0, 0, 0], [1.0, 1, 0], [1.0, 0.3, 0.9]])
    group = polytope_symmetry_group(verts)
    assert group.order >= 1
    # every triangle is a linear image of the regular one: its group is S3
    verts = np.array([[1.0, 0, 0], [1.0, 1.1, 0], [1.0, 0.2, 0.7]])
    assert polytope_symmetry_group(verts).order == 6
    # a generic pentagon admits only the identity
    verts = np.array([[1.0, 0, 0], [1, 1.1, 0], [1, 1.5, 0.8], [1, 0.6, 1.3], [1, -0.3, 0.7]])
    assert polytope_symmetry_group(verts).order == 1


# A unit-fixing linear map: (A v)[0] = v[0] for every v.
UNIT_FIXING_MAP = np.array([[1.0, 0, 0], [0.3, 2, 0.5], [-0.2, 0.1, 0.7]])


def test_linear_image_of_the_square_keeps_its_group_and_p3():
    # postulate (iii) concerns reversible linear maps, so the group and the
    # statuses must not depend on the coordinates of the vertices
    verts = np.array([[1.0, 0, 0], [1.0, 1, 0], [1.0, 0, 1], [1.0, 1, 1]]) @ UNIT_FIXING_MAP.T
    assert polytope_symmetry_group(verts).order == 8
    td = TheoryDefinition(name="square-image",
                          space_spec={"family": "polytope", "vertices": verts.tolist()})
    assert check_postulates(td, seed=0).postulates["P3"]["status"] == PASS


def _unit_fixing_map(k: int, rng: np.random.Generator) -> np.ndarray:
    """A random invertible map on K = k coordinates that fixes coordinate 0."""
    a = np.eye(k)
    a[1:, 0] = rng.uniform(-0.5, 0.5, size=k - 1)
    a[1:, 1:] = rng.uniform(-1.0, 1.0, size=(k - 1, k - 1)) + 1.5 * np.eye(k - 1)
    return a


@seed(20120321)
@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(["4-gon", "5-gon", "6-gon", "cube", "octahedron"]),
    map_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_statuses_invariant_under_unit_fixing_linear_maps(name, map_seed):
    theory = load_theory(str(ROOT / "perfbench" / "corpus" / f"{name}.json"))
    verts = np.asarray(theory.space_spec["vertices"], dtype=float)
    a = _unit_fixing_map(verts.shape[1], np.random.default_rng(map_seed))
    assume(np.linalg.cond(a) < 20)
    image = TheoryDefinition(name=name, space_spec={"family": "polytope",
                                                    "vertices": (verts @ a.T).tolist()})
    report = check_postulates(image, seed=0)
    expected = GOLDEN_REPORTS[f"{name}|min"]
    assert {k: v["status"] for k, v in report.postulates.items()} == expected["statuses"]
    assert (report.metrics["N"], report.metrics["K"]) == (expected["N"], expected["K"])


def test_user_polytope_theory_with_auto_group():
    td = TheoryDefinition(
        name="user-square",
        space_spec={
            "family": "polytope",
            "vertices": [[1.0, 0, 0], [1.0, 1, 0], [1.0, 0, 1], [1.0, 1, 1]],
        },
    )
    space = build_space(td)
    assert space.group.order == 8
    report = check_postulates(td)
    assert report.postulates["P2"]["status"] == FAIL
    assert report.postulates["P3"]["status"] == PASS


# JSON polytopes with one extra row.  The auto group is searched on the
# vertices that validation leaves: duplicates merged, no interior points.
_SQUARE_ROWS = [[1.0, 0, 0], [1.0, 1, 0], [1.0, 0, 1], [1.0, 1, 1]]
NEAR_DUPLICATE = TheoryDefinition(name="near-duplicate", space_spec={
    "family": "polytope", "vertices": _SQUARE_ROWS + [[1.0, 1e-12, 0.0]]})
EXACT_DUPLICATE = TheoryDefinition(name="exact-duplicate", space_spec={
    "family": "polytope", "vertices": _SQUARE_ROWS + [_SQUARE_ROWS[2]]})
TESSERACT_AND_CENTRE = TheoryDefinition(name="tesseract-and-centre", space_spec={
    "family": "polytope",
    "vertices": [[1.0, *c] for c in product((-1.0, 1.0), repeat=4)] + [[1.0, 0, 0, 0, 0]]})


@pytest.mark.parametrize("td", [NEAR_DUPLICATE, EXACT_DUPLICATE], ids=lambda td: td.name)
def test_auto_group_is_searched_on_the_deduplicated_vertices(td):
    space = build_space(td)
    assert space.rep.vertices.shape[0] == 4
    assert space.group.order == 8
    assert check_postulates(td).postulates["P3"]["status"] == PASS


def test_an_interior_row_fails_validation_before_the_group_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("group searched before validation")

    monkeypatch.setattr(runner, "polytope_symmetry_group", no_search)
    with pytest.raises(ValidationError, match="vertex 8 is a convex combination of the others"):
        build_space(TESSERACT_AND_CENTRE)


def _random_hull_rows(seed: int) -> np.ndarray:
    """4 to 9 Gaussian points in 2-D or 3-D, some of them inside the hull,
    with 1 to 3 convex combinations of them mixed in."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(rng.integers(4, 10), 2 + seed % 2))
    inner = rng.dirichlet(np.ones(len(points)), size=rng.integers(1, 4)) @ points
    rows = np.vstack([points, inner])[rng.permutation(len(points) + len(inner))]
    return np.column_stack([np.ones(len(rows)), rows])


_HEXAGON = np.column_stack([np.ones(6), np.cos(np.arange(6) * np.pi / 3),
                            np.sin(np.arange(6) * np.pi / 3)])
EXTREMALITY_CASES = {
    **{name: np.array(load_theory(str(ROOT / "perfbench" / "corpus" / f"{name}.json"))
                      .space_spec["vertices"]) for name in
       [f"{n}-gon" for n in range(3, 13)] + ["cube", "octahedron", "tesseract"]},
    "square": vertices_of(square_gbit()),
    **{td.name: np.array(td.space_spec["vertices"])
       for td in (TESSERACT_AND_CENTRE, NEAR_DUPLICATE, EXACT_DUPLICATE)},
    "hexagon-and-edge-midpoint": np.vstack([_HEXAGON, (_HEXAGON[0] + _HEXAGON[1]) / 2]),
    **{f"random-hull-{seed}": _random_hull_rows(seed) for seed in range(12)},
}


def _extremality_verdict(rep: PolytopeRep) -> str | None:
    try:
        validate_space(StateSpace(name="p", rep=rep))
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("rows", EXTREMALITY_CASES.values(), ids=EXTREMALITY_CASES.keys())
def test_facet_and_lp_extremality_give_one_verdict(monkeypatch, rows):
    # the tight-facet rank and the LP per row name the same row, or none
    bare, faceted = PolytopeRep(rows), PolytopeRep.with_facets(rows)
    assert bare.facets is None and faceted.facets is not None
    by_lp = _extremality_verdict(bare)

    def no_lp(*args, **kwargs):
        raise AssertionError("cone LP solved")

    monkeypatch.setattr(convex, "cone_contains", no_lp)
    assert _extremality_verdict(faceted) == by_lp


def test_postulate_landscape_quantum2():
    report = check_postulates(QUANTUM2, seed=0)
    for key in ("P1", "P3", "P3C", "P4", "P4prime"):
        assert report.postulates[key]["status"] == PASS, key
    assert report.postulates["P2"]["status"] == PROBES_PASS
    assert report.metrics["K"] == 4
    assert report.metrics["N"] == 2
    assert report.metrics["r"] == 2
    assert report.metrics["bit_dimension"] == 3
    assert report.metrics["bit_dimension_admissible"] is True


def test_postulate_landscape_classical3():
    report = check_postulates(CLASSICAL3, seed=0)
    assert report.postulates["P3C"]["status"] == FAIL
    for key in ("P1", "P3", "P4", "P4prime"):
        assert report.postulates[key]["status"] == PASS, key
    assert report.postulates["P2"]["status"] == PROBES_PASS
    assert report.metrics["r"] == 1


def test_postulate_landscape_one_ball_matches_classical_bit():
    # the 1-ball is the classical bit: discrete flip group, so only P3C fails
    report = check_postulates(
        TheoryDefinition(name="ball(1)", space_spec={"family": "ball", "d": 1}), seed=0
    )
    assert report.postulates["P3C"]["status"] == FAIL
    for key in ("P1", "P3", "P4", "P4prime"):
        assert report.postulates[key]["status"] == PASS, key


def test_check_postulates_with_partner():
    report = check_postulates(QUANTUM2, partner=CLASSICAL3, seed=0)
    assert report.partner == "classical(3)"
    assert report.postulates["P1"]["status"] == PASS  # sampled span is 4*3 - 1


def test_postulate_landscape_square():
    report = check_postulates(SQUARE, seed=0)
    assert report.postulates["P2"]["status"] == FAIL
    witness = report.postulates["P2"]["witness"]
    assert witness["face_extreme_points"] == 2
    assert report.metrics["bit_dimension"] == 2
    assert report.metrics["bit_dimension_admissible"] is False
    # max-tensor composite of squares reaches the PR-box value
    report_max = check_postulates(SQUARE, rule="max", seed=0)
    assert report_max.metrics["chsh_max"] == pytest.approx(4.0, abs=1e-9)


def test_check_postulates_builds_the_composite_once(monkeypatch):
    # P1 reads only the parts' spans; a composite is built, under either
    # rule, only for the CHSH metric of a pair with a polytope part, which
    # needs fiducial readouts that are effects of both parts (the square has
    # them; the pentagon and the tesseract do not)
    built = []

    def counting_compose(a, b, rule, **kwargs):
        built.append(rule)
        return compose(a, b, rule, **kwargs)

    monkeypatch.setattr(runner, "compose", counting_compose)
    tesseract = load_theory(str(ROOT / "perfbench" / "corpus" / "tesseract.json"))
    classical8 = TheoryDefinition("classical(8)", {"family": "classical", "N": 8})
    ball2 = TheoryDefinition("ball(2)", {"family": "ball", "d": 2})
    cases = [
        (SQUARE, "max", ["max"], 4.0),
        (SQUARE, "min", ["min"], 2.0),
        (PENTAGON, "max", [], None),
        (tesseract, "min", [], None),
    ]
    # two simplices score 2 by theorem; balls and quantum systems have no
    # readouts to score
    cases += [(td, rule, [], 2.0) for td in (CLASSICAL3, classical8) for rule in ("min", "max")]
    cases += [(td, rule, [], None) for td in (ball2, QUANTUM2) for rule in ("min", "max")]
    for theory, rule, expected, chsh in cases:
        built.clear()
        report = check_postulates(theory, rule=rule, seed=0)
        assert built == expected, (theory.name, rule)
        assert report.postulates["P1"]["status"] == PASS
        if chsh is None:
            assert report.metrics["chsh_max"] is None
        else:
            assert report.metrics["chsh_max"] == pytest.approx(chsh, abs=1e-9)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("rule", ["min", "max"])
def test_two_simplices_score_what_their_composite_gives(n, rule):
    # the oracle for the theorem: the fiducial readouts on every vertex of
    # the composite, built under the rule
    theory = TheoryDefinition(f"classical({n})", {"family": "classical", "N": n})
    space = build_space(theory)
    readouts = runner._canonical_binary_measurements(space)
    comp = compose(space, space, rule)
    oracle = float(np.max(chsh_value(comp, vertices_of(comp.space), readouts, readouts)))
    assert runner._chsh_metric(space, space, rule, get_tol()) == oracle == 2.0
    assert check_postulates(theory, rule=rule).metrics["chsh_max"] == oracle


@pytest.mark.parametrize("n, m, chsh", [(1, 1, None), (1, 3, None), (3, 1, None), (2, 5, 2.0)])
def test_two_simplices_are_scored_before_any_readout_is_built(monkeypatch, n, m, chsh):
    def refuse(space):
        raise AssertionError("readouts built for a pair of simplices")

    monkeypatch.setattr(runner, "_canonical_binary_measurements", refuse)
    assert runner._chsh_metric(classical(n), classical(m), "min", get_tol()) == chsh


@pytest.mark.parametrize("theory, rule, vertices", [(SQUARE, "min", 16), (SQUARE, "max", 24)],
                         ids=["square|min", "square|max"])
def test_chsh_metric_evaluates_all_vertices_in_one_call(monkeypatch, theory, rule, vertices):
    calls = []
    chsh = runner.chsh_value

    def counting_chsh(*args):
        calls.append(args)
        return chsh(*args)

    monkeypatch.setattr(runner, "chsh_value", counting_chsh)
    report = check_postulates(theory, rule=rule, seed=0)
    assert len(calls) == 1
    assert calls[0][1].shape[0] == vertices
    assert report.metrics["chsh_max"] is not None

def test_check_postulates_rejects_unknown_rule():
    with pytest.raises(ValueError):
        check_postulates(SQUARE, rule="maximal", seed=0)


@pytest.mark.parametrize(
    "error",
    [UnsupportedRepresentationError("no vertex list"), BudgetExceededError("too many vertices")],
)
def test_max_tensor_construction_error_leaves_only_chsh_unset(monkeypatch, error):
    def failing_max_compose(a, b, rule, **kwargs):
        if rule == "max":
            raise error
        return compose(a, b, rule, **kwargs)

    monkeypatch.setattr(runner, "compose", failing_max_compose)
    report = check_postulates(SQUARE, rule="max", seed=0)
    assert report.postulates["P1"] == {"status": PASS}
    assert report.metrics["chsh_max"] is None
    assert report.postulates["P2"]["status"] == FAIL  # the other probes still run


def test_metric_out_of_budget_is_unset_and_the_report_completes(monkeypatch):
    # the metrics run after the postulate probes; running out of budget in
    # one of them leaves that metric unset instead of aborting the report
    def exhausted(*args, **kwargs):
        raise BudgetExceededError("too many vertices")

    expected = check_postulates(SQUARE, seed=0)
    monkeypatch.setattr(runner, "strict_convexity_check", exhausted)
    monkeypatch.setattr(runner, "chsh_value", exhausted)
    report = check_postulates(SQUARE, seed=0)
    assert report.metrics == {**expected.metrics, "strictly_convex": None, "chsh_max": None}
    assert report.postulates == expected.postulates


def test_p4_prime_finds_a_partner_for_each_pentagon_vertex():
    # adjacent pentagon vertices are not perfectly distinguishable, so each
    # vertex passes only through a partner further round the polygon
    space = build_space(PENTAGON)
    assert distinguishable(space, PENTAGON_CORNERS[:2]) is None
    assert distinguishable(space, PENTAGON_CORNERS[[0, 2]]) is not None
    assert check_postulates(PENTAGON, seed=0).postulates["P4prime"]["status"] == PASS


def test_p4_prime_solves_no_distinguishability_lp(monkeypatch):
    # P4' holds by theorem on a polytope, so the check runs only the
    # capacity search's tests, which on the pentagon's facets are cone tests
    calls = []
    for name in ("_polytope_distinguishable", "_candidate_distinguishable"):
        def counting(*args, solve=getattr(discrimination, name)):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(discrimination, name, counting)
    capacity(build_space(PENTAGON))
    alone = len(calls)
    calls.clear()
    check_postulates(PENTAGON, seed=0)
    assert alone > 0 and len(calls) == alone


def test_p4_prime_passes_when_the_capacity_search_runs_out(monkeypatch):
    # P2 needs N; P4' holds by theorem whatever the search found.  The
    # pentagon's pairs fall into two orbits, so one LP does not decide them
    monkeypatch.setattr(runner, "capacity", partial(capacity, lp_budget=1))
    report = check_postulates(PENTAGON, seed=0)
    assert (report.metrics["N"], report.metrics["capacity_exact"]) == (None, False)
    assert report.postulates["P2"] == {
        "status": INDETERMINATE, "reason": "capacity search budget exhausted"
    }
    assert report.postulates["P4prime"] == {"status": PASS}
    assert report.any_budget_exhausted


def test_a_probe_out_of_budget_is_indeterminate_and_the_report_completes(monkeypatch):
    # a probe that runs out of budget leaves its own status indeterminate,
    # with the error as the reason, and the other probes still run
    def exhausted(*args):
        raise BudgetExceededError("symmetry search exceeded 5 nodes")

    expected = check_postulates(PENTAGON, seed=0)
    assert not expected.any_budget_exhausted
    monkeypatch.setattr(runner, "_check_p3", exhausted)
    report = check_postulates(PENTAGON, seed=0)
    assert report.postulates == {**expected.postulates, "P3": {
        "status": INDETERMINATE, "reason": "budget exhausted: symmetry search exceeded 5 nodes"}}
    assert report.metrics == expected.metrics
    assert report.any_budget_exhausted


@pytest.mark.parametrize("rule", ["min", "max"])
def test_p2_probes_the_faces_of_a_two_state_polytope(rule):
    # the segment has N = 2 and two one-point faces, each exposed by a
    # complete two-outcome measurement
    segment = TheoryDefinition(name="segment", space_spec={
        "family": "polytope", "vertices": [[1, 0], [1, 1]]})
    report = check_postulates(segment, rule=rule)
    assert report.metrics["N"] == 2
    assert report.postulates["P2"] == {"status": PROBES_PASS}
    assert report.postulates["P4prime"] == {"status": PASS}


def test_p4_with_a_restricted_effect_list_on_a_ball_is_indeterminate():
    # a ball has infinitely many extremal effects, so a finite list is not
    # checked for reaching them
    disk = TheoryDefinition(name="disk", space_spec={"family": "ball", "d": 2},
                            allowed_effects=np.array([[0.5, 0.5, 0.0], [0.5, -0.5, 0.0]]))
    assert check_postulates(disk).postulates["P4"] == {
        "status": INDETERMINATE,
        "reason": "restricted effect list on a continuous space: only listed effects checked",
    }


@pytest.mark.parametrize("rule", ["min", "max"])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_check_postulates_on_larger_simplices_matches_golden(n, rule):
    # P2 probes each facet, a simplex that does not span the ambient space
    theory = TheoryDefinition(name=f"classical({n})", space_spec={"family": "classical", "N": n})
    report = check_postulates(theory, rule=rule, seed=0)
    expected = GOLDEN_REPORTS[f"classical({n})|{rule}"]
    assert {k: v["status"] for k, v in report.postulates.items()} == expected["statuses"]
    assert (report.metrics["N"], report.metrics["K"]) == (expected["N"], expected["K"])


def _sweep_theories() -> list[TheoryDefinition]:
    theories = (
        [TheoryDefinition(f"classical({n})", {"family": "classical", "N": n}) for n in range(1, 9)]
        + [TheoryDefinition(f"ball({d})", {"family": "ball", "d": d}) for d in range(1, 9)]
        + [TheoryDefinition(f"quantum({n})", {"family": "quantum", "N": n}) for n in range(1, 5)]
    )
    names = {td.name for td in theories}
    paths = sorted((ROOT / "perfbench" / "corpus").glob("*.json"))
    corpus = [load_theory(str(path)) for path in paths]
    return theories + [td for td in corpus if td.name not in names]


@pytest.mark.parametrize("rule", ["min", "max"])
@pytest.mark.parametrize("theory", _sweep_theories(), ids=lambda td: td.name)
def test_every_family_and_corpus_theory_completes_check(theory, rule):
    report = check_postulates(theory, rule=rule, seed=0)
    assert report_parse(report_render(report, format="json")) == report
    assert report_render(report, format="md").count("\n| P") == len(POSTULATE_KEYS)


def test_fail_witnesses_replay():
    # P2 witness for the square: the face of the witness effect has 2 states
    report = check_postulates(SQUARE, seed=0)
    space = build_space(SQUARE)
    effect = np.array(report.postulates["P2"]["witness"]["effect"], dtype=float)
    face = face_extract(space, effect)
    assert face.vertices.shape[0] == 2

    # P3C witness for classical(3): the group is a discrete family
    report = check_postulates(CLASSICAL3, seed=0)
    assert report.postulates["P3C"]["witness"]["group_kind"] == "PermutationGroup"
    assert not continuity_check(space := build_space(CLASSICAL3))
    assert transitivity_check(space).transitive


def test_p4_restricted_effect_list_fails():
    # only noisy effects allowed: extremal effects are not reachable
    noisy = TheoryDefinition(
        name="noisy-square",
        space_spec={"family": "square"},
        allowed_effects=np.array(
            [[0.25, 0.5, 0.0], [0.75, -0.5, 0.0], [0.5, 0.0, 0.0]]
        ),
    )
    report = check_postulates(noisy, seed=0)
    assert report.postulates["P4"]["status"] == FAIL
    missing = np.array(report.postulates["P4"]["witness"]["missing_extremal_effect"])
    assert missing.shape == (3,)


def test_p4_restricted_to_the_extremal_effects_passes():
    # every extremal effect is in the hull of a list that contains it
    listed = TheoryDefinition(
        name="listed-square",
        space_spec={"family": "square"},
        allowed_effects=extremal_effects(square_gbit()),
    )
    assert check_postulates(listed, seed=0).postulates["P4"]["status"] == PASS


def test_report_round_trip_and_determinism():
    report = check_postulates(QUANTUM2, seed=0)
    text1 = report_render(report, format="json")
    text2 = report_render(check_postulates(QUANTUM2, seed=0), format="json")
    assert text1 == text2  # byte-identical for identical inputs and seed
    parsed = report_parse(text1)
    assert parsed == report
    md = report_render(report, format="md")
    assert "| P3C | pass |" in md
    # markdown table has one row per postulate
    assert sum(1 for line in md.splitlines() if line.startswith("| P")) == 6


def test_the_checker_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_postulates asked for a random generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    ball3 = TheoryDefinition(name="ball(3)", space_spec={"family": "ball", "d": 3})
    for theory in (ball3, QUANTUM2, CLASSICAL3, SQUARE, PENTAGON):
        for rule in ("min", "max"):
            check_postulates(theory, rule=rule, seed=0)


@pytest.mark.parametrize("family,key,sizes", [("ball", "d", range(1, 9)),
                                              ("quantum", "N", range(1, 5))])
def test_reports_do_not_depend_on_the_seed(family, key, sizes):
    # the seed is recorded in the report and nothing else reads it
    for n in sizes:
        theory = TheoryDefinition(name=f"{family}({n})", space_spec={"family": family, key: n})
        for rule in ("min", "max"):
            first, second = (check_postulates(theory, rule=rule, seed=s).to_dict()
                             for s in (0, 7))
            assert (first.pop("seed"), second.pop("seed")) == (0, 7)
            assert dump_json(first) == dump_json(second)


def test_empty_metrics_report_renders_all_statuses():
    report = PostulateReport(
        theory="empty",
        partner=None,
        rule="min",
        seed=0,
        tolerance=1e-9,
        metrics={},
        postulates={k: {"status": PASS} for k in ("P1", "P2", "P3", "P3C", "P4", "P4prime")},
    )
    data = json.loads(report_render(report, format="json"))
    assert set(data["postulates"]) == {"P1", "P2", "P3", "P3C", "P4", "P4prime"}
    assert all("status" in v for v in data["postulates"].values())


def test_polytope_symmetry_group_hexagon():
    angles = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    verts = np.column_stack([np.ones(6), np.cos(angles), np.sin(angles)])
    assert polytope_symmetry_group(verts).order == 12  # dihedral group


def test_report_round_trip_random_reports(rng):
    # property: parse(render(r)) == r for randomly populated reports
    for _ in range(50):
        metrics = {
            "K": int(rng.integers(1, 20)),
            "chsh_max": float(rng.normal()),
            "strictly_convex": bool(rng.integers(0, 2)),
            "r": None,
        }
        postulates = {
            key: {"status": str(rng.choice([PASS, FAIL, PROBES_PASS, INDETERMINATE]))}
            for key in ("P1", "P2", "P3", "P3C", "P4", "P4prime")
        }
        report = PostulateReport(
            theory="t",
            partner=None,
            rule="min",
            seed=int(rng.integers(0, 100)),
            tolerance=1e-9,
            metrics=metrics,
            postulates=postulates,
        )
        assert report_parse(report_render(report, format="json")) == report


def test_render_rejects_unknown_format():
    report = check_postulates(CLASSICAL3, seed=0)
    with pytest.raises(ValidationError):
        report_render(report, format="yaml")


def test_dump_json_float_precision():
    x = 0.1 + 0.2  # 0.30000000000000004
    out = dump_json({"v": x})
    assert json.loads(out)["v"] == x


def test_theory_json_loading(tmp_path):
    path = tmp_path / "theory.json"
    path.write_text(json.dumps({"name": "q2", "space": {"family": "quantum", "N": 2}}))
    td = load_theory(str(path))
    assert td.name == "q2"
    assert build_space(td).ambient_dim == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_theory(str(bad))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("td, code, message", [
    (NEAR_DUPLICATE, 0, ""),
    (EXACT_DUPLICATE, 0, ""),
    (TESSERACT_AND_CENTRE, 2, "is a convex combination of the others"),
], ids=lambda v: getattr(v, "name", None))
def test_cli_check_on_json_polytopes_with_an_extra_row(tmp_path, capsys, td, code, message):
    theory = _write(tmp_path, "theory.json", {"name": td.name, "space": td.space_spec})
    assert cli_main(["check", theory]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    if code == 0:
        assert json.loads(captured.out)["postulates"]["P3"]["status"] == PASS


def test_cli_check_and_report(tmp_path, capsys):
    theory = _write(tmp_path, "q2.json", {"name": "q2", "space": {"family": "quantum", "N": 2}})
    code = cli_main(["check", theory, "--format", "json", "--seed", "0"])
    out1 = capsys.readouterr().out
    assert code == 0
    data = json.loads(out1)
    assert data["postulates"]["P3C"]["status"] == "pass"

    # determinism across invocations
    cli_main(["check", theory, "--format", "json", "--seed", "0"])
    assert capsys.readouterr().out == out1

    report_file = tmp_path / "report.json"
    report_file.write_text(out1)
    code = cli_main(["report", str(report_file), "--format", "md"])
    md = capsys.readouterr().out
    assert code == 0
    assert "| P1 | pass |" in md


def test_cli_capacity(tmp_path, capsys):
    theory = _write(tmp_path, "c4.json", {"name": "c4", "space": {"family": "classical", "N": 4}})
    code = cli_main(["capacity", theory])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["capacity"] == 4


def test_cli_past_the_capacity_vertex_budget(tmp_path, capsys):
    # a 70-gon with the identity as its "finite" group has more vertices than
    # the capacity search takes: a full report, P2 and N unknown, exit code 3
    n = 70
    assert n > discrimination.DEFAULT_VERTEX_BUDGET
    angles = 2 * np.pi * np.arange(n) / n
    corners = np.column_stack([np.ones(n), np.cos(angles), np.sin(angles)])
    theory = _write(tmp_path, "70-gon.json", {
        "name": "70-gon", "space": {"family": "polytope", "vertices": corners.tolist()},
        "group": {"kind": "finite", "matrices": [np.eye(3).tolist()]}})
    assert cli_main(["check", theory]) == 3
    report = json.loads(capsys.readouterr().out)
    assert sorted(report["postulates"]) == sorted(POSTULATE_KEYS)
    assert report["postulates"]["P2"] == {
        "status": INDETERMINATE, "reason": "capacity search budget exhausted"}
    assert (report["metrics"]["N"], report["metrics"]["capacity_exact"]) == (None, False)
    assert cli_main(["capacity", theory]) == 3
    assert json.loads(capsys.readouterr().out) == {
        "theory": "70-gon", "capacity": None, "exact": False, "lower_bound": 1}


def test_cli_compose_and_chsh(tmp_path, capsys):
    square = {"name": "square", "space": {"family": "square"}}
    a = _write(tmp_path, "a.json", square)
    b = _write(tmp_path, "b.json", square)
    out_file = str(tmp_path / "composite.json")
    code = cli_main(["compose", a, b, "--rule", "max", "--out", out_file])
    assert code == 0
    composite = json.loads(Path(out_file).read_text())
    assert len(composite["vertices"]) == 24

    x_meas = [[0.0, 1.0, 0.0], [1.0, -1.0, 0.0]]
    y_meas = [[0.0, 0.0, 1.0], [1.0, 0.0, -1.0]]
    settings = _write(tmp_path, "settings.json", {"A": [x_meas, y_meas], "B": [x_meas, y_meas]})
    code = cli_main(["chsh", out_file, "--settings", settings])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["chsh_max"] == pytest.approx(4.0, abs=1e-9)



def test_cli_chsh_rejects_settings_for_the_wrong_side(tmp_path, capsys):
    # classical(4) (x) square has K_A * K_B = 12 = K_B * K_A: settings given
    # for the wrong side must be refused, not evaluated
    bit4 = _write(tmp_path, "c4.json", {"name": "c4", "space": {"family": "classical", "N": 4}})
    square = _write(tmp_path, "square.json", {"name": "square", "space": {"family": "square"}})
    out_file = str(tmp_path / "composite.json")
    assert cli_main(["compose", bit4, square, "--rule", "min", "--out", out_file]) == 0
    bit_meas = [[0.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]]
    x_meas = [[0.0, 1.0, 0.0], [1.0, -1.0, 0.0]]
    y_meas = [[0.0, 0.0, 1.0], [1.0, 0.0, -1.0]]
    right = _write(tmp_path, "right.json", {"A": [bit_meas, bit_meas], "B": [x_meas, y_meas]})
    swapped = _write(tmp_path, "swapped.json", {"A": [x_meas, y_meas], "B": [bit_meas, bit_meas]})
    assert cli_main(["chsh", out_file, "--settings", right]) == 0
    assert json.loads(capsys.readouterr().out)["chsh_max"] == pytest.approx(2.0, abs=1e-12)
    assert cli_main(["chsh", out_file, "--settings", swapped]) == 2
    assert "error" in capsys.readouterr().err

def test_finite_group_override_for_family_space():
    td = TheoryDefinition(
        name="rigid-square",
        space_spec={"family": "square"},
        group_spec={"kind": "finite", "matrices": [np.eye(3).tolist()]},
    )
    space = build_space(td)
    assert space.group.order == 1
    report = check_postulates(td, seed=0)
    assert report.postulates["P3"]["status"] == FAIL  # identity-only group


def test_cli_chsh_single_state(tmp_path, capsys):
    square = {"name": "square", "space": {"family": "square"}}
    a = _write(tmp_path, "a.json", square)
    b = _write(tmp_path, "b.json", square)
    out_file = str(tmp_path / "composite.json")
    cli_main(["compose", a, b, "--rule", "max", "--out", out_file])
    capsys.readouterr()
    from gptlab.models import pr_box_state

    state = _write(tmp_path, "state.json", {"state": pr_box_state().tolist()})
    x_meas = [[0.0, 1.0, 0.0], [1.0, -1.0, 0.0]]
    y_meas = [[0.0, 0.0, 1.0], [1.0, 0.0, -1.0]]
    settings = _write(tmp_path, "settings.json", {"A": [x_meas, y_meas], "B": [x_meas, y_meas]})
    code = cli_main(["chsh", out_file, "--settings", settings, "--state", state])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["chsh"] == pytest.approx(4.0, abs=1e-12)

    # vectors outside the composite are refused: 3 x the PR box (CHSH 12) is
    # not normalized, and 2 PR - e_0 (CHSH 6) is normalized but leaves the
    # state set, above the no-signalling maximum of 4
    unit = np.eye(9)[0]
    for vector in (3.0 * pr_box_state(), 2.0 * pr_box_state() - unit):
        outside = _write(tmp_path, "outside.json", {"state": vector.tolist()})
        assert cli_main(["chsh", out_file, "--settings", settings, "--state", outside]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err


@pytest.mark.parametrize("a, b", [({"family": "ball", "d": 2}, {"family": "ball", "d": 2}),
                                  ({"family": "quantum", "N": 2}, {"family": "square"})],
                         ids=["ball(2)|ball(2)", "quantum(2)|square"])
def test_cli_compose_of_a_part_without_a_vertex_list_is_unsupported(tmp_path, capsys, a, b):
    # no budget runs out: such a composite has no vertex list to write
    path_a = _write(tmp_path, "a.json", {"name": "a", "space": a})
    path_b = _write(tmp_path, "b.json", {"name": "b", "space": b})
    assert cli_main(["compose", path_a, path_b, "--rule", "max"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: composite has no finite vertex list" in captured.err


def test_cli_chsh_rejects_a_composite_whose_rule_or_dimensions_are_not_its_parts(tmp_path,
                                                                                capsys):
    square = _write(tmp_path, "square.json", {"name": "square", "space": {"family": "square"}})
    good = str(tmp_path / "composite.json")
    assert cli_main(["compose", square, square, "--rule", "max", "--out", good]) == 0
    composite = json.loads(Path(good).read_text())
    x_meas = [[0.0, 1.0, 0.0], [1.0, -1.0, 0.0]]
    settings = _write(tmp_path, "settings.json", {"A": [x_meas, x_meas], "B": [x_meas, x_meas]})
    assert cli_main(["chsh", good, "--settings", settings]) == 0
    capsys.readouterr()
    bad = [
        ("rule", "bogus", "composite rule must be 'min' or 'max'"),
        ("rule", None, "composite rule must be 'min' or 'max'"),
        ("k_a", 99, "composite k_a, k_b must be its parts' dimensions (3, 3)"),
        ("k_b", 1, "composite k_a, k_b must be its parts' dimensions (3, 3)"),
    ]
    for i, (key, value, message) in enumerate(bad):
        path = _write(tmp_path, f"bad{i}.json", dict(composite, **{key: value}))
        assert cli_main(["chsh", path, "--settings", settings]) == 2, (key, value)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_a_reloaded_composite_is_validated_by_its_facets(tmp_path, capsys, monkeypatch):
    # the no-signalling polytope from `compose --out` gets its 16 facets
    # when it is reloaded and validates with no LP; with its centroid added
    # it is refused as before
    square = _write(tmp_path, "square.json", {"name": "square", "space": {"family": "square"}})
    good = str(tmp_path / "ns.json")
    assert cli_main(["compose", square, square, "--rule", "max", "--out", good]) == 0
    composite = json.loads(Path(good).read_text())
    x_meas = [[0.0, 1.0, 0.0], [1.0, -1.0, 0.0]]
    settings = _write(tmp_path, "settings.json", {"A": [x_meas, x_meas], "B": [x_meas, x_meas]})
    capsys.readouterr()
    solved = []
    solve = lp_engine.lp_solve

    def counting_solve(*args, **kwargs):
        solved.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp_engine, "lp_solve", counting_solve)
    assert cli._composite_from_dict(composite).space.rep.facets.shape == (16, 9)
    assert cli_main(["chsh", good, "--settings", settings]) == 0
    assert solved == []
    verts = np.array(composite["vertices"])
    centred = dict(composite, vertices=[*composite["vertices"], verts.mean(axis=0).tolist()])
    assert cli_main(["chsh", _write(tmp_path, "centred.json", centred),
                     "--settings", settings]) == 2
    assert "is a convex combination of the others" in capsys.readouterr().err


def test_cli_compose_to_stdout(tmp_path, capsys):
    bit = {"name": "bit", "space": {"family": "classical", "N": 2}}
    a = _write(tmp_path, "a.json", bit)
    code = cli_main(["compose", a, a, "--rule", "min"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 4


def test_cli_determinism_across_processes(tmp_path):
    import subprocess
    import sys

    theory = _write(tmp_path, "c3.json", {"name": "c3", "space": {"family": "classical", "N": 3}})
    cmd = [sys.executable, "-m", "gptlab.cli", "check", theory, "--seed", "7"]
    runs = [subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.strip()


def test_cli_validation_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli_main(["check", str(bad)]) == 2
    capsys.readouterr()
    missing = str(tmp_path / "missing.json")
    assert cli_main(["capacity", missing]) == 2
    capsys.readouterr()
    wrong = _write(tmp_path, "wrong.json", {"name": "x", "space": {"family": "nope"}})
    assert cli_main(["check", wrong]) == 2
    capsys.readouterr()
    # an allowed effect outside [0, 1]: (1, 1, 0) is 2 on the square's vertex (1, 1, 1)
    outside = _write(tmp_path, "outside.json", {"space": {"family": "square"},
                                                "allowed_effects": [[1.0, 1.0, 0.0]]})
    for command in ("check", "capacity"):
        assert cli_main([command, outside]) == 2
        assert "allowed effect outside [0, 1]" in capsys.readouterr().err

    # composite JSON handed to `chsh` is validated like a theory file
    square = _write(tmp_path, "square.json", {"name": "square", "space": {"family": "square"}})
    good = str(tmp_path / "composite.json")
    assert cli_main(["compose", square, square, "--rule", "max", "--out", good]) == 0
    composite = json.loads(Path(good).read_text())
    x_meas = [[0.0, 1.0, 0.0], [1.0, -1.0, 0.0]]
    y_meas = [[0.0, 0.0, 1.0], [1.0, 0.0, -1.0]]
    settings = _write(tmp_path, "settings.json", {"A": [x_meas, y_meas], "B": [x_meas, y_meas]})
    scaled = dict(composite, vertices=(3.0 * np.array(composite["vertices"])).tolist())
    narrow = dict(composite, vertices=[row[:-1] for row in composite["vertices"]])
    for name, payload in (("scaled.json", scaled), ("narrow.json", narrow)):
        assert cli_main(["chsh", _write(tmp_path, name, payload), "--settings", settings]) == 2
    capsys.readouterr()

    # theory JSON of the wrong shape: no traceback, no silent truncation
    shapes = [
        {"space": {"family": "square"}, "group": 5},
        {"space": 5},
        {"space": [{"family": "square"}]},
        {"space": {"family": "polytope", "vertices": []}},
        {"space": {"family": "polytope", "vertices": [[]]}},
        {"space": {"family": "polytope", "vertices": {"a": 1}}},
        {"space": {"family": "polytope"}},
        {"space": {"family": "classical", "N": 2.5}},
        {"space": {"family": "classical", "N": True}},
        {"space": {"family": "quantum", "N": "2"}},
        {"space": {"family": "ball"}},
        {"space": {"family": "square"}, "group": {"kind": "finite"}},
        {"space": {"family": "square"}, "group": {"kind": "finite", "matrices": {"a": 1}}},
        {"space": {"family": "square"}, "allowed_effects": {"a": 1}},
    ]
    for i, payload in enumerate(shapes):
        with pytest.raises(ValidationError):
            build_space(theory_from_dict(payload))
        assert cli_main(["check", _write(tmp_path, f"shape{i}.json", payload)]) == 2, payload
    capsys.readouterr()

    # NaN and Infinity, which Python's json reads, are not numbers of a theory
    square_verts = [[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]]
    for bad in (float("nan"), float("inf")):
        corner = [[1.0, bad, 0.0]] + square_verts[1:]
        payloads = [
            {"space": {"family": "polytope", "vertices": corner}},
            {"space": {"family": "square"},
             "group": {"kind": "finite", "matrices": [np.diag([1.0, 1.0, bad]).tolist()]}},
            {"space": {"family": "square"}, "allowed_effects": [[0.5, bad, 0.0]]},
        ]
        for i, payload in enumerate(payloads):
            with pytest.raises(ValidationError, match="finite"):
                build_space(theory_from_dict(payload))
            path = _write(tmp_path, f"nonfinite{i}.json", payload)
            assert cli_main(["check", path]) == 2, payload
            assert cli_main(["capacity", path]) == 2, payload
        bad_vertices = [list(row) for row in composite["vertices"]]
        bad_vertices[0][1] = bad
        bad_composite = _write(tmp_path, "bad_composite.json", dict(composite, vertices=bad_vertices))
        assert cli_main(["chsh", bad_composite, "--settings", settings]) == 2
        bad_meas = [[0.0, bad, 0.0], [1.0, -bad, 0.0]]
        bad_settings = _write(tmp_path, "bad_settings.json",
                              {"A": [bad_meas, y_meas], "B": [x_meas, y_meas]})
        assert cli_main(["chsh", good, "--settings", bad_settings]) == 2
        bad_state = _write(tmp_path, "bad_state.json", {"state": [1.0, bad] + [0.0] * 7})
        assert cli_main(["chsh", good, "--settings", settings, "--state", bad_state]) == 2
        assert "finite" in capsys.readouterr().err
    capsys.readouterr()

    # unreadable input and unwritable output
    assert cli_main(["check", str(tmp_path)]) == 2
    out = str(tmp_path / "missing" / "x.json")
    assert cli_main(["compose", square, square, "--rule", "min", "--out", out]) == 2
    capsys.readouterr()


def _cross_polytope(d):
    return [[1.0] + [float(s) if j == i else 0.0 for j in range(d)]
            for i in range(d) for s in (-1, 1)]


def test_cli_budget_exit_code(tmp_path, capsys):
    # the 7-cross's symmetry search needs 1,063,931 nodes, past the node budget
    theory = _write(tmp_path, "poly.json",
                    {"name": "7-cross", "space": {"family": "polytope", "vertices": _cross_polytope(7)}})
    code = cli_main(["check", theory])
    capsys.readouterr()
    assert code == 3


def test_cli_capacity_searches_no_group_at_load(tmp_path, capsys):
    # the load-time group search that makes `check` exit 3 on the 7-cross is
    # skipped: the capacity search stops at ⌊β⌋ = 2 before it needs a group
    theory = _write(tmp_path, "poly.json",
                    {"name": "7-cross", "space": {"family": "polytope", "vertices": _cross_polytope(7)}})
    code = cli_main(["capacity", theory])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (out["capacity"], out["exact"], out["lower_bound"]) == (2, True, 2)
    # a loaded finite group is still checked against the vertices
    stretch = np.diag([1.0, 2.0] + [1.0] * 6)[None].tolist()
    theory = _write(tmp_path, "bad-group.json",
                    {"name": "7-cross", "space": {"family": "polytope", "vertices": _cross_polytope(7)},
                     "group": {"kind": "finite", "matrices": stretch}})
    assert cli_main(["capacity", theory]) == 2
    capsys.readouterr()


_ANGLES_18 = 2 * np.pi * np.arange(18) / 18
POLYTOPES_PAST_16_VERTICES = {
    "18-gon": np.column_stack([np.ones(18), np.cos(_ANGLES_18), np.sin(_ANGLES_18)]).tolist(),
    "5-cube": [[1.0, *map(float, signs)] for signs in product([-1, 1], repeat=5)],
}


def _full_report(out):
    report = json.loads(out)
    assert set(report["postulates"]) == set(POSTULATE_KEYS)
    assert not PostulateReport.from_dict(report).any_budget_exhausted
    return report


@pytest.mark.parametrize("name", POLYTOPES_PAST_16_VERTICES)
def test_a_polytope_past_16_vertices_gets_a_full_report(tmp_path, capsys, name):
    # the node budget is the only bound on the group search, and it admits
    # the 36 symmetries of the 18-gon and the 3,840 of the 5-cube
    theory = _write(tmp_path, f"{name}.json", {"name": name, "space": {
        "family": "polytope", "vertices": POLYTOPES_PAST_16_VERTICES[name]}})
    for rule in ("min", "max"):
        assert cli_main(["check", theory, "--rule", rule]) == 0
        report = _full_report(capsys.readouterr().out)
        assert (report["metrics"]["N"], report["metrics"]["capacity_exact"]) == (2, True)
        assert report["postulates"]["P3"] == {"status": PASS}
    assert cli_main(["capacity", theory]) == 0
    assert json.loads(capsys.readouterr().out)["capacity"] == 2


def test_the_no_signalling_polytope_checks_as_a_theory(tmp_path, capsys):
    ns = compose(square_gbit(), square_gbit(), "max").space
    theory = _write(tmp_path, "ns.json", {"name": "NS", "space": {
        "family": "polytope", "vertices": vertices_of(ns).tolist()}})
    for rule in ("min", "max"):
        assert cli_main(["check", theory, "--rule", rule]) == 0
        report = _full_report(capsys.readouterr().out)
        assert (report["metrics"]["N"], report["metrics"]["capacity_exact"]) == (4, True)
        # no symmetry of the 24 vertices takes a product vertex to a PR box
        assert report["postulates"]["P3"] == {"status": FAIL, "witness": {
            "stranded_state": [1.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.0, 0.5]}}


@pytest.mark.parametrize("space, k", [({"family": "quantum", "N": 2}, 4),
                                      ({"family": "ball", "d": 2}, 3)],
                         ids=["quantum(2)", "ball(2)"])
def test_a_finite_group_on_a_space_without_vertex_list_fails_at_load(tmp_path, capsys, space, k):
    # P3 reads a finite group as permutations of a vertex list, so a space
    # without one is refused when it is loaded, before any probe runs
    payload = {"name": "x", "space": space,
               "group": {"kind": "finite", "matrices": [np.eye(k).tolist()]}}
    message = f"group kind 'finite' needs a vertex list, and this {space['family']} space"
    with pytest.raises(ValidationError, match=message):
        build_space(theory_from_dict(payload))
    assert cli_main(["check", _write(tmp_path, "finite.json", payload)]) == 2
    assert message in capsys.readouterr().err
    # ball(1) has its two endpoints: a finite group loads and the check runs
    flips = [np.eye(2).tolist(), np.diag([1.0, -1.0]).tolist()]
    segment = {"name": "segment", "space": {"family": "ball", "d": 1},
               "group": {"kind": "finite", "matrices": flips}}
    assert build_space(theory_from_dict(segment)).group is not None
    assert cli_main(["check", _write(tmp_path, "segment.json", segment)]) == 0


def test_a_finite_group_that_does_not_permute_the_vertices_fails_at_load(tmp_path, capsys):
    # diag(1, 2, 1) sends the square's vertex (1, 1, 0) to (1, 2, 0), which
    # is no vertex; capacity, which reads the group's permutations, must not
    # run on it any more than P3
    payload = {"name": "stretched", "space": {"family": "square"},
               "group": {"kind": "finite", "matrices": [np.diag([1.0, 2.0, 1.0]).tolist()]}}
    message = "group element does not permute the vertex set"
    with pytest.raises(ValidationError, match=message):
        build_space(theory_from_dict(payload))
    path = _write(tmp_path, "stretched.json", payload)
    for command in ("capacity", "check"):
        assert cli_main([command, path]) == 2, command
        assert message in capsys.readouterr().err


def test_cli_exit_code_3_needs_a_budget_to_run_out(tmp_path, capsys):
    # P2 on the triangle is indeterminate for want of a reference space, not a budget
    triangle = {"name": "triangle", "space": {"family": "polytope",
                                               "vertices": [[1, 0, 0], [1, 1, 0], [1, 0, 1]]}}
    assert cli_main(["check", _write(tmp_path, "triangle.json", triangle)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["postulates"]["P2"] == {
        "status": INDETERMINATE, "reason": "no reference state space of capacity N-1"
    }

    def report_with(entry):
        postulates = {key: {"status": PROBES_PASS} for key in POSTULATE_KEYS}
        postulates["P2"] = entry
        return PostulateReport("t", None, "min", 0, 1e-9, {}, postulates)

    assert report_with({"status": INDETERMINATE, "reason": runner.CAPACITY_EXHAUSTED}).any_budget_exhausted
    assert report_with({"status": INDETERMINATE,
                        "reason": "budget exhausted: 18 vertices"}).any_budget_exhausted
    assert not report_with({"status": INDETERMINATE,
                            "reason": "no reference state space of capacity N-1"}).any_budget_exhausted
    assert not report_with({"status": INDETERMINATE}).any_budget_exhausted


@pytest.mark.parametrize(
    "spec",
    [{"family": "ball", "d": 3}, {"family": "quantum", "N": 2},
     {"family": "quantum", "N": 3}, {"family": "classical", "N": 5}],
    ids=["ball(3)", "quantum(2)", "quantum(3)", "classical(5)"],
)
def test_p2_and_p4_prime_on_balls_and_quantum_systems_sample_no_state(monkeypatch, spec):
    # P2 by theorem: every proper exposed face of a ball is one point, every
    # face of quantum(N) is quantum(m) and every face of a simplex is a
    # simplex, so no face is extracted.  P4': every pure state has an
    # antipodal or orthogonal partner.
    def no_sampling(*args, **kwargs):
        raise AssertionError("pure state sampled")

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return face_extract(*args, **kwargs)

    monkeypatch.setattr(runner, "sample_pure_state", no_sampling, raising=False)
    monkeypatch.setattr(runner, "face_extract", counting, raising=False)
    monkeypatch.setattr(symmetry, "face_extract", counting)
    report = check_postulates(TheoryDefinition(name="t", space_spec=spec), seed=0)
    assert report.postulates["P2"] == {"status": PROBES_PASS}
    assert report.postulates["P4prime"] == {"status": PASS}
    assert calls == []


@pytest.mark.parametrize("spec", [{"family": "classical", "N": 5}, {"family": "quantum", "N": 3}],
                         ids=["classical(5)", "quantum(3)"])
def test_check_postulates_computes_capacity_once(monkeypatch, spec):
    # the checker's one capacity result feeds P2, P4' and the metrics; no
    # probe computes the capacity of a face or a reference space again
    calls = []

    def counting(space, *args, **kwargs):
        calls.append(space.name)
        return capacity(space, *args, **kwargs)

    monkeypatch.setattr(runner, "capacity", counting)
    monkeypatch.setattr(symmetry, "capacity", counting)
    check_postulates(TheoryDefinition(name="t", space_spec=spec), seed=0)
    assert len(calls) == 1


CORPUS_POLYTOPES = ["square"] + [f"{n}-gon" for n in range(3, 13)] + [
    "cube", "octahedron", "tesseract"]


@pytest.mark.parametrize("rule", ["min", "max"])
@pytest.mark.parametrize("name", CORPUS_POLYTOPES)
def test_a_check_derives_the_vertex_group_once(monkeypatch, name, rule):
    # build_space searches the group once; P3 and capacity read the
    # permutations it keeps instead of recovering or searching them again.
    # Each name is counted where its module binds it.
    calls = []

    def count(module, attr):
        fn = getattr(module, attr)

        def counting(*args, **kwargs):
            calls.append(attr)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)

    for module in (geometry, symmetry, discrimination):
        count(module, "vertex_symmetries")
    for module in (symmetry, runner):
        count(module, "_vertex_table")
    count(discrimination, "_vertex_permutations")
    check_postulates(load_theory(str(ROOT / "perfbench" / "corpus" / f"{name}.json")), rule=rule)
    assert calls == ["vertex_symmetries"]


@pytest.mark.parametrize("n", range(1, 7))
def test_a_classical_check_matches_no_matrix_against_the_vertices(monkeypatch, n):
    # S_n is transitive by theorem, with the transpositions as witnesses
    def refuse(*args, **kwargs):
        raise AssertionError("a group matrix was matched against the vertices")

    for module in (geometry, symmetry):
        monkeypatch.setattr(module, "vertex_permutation", refuse)
    for rule in ("min", "max"):
        report = check_postulates(TheoryDefinition(
            name="c", space_spec={"family": "classical", "N": n}), rule=rule)
        assert report.postulates["P3"] == {"status": PASS}


def test_finite_group_of_the_wrong_size_is_a_validation_error(tmp_path, capsys):
    # a 2 x 2 matrix cannot act on a K = 3 space; this used to fail later,
    # inside P3, with a numpy shape error
    identity2 = {"kind": "finite", "matrices": [np.eye(2).tolist()]}
    specs = {
        "square": {"family": "square"},
        "classical3": {"family": "classical", "N": 3},
        "triangle": {"family": "polytope", "vertices": PENTAGON_CORNERS[:3].tolist()},
    }
    for name, spec in specs.items():
        with pytest.raises(ValidationError, match=r"\(M, 3, 3\)"):
            build_space(TheoryDefinition(name=name, space_spec=spec, group_spec=identity2))
        theory = _write(tmp_path, f"{name}.json", {"name": name, "space": spec, "group": identity2})
        assert cli_main(["check", theory]) == 2
        assert "(M, 3, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1.0])
def test_a_per_call_tolerance_that_is_not_positive_and_finite_is_rejected(value):
    # unchecked, -1 gives N = 1 and a trivial P2, inf N = 4, and nan a
    # report that the renderer refuses
    with pytest.raises(ValueError, match="positive and finite"):
        check_postulates(TheoryDefinition(name="square", space_spec={"family": "square"}),
                         tol=value)
    assert get_tol() == DEFAULT_TOL


def test_cli_tol_sets_the_report_tolerance_for_one_run(tmp_path, capsys):
    theory = _write(tmp_path, "c3.json", {"name": "c3", "space": {"family": "classical", "N": 3}})
    assert cli_main(["--tol", "1e-6", "check", theory]) == 0
    assert '"tolerance": 9.9999999999999995e-07' in capsys.readouterr().out
    assert get_tol() == DEFAULT_TOL


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1e-9"])
def test_cli_rejects_a_tolerance_that_is_not_positive_and_finite(tmp_path, capsys, value):
    square = _write(tmp_path, "sq.json", {"name": "square", "space": {"family": "square"}})
    assert cli_main([f"--tol={value}", "check", square]) == 2
    assert "tolerance must be positive and finite" in capsys.readouterr().err
    assert get_tol() == DEFAULT_TOL
    with pytest.raises(ValueError, match="positive and finite"):
        set_tol(float(value))
