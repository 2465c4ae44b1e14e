"""LP engine: spec examples, random constructed-feasible systems and the shared membership and distinguishability LPs against HiGHS."""

from itertools import combinations

import numpy as np
import pytest

from gptlab.composites import compose
from gptlab.convex import PolytopeRep, StateSpace, cone_contains, unit_effect_vector, vertices_of
from gptlab.discrimination import distinguishable_unchecked, verify_witness
from gptlab.models import square_gbit
from gptlab.lp import OPTIMAL, UNBOUNDED, LinearProgram, lp_feasible, lp_solve


def test_box_maximum():
    prog = LinearProgram(objective=np.array([1.0]), bounds=np.array([[0.0, 1.0]]))
    sol = lp_solve(prog)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-12)


def test_simplex_face_maximum():
    prog = LinearProgram(
        objective=np.array([1.0, 1.0]),
        a_ub=[[1.0, 1.0]],
        b_ub=[1.0],
        bounds=np.array([[0.0, np.inf], [0.0, np.inf]]),
    )
    sol = lp_solve(prog)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(1.0, abs=1e-12)


def test_contradictory_bounds_infeasible():
    prog = LinearProgram(objective=np.array([0.0]), a_ub=[[-1.0], [1.0]], b_ub=[-2.0, 1.0])
    feasible, point = lp_feasible(prog)
    assert not feasible
    assert point is None


def test_empty_constraints_bounded_var_feasible():
    prog = LinearProgram(objective=np.array([0.0]), bounds=np.array([[-3.0, 7.0]]))
    feasible, point = lp_feasible(prog)
    assert feasible
    assert -3.0 - 1e-9 <= point[0] <= 7.0 + 1e-9


def test_unbounded():
    prog = LinearProgram(objective=np.array([1.0]), bounds=np.array([[0.0, np.inf]]))
    assert lp_solve(prog).status == UNBOUNDED


def test_no_constraint_rows_optimal_at_bound():
    # maximize -x subject to x >= 0 only: no constraint row reaches the simplex
    prog = LinearProgram(objective=np.array([-1.0]), bounds=np.array([[0.0, np.inf]]))
    sol = lp_solve(prog)
    assert sol.status == OPTIMAL
    assert sol.value == 0.0


def test_antipodal_ball_distinguishing_effect_exists():
    # feasibility of {E : E(omega_i) = delta_ij} for antipodal ball states,
    # with the effect cone approximated by state-nonnegativity at the poles
    # and the coordinate axes; the exact witness E = (1/2, n/2) must appear.
    d = 3
    north = np.array([1.0, 1.0, 0.0, 0.0])
    south = np.array([1.0, -1.0, 0.0, 0.0])
    cuts = [north, south]
    for axis in range(1, d + 1):
        for sign in (1.0, -1.0):
            v = np.zeros(d + 1)
            v[0] = 1.0
            v[axis] = sign
            cuts.append(v)
    cuts = np.array(cuts)
    # variables: one effect f; the complement 1-f must also be nonnegative
    unit = np.zeros(d + 1)
    unit[0] = 1.0
    prog = LinearProgram(
        objective=np.zeros(d + 1),
        a_eq=np.vstack([north, south]),
        b_eq=np.array([1.0, 0.0]),
        a_ub=np.vstack([-cuts, cuts]),
        b_ub=np.concatenate([np.zeros(len(cuts)), np.ones(len(cuts))]),
    )
    feasible, f = lp_feasible(prog)
    assert feasible
    assert f @ north == pytest.approx(1.0, abs=1e-9)
    assert f @ south == pytest.approx(0.0, abs=1e-9)


def test_identical_states_delta_system_infeasible():
    omega = np.array([1.0, 0.3, 0.4])
    prog = LinearProgram(
        objective=np.zeros(3),
        a_eq=np.vstack([omega, omega]),
        b_eq=np.array([1.0, 0.0]),
    )
    feasible, _ = lp_feasible(prog)
    assert not feasible


def test_optimal_points_are_rechecked_by_substitution(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        x0 = rng.normal(size=n)
        a_eq = rng.normal(size=(int(rng.integers(0, 3)), n))
        a_ub = rng.normal(size=(int(rng.integers(1, 6)), n))
        prog = LinearProgram(
            objective=rng.normal(size=n),
            a_eq=a_eq,
            b_eq=a_eq @ x0,
            a_ub=a_ub,
            b_ub=a_ub @ x0 + rng.uniform(0.05, 2.0, size=a_ub.shape[0]),
            bounds=np.column_stack(
                [x0 - rng.uniform(0.5, 3.0, size=n), x0 + rng.uniform(0.5, 3.0, size=n)]
            ),
        )
        sol = lp_solve(prog)
        assert sol.status == OPTIMAL
        assert sol.max_residual <= 1e-9


def test_constructed_feasible_systems_always_found_feasible(rng):
    hits = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        x0 = rng.normal(size=n)
        a_ub = rng.normal(size=(int(rng.integers(1, 8)), n))
        prog = LinearProgram(
            objective=np.zeros(n),
            a_ub=a_ub,
            b_ub=a_ub @ x0 + rng.uniform(0.0, 1.0, size=a_ub.shape[0]),
        )
        feasible, point = lp_feasible(prog)
        if feasible and np.all(a_ub @ point <= prog.b_ub + 1e-9):
            hits += 1
    assert hits == 100


def test_degenerate_lp_terminates():
    # many redundant constraints through one vertex: Bland's rule must not cycle
    n = 4
    a_ub = np.vstack([np.eye(n), np.ones((1, n)), 2 * np.ones((1, n)), np.eye(n)])
    b_ub = np.zeros(a_ub.shape[0])
    prog = LinearProgram(
        objective=np.ones(n),
        a_ub=a_ub,
        b_ub=b_ub,
        bounds=np.column_stack([np.full(n, -1.0), np.full(n, 1.0)]),
    )
    sol = lp_solve(prog)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(0.0, abs=1e-9)


def test_dimension_validation():
    with pytest.raises(ValueError):
        LinearProgram(objective=np.array([1.0, 2.0]), a_eq=[[1.0]], b_eq=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(objective=np.array([1.0]), bounds=np.array([[2.0, 1.0]]))


# ---------------------------------------------------------------------------
# Differential test against scipy's HiGHS (a test-only oracle)
# ---------------------------------------------------------------------------

def _highs_feasible(a_eq, b_eq, a_ub=None, b_ub=None, bounds=(None, None)) -> bool:
    """HiGHS feasibility verdict; "infeasible" and "unbounded" are one class,
    since HiGHS may report either for an infeasible system."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = linprog(np.zeros(a_eq.shape[1]), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    assert res.status in (0, 2, 3), res.message
    return res.status == 0


def test_cone_lp_matches_highs():
    # small integer data keeps every instance well-posed: a target outside
    # the cone is separated from it by a margin far above the tolerance
    rng = np.random.default_rng(20120321)
    verdicts = []
    for _ in range(200):
        n, k = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        rows = rng.integers(-3, 4, size=(n, k)).astype(float)
        target = rng.integers(-1, 3, size=n) @ rows
        ours = cone_contains(rows, target, 1e-9)
        assert ours == _highs_feasible(rows.T, target, bounds=(0, None)), (rows, target)
        verdicts.append(ours)
    assert 40 <= sum(verdicts) <= 160  # both answers are exercised


def test_variables_bounded_on_one_side_match_highs():
    # a variable bounded above only is rewritten as x = hi - u with u >= 0;
    # others are bounded below only, on both sides, or free
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(20120323)
    optimal = 0
    for _ in range(150):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        kind = rng.integers(4, size=n)  # 0: upper only, 1: lower only, 2: both, 3: free
        kind[0] = 0
        lo = rng.integers(-3, 1, size=n).astype(float)
        hi = lo + rng.integers(0, 4, size=n)
        lo[(kind == 0) | (kind == 3)] = -np.inf
        hi[(kind == 1) | (kind == 3)] = np.inf
        prog = LinearProgram(
            objective=rng.integers(-3, 4, size=n).astype(float),
            a_ub=rng.integers(-3, 4, size=(m, n)).astype(float),
            b_ub=rng.integers(-2, 5, size=m).astype(float),
            bounds=np.column_stack([lo, hi]),
        )
        sol = lp_solve(prog)
        res = linprog(-prog.objective, A_ub=prog.a_ub, b_ub=prog.b_ub, method="highs",
                      bounds=[(None if np.isinf(a) else a, None if np.isinf(b) else b)
                              for a, b in zip(lo, hi)])
        assert res.status in (0, 2, 3), res.message
        # HiGHS may call an infeasible system unbounded, so those are one class
        assert (sol.status == OPTIMAL) == (res.status == 0), prog
        if sol.status == OPTIMAL:
            assert sol.value == pytest.approx(-res.fun, abs=1e-7), prog
            assert np.all(sol.point[kind == 0] <= hi[kind == 0] + 1e-9)
            optimal += 1
    assert 30 <= optimal <= 120  # both classes are exercised


def _distinguishability_matches_highs(space, states) -> bool:
    """Our verdict on ``states`` against HiGHS on the n-effect formulation; a
    witness must verify and its last effect must be exactly u minus the others."""
    witness = distinguishable_unchecked(space, states, 1e-9)
    verts = vertices_of(space)
    n, k = states.shape
    # variables E_1..E_n: sum_a E_a = unit, E_a(states_b) = delta_ab,
    # E_a(v) >= 0 on every listed point
    a_eq = np.vstack([np.kron(np.ones(n), np.eye(k)), np.kron(np.eye(n), states)])
    b_eq = np.concatenate([unit_effect_vector(k), np.eye(n).ravel()])
    a_ub = np.kron(np.eye(n), -verts)
    assert (witness is not None) == _highs_feasible(a_eq, b_eq, a_ub, np.zeros(len(a_ub))), states
    if witness is not None:
        effects = witness.measurement.effects
        assert effects.shape == (n, k)
        assert verify_witness(space, witness, 1e-9), states
        assert np.array_equal(effects[-1], unit_effect_vector(k) - effects[:-1].sum(axis=0))
    return witness is not None


def _with_a_midpoint(rng, verts, states):
    """Replace one state by the midpoint of two listed points: never a vertex."""
    a, b = rng.choice(len(verts), size=2, replace=False)
    states = states.copy()
    states[rng.integers(len(states))] = (verts[a] + verts[b]) / 2
    return states


def test_pair_distinguishability_lp_matches_highs():
    rng = np.random.default_rng(20120322)
    verdicts = []
    for _ in range(120):
        k = int(rng.integers(3, 5))
        points = np.unique(rng.integers(-2, 3, size=(int(rng.integers(k, k + 5)), k - 1)), axis=0)
        verts = np.column_stack([np.ones(len(points)), points]).astype(float)
        space = StateSpace(name="random", rep=PolytopeRep(verts))
        n = int(rng.integers(2, min(4, len(verts)) + 1))
        states = verts[rng.choice(len(verts), size=n, replace=False)]
        if rng.random() < 0.3:
            states = _with_a_midpoint(rng, verts, states)
        verdicts.append((n, _distinguishability_matches_highs(space, states)))
    for n in (2, 3, 4):  # both answers are exercised at every n
        assert {ok for size, ok in verdicts if size == n} == {False, True}, n


def _no_signalling_faces() -> list[StateSpace]:
    """The 16 eight-vertex faces of the no-signalling polytope: rank-deficient
    vertex lists (rank 6 in K = 9)."""
    sq = square_gbit()
    verts = vertices_of(compose(sq, sq, "max").space)
    positivity = np.array([[0.0, 1, 0], [1, -1, 0], [0, 0, 1], [1, 0, -1]])
    tight = np.abs(verts @ np.array([np.kron(f, g) for f in positivity
                                     for g in positivity]).T) <= 1e-9
    faces = [verts[tight[:, a] & tight[:, b]] for a, b in combinations(range(16), 2)]
    return [StateSpace(name="ns-face", rep=PolytopeRep(f)) for f in faces if len(f) == 8]


def test_distinguishability_lp_matches_highs_on_the_no_signalling_faces():
    rng = np.random.default_rng(20120323)
    faces = _no_signalling_faces()
    assert len(faces) == 16
    verdicts = []
    for face in faces:
        verts = vertices_of(face)
        for n in (2, 3, 4):
            states = verts[rng.choice(8, size=n, replace=False)]
            verdicts.append((n, _distinguishability_matches_highs(face, states)))
            states = _with_a_midpoint(rng, verts, states)
            verdicts.append((n, _distinguishability_matches_highs(face, states)))
    for n in (2, 3, 4):
        assert {ok for size, ok in verdicts if size == n} == {False, True}, n
