"""LP engine: spec examples, random constructed-feasible systems and the shared membership and distinguishability LPs against HiGHS."""

import signal
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from gptlab.composites import compose
from gptlab.convex import PolytopeRep, StateSpace, cone_contains, unit_effect_vector, vertices_of
from gptlab.discrimination import _polytope_distinguishable, distinguishable, verify_witness
from gptlab.models import square_gbit
from gptlab.lp import FEASIBLE, INFEASIBLE, LinearProgram, lp_feasible, lp_solve
from gptlab.runner import build_space, load_theory


def test_contradictory_bounds_infeasible():
    prog = LinearProgram(n_vars=1, a_ub=[[-1.0], [1.0]], b_ub=[-2.0, 1.0])
    feasible, point = lp_feasible(prog)
    assert not feasible
    assert point is None


def test_empty_constraints_bounded_var_feasible():
    # x >= 0 with no constraint row: no row reaches the simplex
    sol = lp_solve(LinearProgram(n_vars=3, nonneg=True))
    assert sol.status == FEASIBLE
    assert np.array_equal(sol.point, np.zeros(3))
    assert sol.iterations == 0


def test_no_constraint_rows_optimal_at_bound():
    # free variables with no constraint row: the point is the origin, where
    # each x_j = u_2j - u_2j+1 sits at the bound u = 0
    feasible, point = lp_feasible(LinearProgram(n_vars=2))
    assert feasible
    assert np.array_equal(point, np.zeros(2))


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
        n_vars=d + 1,
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
        n_vars=3,
        a_eq=np.vstack([omega, omega]),
        b_eq=np.array([1.0, 0.0]),
    )
    feasible, _ = lp_feasible(prog)
    assert not feasible


def test_optimal_points_are_rechecked_by_substitution(rng):
    for trial in range(100):
        n = int(rng.integers(2, 9))
        nonneg = trial % 2 == 1
        x0 = rng.uniform(0.0, 2.0, size=n) if nonneg else rng.normal(size=n)
        a_eq = rng.normal(size=(int(rng.integers(0, 3)), n))
        a_ub = rng.normal(size=(int(rng.integers(1, 6)), n))
        prog = LinearProgram(
            n_vars=n,
            a_eq=a_eq,
            b_eq=a_eq @ x0,
            a_ub=a_ub,
            b_ub=a_ub @ x0 + rng.uniform(0.05, 2.0, size=a_ub.shape[0]),
            nonneg=nonneg,
        )
        sol = lp_solve(prog)
        assert sol.status == FEASIBLE
        assert sol.max_residual <= 1e-9
        assert not nonneg or np.all(sol.point >= 0.0)


def test_constructed_feasible_systems_always_found_feasible(rng):
    hits = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        x0 = rng.normal(size=n)
        a_ub = rng.normal(size=(int(rng.integers(1, 8)), n))
        prog = LinearProgram(
            n_vars=n,
            a_ub=a_ub,
            b_ub=a_ub @ x0 + rng.uniform(0.0, 1.0, size=a_ub.shape[0]),
        )
        feasible, point = lp_feasible(prog)
        if feasible and np.all(a_ub @ point <= prog.b_ub + 1e-9):
            hits += 1
    assert hits == 100


def test_degenerate_lp_terminates():
    # many redundant constraints through one vertex, reached through an
    # equality row that needs an artificial: the pivot rule must not cycle
    n = 4
    a_ub = np.vstack([np.eye(n), np.ones((1, n)), 2 * np.ones((1, n)), np.eye(n),
                      -np.eye(n)])
    b_ub = np.concatenate([np.zeros(3 * n - 2), np.ones(n)])
    prog = LinearProgram(n_vars=n, a_eq=np.ones((1, n)), b_eq=[0.0], a_ub=a_ub, b_ub=b_ub)
    sol = lp_solve(prog)
    assert sol.status == FEASIBLE
    assert sol.iterations > 0
    assert sol.max_residual <= 1e-12


def test_dimension_validation():
    with pytest.raises(ValueError):
        LinearProgram(n_vars=2, a_eq=[[1.0]], b_eq=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(n_vars=1, a_ub=[[1.0]], b_ub=[1.0, 2.0])


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


def test_free_and_nonnegative_systems_match_highs():
    # random integer systems with equality and inequality rows; every other
    # system has nonnegative variables, the rest free ones
    rng = np.random.default_rng(20120323)
    verdicts = []
    for trial in range(150):
        n, m_eq, m_ub = int(rng.integers(1, 5)), int(rng.integers(0, 3)), int(rng.integers(1, 5))
        nonneg = trial % 2 == 1
        prog = LinearProgram(
            n_vars=n,
            a_eq=rng.integers(-3, 4, size=(m_eq, n)).astype(float),
            b_eq=rng.integers(-2, 3, size=m_eq).astype(float),
            a_ub=rng.integers(-3, 4, size=(m_ub, n)).astype(float),
            b_ub=rng.integers(-2, 5, size=m_ub).astype(float),
            nonneg=nonneg,
        )
        sol = lp_solve(prog)
        highs = _highs_feasible(prog.a_eq, prog.b_eq, prog.a_ub, prog.b_ub,
                                bounds=(0, None) if nonneg else (None, None))
        assert (sol.status == FEASIBLE) == highs, prog
        if sol.status == FEASIBLE:
            assert sol.max_residual <= 1e-9, prog
            assert not nonneg or np.all(sol.point >= 0.0), prog
        else:
            assert sol.status == INFEASIBLE and sol.point is None
        verdicts.append((nonneg, highs))
    for nonneg in (False, True):  # both answers are exercised for both sign choices
        assert {ok for sign, ok in verdicts if sign == nonneg} == {False, True}, nonneg


def _distinguishability_matches_highs(space, states) -> bool:
    """The vertex LP's verdict on ``states``, and the public route's (the
    cone test where the space has facets), against HiGHS on the n-effect
    formulation; each witness must verify and its last effect must be
    exactly u minus the others."""
    verts = vertices_of(space)
    n, k = states.shape
    # variables E_1..E_n: sum_a E_a = unit, E_a(states_b) = delta_ab,
    # E_a(v) >= 0 on every listed point
    a_eq = np.vstack([np.kron(np.ones(n), np.eye(k)), np.kron(np.eye(n), states)])
    b_eq = np.concatenate([unit_effect_vector(k), np.eye(n).ravel()])
    a_ub = np.kron(np.eye(n), -verts)
    highs = _highs_feasible(a_eq, b_eq, a_ub, np.zeros(len(a_ub)))
    for witness in (_polytope_distinguishable(space, states, 1e-9),
                    distinguishable(space, states, 1e-9)):
        assert (witness is not None) == highs, states
        if witness is not None:
            effects = witness.measurement.effects
            assert effects.shape == (n, k)
            assert verify_witness(space, witness, 1e-9), states
            assert np.array_equal(effects[-1], unit_effect_vector(k) - effects[:-1].sum(axis=0))
    return highs


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


@pytest.fixture(scope="module")
def pentagon_pair() -> StateSpace:
    """max(5-gon, 5-gon) of the corpus 5-gon: 135 vertices in K = 9."""
    pentagon = build_space(load_theory(
        str(Path(__file__).resolve().parents[1] / "perfbench" / "corpus" / "5-gon.json")))
    return compose(pentagon, pentagon, "max").space


# Five product vertices of max(5-gon, 5-gon) that are perfectly
# distinguishable: Shannon's zero-error code for the pentagon, N = 5 > 2 * 2.
PENTAGON_PAIR_CODE = [0, 5, 95, 109, 130]


@contextmanager
def _wall_time_limit(seconds: int):
    """Raise ``TimeoutError`` in the block after ``seconds`` of wall time."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_degenerate_infeasible_distinguishability_lp_terminates(pentagon_pair):
    # Four vertices of max(5-gon, 5-gon) whose LP is infeasible and highly
    # degenerate.  Dantzig's rule re-enters a degenerate cycle here whenever
    # the loop returns to it, so this LP ends only if Bland's rule holds for
    # the rest of the call once it engages.  The iteration limit is about
    # 231,000 pivots, far past the time bound.  Public distinguishable
    # takes the cone test on this space's product facets, so the vertex LP
    # is called directly.
    verts = vertices_of(pentagon_pair)
    states = verts[[12, 54, 70, 127]]
    with _wall_time_limit(5):
        assert _polytope_distinguishable(pentagon_pair, states, 1e-9) is None
    assert not _distinguishability_matches_highs(pentagon_pair, states)
    with _wall_time_limit(5):
        witness = _polytope_distinguishable(pentagon_pair, verts[PENTAGON_PAIR_CODE], 1e-9)
    assert witness is not None and verify_witness(pentagon_pair, witness)


def test_distinguishability_lp_matches_highs_on_composites(pentagon_pair):
    # seeded vertex subsets of sizes 2-4 on the no-signalling polytope and on
    # max(5-gon, 5-gon), with a midpoint in place of a vertex on the former.
    # Random 4-sets of both, and random 3-sets of max(5-gon, 5-gon), are
    # nearly all "no", so subsets of a distinguishable product code give the
    # "yes" cases: square vertices 0 and 2 on each side of the no-signalling
    # polytope, and the pentagon pair's five.
    sq = square_gbit()
    rng = np.random.default_rng(20120324)
    cases = [(compose(sq, sq, "max").space, [0, 2, 16, 18], 8, True),
             (pentagon_pair, PENTAGON_PAIR_CODE, 3, False)]
    for space, code, draws, midpoints in cases:
        verts = vertices_of(space)
        for n in (2, 3, 4):
            subsets = [verts[rng.choice(len(verts), size=n, replace=False)] for _ in range(draws)]
            if midpoints:
                subsets += [_with_a_midpoint(rng, verts, states) for states in subsets]
            known = list(combinations(code, n))
            subsets += [verts[list(known[i])] for i in
                        rng.choice(len(known), size=min(2, len(known)), replace=False)]
            verdicts = {_distinguishability_matches_highs(space, states) for states in subsets}
            assert verdicts == {False, True}, (space.name, n)
