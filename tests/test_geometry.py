"""Double description against brute-force oracles."""

import math
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import gptlab.geometry
from gptlab.composites import compose
from gptlab.convex import simplex_vertices, vertices_of
from gptlab.discrimination import _vertex_permutations
from gptlab.errors import BudgetExceededError, ValidationError
from gptlab.geometry import (
    SYMMETRY_NODE_BUDGET,
    _dedup_direction,
    _independent_rows,
    _integer_rows,
    affine_dimension,
    brute_force_dual_cone_rays,
    brute_force_polytope_vertices,
    canonicalize_vertices,
    dual_cone_rays,
    dual_cone_rays_exact,
    extremal_effect_vectors,
    vertex_permutation,
    vertex_symmetries,
)
from gptlab.models import square_gbit
from gptlab.runner import build_space, load_theory
from gptlab.symmetry import polytope_symmetry_group

BIT_VERTICES = np.array([[1.0, 0.0], [1.0, 1.0]])
SQUARE_VERTICES = np.array(
    [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
)
CUBE_VERTICES = np.array([[1.0, *signs] for signs in product((-1.0, 1.0), repeat=3)])
SIMPLEX3_VERTICES = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])


def _as_set(arr, digits=9):
    return {tuple(np.round(row, digits)) for row in np.atleast_2d(arr)}


def _same_rows(a, b, tol=1e-9):
    """Equal row sets up to tol, without rounding rows onto a grid."""
    return a.shape == b.shape and all(np.min(np.max(np.abs(b - r), axis=1)) <= tol for r in a)


def test_affine_dimension():
    assert affine_dimension(SQUARE_VERTICES) == 2
    assert affine_dimension(BIT_VERTICES) == 1
    assert affine_dimension(np.array([[1.0, 2.0]])) == 0


def _exact_rays_as_floats(rays):
    """Exact rays scaled to max-abs 1, as float rows."""
    return np.array([[float(x / max(abs(y) for y in r)) for x in r] for r in rays])


def _greedy_dedup(vertices, tol):
    """Reference for canonicalize_vertices: the row-by-row greedy rule."""
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    verts = verts[np.lexsort(verts.T[::-1])]
    kept = []
    for row in verts:
        if not any(np.max(np.abs(row - k)) <= tol for k in kept):
            kept.append(row)
    return np.array(kept)


def test_canonicalize_sorts_and_dedupes():
    verts = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0 + 1e-12]])
    out = canonicalize_vertices(verts)
    assert out.shape == (2, 2)
    assert np.array_equal(out[0], [1.0, 0.0])


# Offsets from a cluster centre in units of tol, on both sides of tol.
NEAR_OFFSETS = (0.0, 0.5, 0.9, 1.0, 1.1, 2.0)


@seed(20120321)
@settings(max_examples=20, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4),
    tol=st.sampled_from([1e-9, 1e-7]),
    n_centres=st.integers(min_value=1, max_value=80),
    n_chains=st.integers(min_value=0, max_value=20),
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_canonicalize_matches_greedy_oracle(dim, tol, n_centres, n_chains, data_seed):
    # Up to about 700 rows, with near pairs, chains and candidates that are
    # not near.
    rng = np.random.default_rng(data_seed)
    centres = rng.integers(-2, 3, size=(n_centres, dim)) / 2.0
    rows = np.repeat(centres, rng.integers(1, 9, size=n_centres), axis=0)
    rows += tol * rng.choice(NEAR_OFFSETS, size=rows.shape) * rng.choice([-1, 1], size=rows.shape)
    # chains a, b = a + 0.6 tol, c = a + 1.2 tol: a≈b and b≈c but not a≈c
    starts = centres[rng.integers(n_centres, size=n_chains)]
    rows = np.vstack([rows] + [starts + step * tol for step in (0.0, 0.6, 1.2)])
    rows = rows[rng.permutation(rows.shape[0])]
    out = canonicalize_vertices(rows, tol=tol)
    expected = _greedy_dedup(rows, tol)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


def _crowded_rows(case, tol, rng):
    """Rows on which a projection onto one direction gives little away."""
    if case == "large":
        # near pairs a, a + d with one coordinate at 1e6..1e8: the projection
        # rounds on a grid far coarser than tol, so a window of a few tol
        # misses pairs that its rounding slack catches
        a = rng.integers(-2, 3, size=(60, int(rng.integers(2, 5)))) / 2.0
        a[:, 0] = rng.integers(1, 4, size=60) * 10.0 ** rng.uniform(6, 8, size=60)
        d = tol * rng.choice(NEAR_OFFSETS[:4], size=a.shape) * rng.choice([-1, 1], size=a.shape)
        rows = np.vstack([a, a + d])
        return rows[rng.permutation(rows.shape[0])]
    K = int(rng.integers(2, 17))
    if case == "tied":
        # differences orthogonal to the projection direction: the projections
        # of rows a whole unit apart tie up to rounding
        w = _dedup_direction(K)
        d = rng.normal(size=(3, K))
        d -= np.outer(d @ w / (w @ w), w)
        centres = rng.integers(-2, 3, size=(30, 3)) @ (d / np.abs(d).max(axis=1, keepdims=True))
    else:  # "cluster" and "chain": every row within a few tol of one point
        centres = rng.normal(size=(1, K))
    count = 300 if case == "cluster" else 3
    rows = np.repeat(centres, count, axis=0)
    rows += tol * rng.choice(NEAR_OFFSETS, size=rows.shape) * rng.choice([-1, 1], size=rows.shape)
    if case == "chain":
        # a, b = a + 0.6 tol, c = a + 1.2 tol in every coordinate: keeps a and c
        rows = np.vstack([rows, centres + 0.6 * tol, centres + 1.2 * tol])
    return rows[rng.permutation(rows.shape[0])]


@pytest.mark.parametrize("case", ["large", "tied", "cluster", "chain"])
@pytest.mark.parametrize("tol", [1e-9, 1e-7])
@pytest.mark.parametrize("data_seed", range(4))
def test_canonicalize_matches_greedy_oracle_on_crowded_projections(case, tol, data_seed):
    # The cluster's 300 rows are nearly all candidates of one another, up to
    # 90,000 pairs, so its pairs are checked in two chunks.
    rng = np.random.default_rng([34, data_seed])
    rows = _crowded_rows(case, tol, rng)
    out = canonicalize_vertices(rows, tol=tol)
    expected = _greedy_dedup(rows, tol)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


def test_canonicalize_one_cluster_in_bounded_memory():
    # 4096 rows, K = 16, all within tol of one point: every row is a
    # candidate of every other, about 8.4 million pairs, which held at once
    # as two index arrays would take 134 MB.  Two coordinates spread over
    # the whole +-tol, so the near pairs form chains and several rows stay.
    tol = 1e-9
    rng = np.random.default_rng(34)
    spread = np.full(16, 0.45)
    spread[:2] = 1.0
    rows = rng.normal(size=16) + tol * spread * rng.uniform(-1, 1, size=(4096, 16))
    tracemalloc.start()
    try:
        out = canonicalize_vertices(rows, tol=tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = _greedy_dedup(rows, tol)
    assert len(expected) > 1
    assert out.tobytes() == expected.tobytes()
    assert peak < 16 * 2**20


def test_canonicalize_rows_near_the_largest_float():
    # unscaled, both projections would overflow to inf and their gap be NaN
    big = np.finfo(float).max / 2
    rows = np.array([[big, big, 1.0], [big, -big, 1.0], [big, big, 1.0]])
    assert canonicalize_vertices(rows).tobytes() == rows[[1, 0]].tobytes()


@pytest.mark.parametrize("rows", [
    [[1.0, np.inf], [1.0, np.inf]],
    [[1.0, np.nan], [1.0, np.nan]],
    [[1.0, 0.0], [-np.inf, 1.0]],
    [[np.nan, 0.0]],
])
def test_canonicalize_refuses_a_non_finite_coordinate(rows):
    # inf - inf is NaN with a RuntimeWarning, and NaN is near nothing, not
    # even itself; a NaN projection would also break the sort
    with pytest.raises(ValidationError, match="non-finite vertex coordinate"):
        canonicalize_vertices(np.array(rows))


def test_bit_effect_cone_rays():
    rays = dual_cone_rays(BIT_VERTICES)
    assert _as_set(rays) == {(0.0, 1.0), (1.0, -1.0)}


def test_square_effect_cone_rays_match_oracle():
    rays = dual_cone_rays(SQUARE_VERTICES)
    oracle = brute_force_dual_cone_rays(SQUARE_VERTICES)
    assert _as_set(rays, 6) == _as_set(oracle, 6)
    assert _as_set(rays) == {
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (1.0, -1.0, 0.0),
        (1.0, 0.0, -1.0),
    }


def test_extremal_effects_bit():
    effects = extremal_effect_vectors(BIT_VERTICES)
    assert _as_set(effects) == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, -1.0)}


def test_extremal_effects_square():
    effects = extremal_effect_vectors(SQUARE_VERTICES)
    assert _as_set(effects) == {
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (1.0, -1.0, 0.0),
        (0.0, 0.0, 1.0),
        (1.0, 0.0, -1.0),
    }


def test_extremal_effects_simplex3_are_all_binary_patterns():
    # oracle: brute force over vertex value patterns in {0,1}^3, then keep
    # extreme points of the (here, bijective) value map
    verts = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    expected = set()
    for pattern in np.ndindex(2, 2, 2):
        f = np.linalg.solve(verts, np.array(pattern, dtype=float))
        expected.add(tuple(np.round(f, 9)))
    effects = extremal_effect_vectors(verts)
    assert _as_set(effects) == expected
    assert effects.shape[0] == 8


def test_random_cone_rays_match_bruteforce(rng):
    for _ in range(20):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(k, k + 4))
        gens = rng.normal(size=(m, k))
        # keep the dual cone pointed and nonempty: add the positive orthant rows
        gens = np.vstack([gens, np.eye(k)])
        rays = dual_cone_rays(gens)
        oracle = brute_force_dual_cone_rays(gens)
        assert _as_set(rays, 6) == _as_set(oracle, 6)
        # every ray satisfies the generating inequalities
        assert np.all(gens @ rays.T >= -1e-9)


def test_not_pointed_raises():
    with pytest.raises(ValidationError):
        dual_cone_rays(np.array([[1.0, 0.0]]))  # rank 1 in R^2
    with pytest.raises(ValidationError):
        dual_cone_rays_exact(np.array([[2, 1, 0], [4, 2, 0], [0, 0, 1]]))  # rank 2 in R^3


@pytest.mark.parametrize("dtype", [float, int])
@pytest.mark.parametrize("enumerate_rays", [dual_cone_rays, dual_cone_rays_exact],
                         ids=["float", "exact"])
def test_no_generator_rows_do_not_span(enumerate_rays, dtype):
    with pytest.raises(ValidationError, match="generators do not span the space"):
        enumerate_rays(np.zeros((0, 3), dtype=dtype))


@pytest.mark.parametrize("rows", [[[-3]], [[3]], [[-2], [-6]], [[5], [1]], [[-1], [1]]])
def test_exact_rays_in_one_coordinate_keep_their_sign(rows):
    # np.gcd.reduce over one column of Python ints returns the entry itself,
    # sign and all, and dividing by it turned the ray (-1,) into (1,)
    oracle = brute_force_dual_cone_rays(rows)
    assert np.array_equal(dual_cone_rays(rows), oracle)
    assert dual_cone_rays_exact(rows) == [tuple(int(x) for x in r) for r in oracle]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("enumerate_rays", [dual_cone_rays, dual_cone_rays_exact],
                         ids=["float", "exact"])
def test_a_non_finite_generator_entry_is_refused(enumerate_rays, bad):
    # a NaN row would drop out of the float enumeration unseen, since every
    # comparison with NaN is false, and an infinite entry has no Fraction
    rows = [[1.0, 0.0, 0.0], [1.0, bad, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
    with pytest.raises(ValidationError, match="non-finite generator entry"):
        enumerate_rays(rows)


def test_no_signalling_polytope_vertex_count_and_oracle():
    square_rays = dual_cone_rays(SQUARE_VERTICES)
    rows = np.array([np.kron(f, g) for f in square_rays for g in square_rays])
    verts = dual_cone_rays(rows)
    verts = verts / verts[:, :1]
    assert verts.shape == (24, 9)
    # independent oracle: basic feasible points of the H-polytope
    oracle = brute_force_polytope_vertices(
        a_ub=-rows,
        b_ub=np.zeros(rows.shape[0]),
        a_eq=np.eye(9)[:1],
        b_eq=np.array([1.0]),
    )
    assert _as_set(verts, 6) == _as_set(oracle, 6)


def test_exact_enumeration_is_bit_exact():
    square_rays = dual_cone_rays(SQUARE_VERTICES)
    rows = np.array([np.kron(f, g) for f in square_rays for g in square_rays]).astype(int)
    rays = dual_cone_rays_exact(rows)
    assert len(rays) == 24
    normalized = {tuple(Fraction(x, r[0]) for x in r) for r in rays}
    values = {v for ray in normalized for v in ray}
    assert values == {Fraction(0), Fraction(1, 2), Fraction(1)}
    # 16 deterministic vertices (0/1 entries) and 8 with half-entries
    deterministic = [r for r in normalized if Fraction(1, 2) not in r]
    assert len(deterministic) == 16


BIG = 3**45  # beyond int64


@pytest.mark.parametrize(
    "generators, expected",
    [
        # a square of side 1/3, from floats and from Fractions
        ([[1.0, 0.0, 0.0], [1.0, 1 / 3, 0.0], [1.0, 0.0, 1 / 3], [1.0, 1 / 3, 1 / 3]],
         [(0, 0, 1), (0, 1, 0), (1, -3, 0), (1, 0, -3)]),
        (np.array([[1, 0, 0], [1, Fraction(2, 7), 0], [1, 0, Fraction(1, 5)],
                   [1, Fraction(2, 7), Fraction(1, 5)]], dtype=object),
         [(0, 0, 1), (0, 1, 0), (2, -7, 0), (1, 0, -5)]),
        # a square of side 3**45: Python ints do not overflow
        (np.array([[1, 0, 0], [1, BIG, 0], [1, 0, BIG], [1, BIG, BIG]], dtype=object),
         [(0, 0, 1), (0, 1, 0), (BIG, -1, 0), (BIG, 0, -1)]),
    ],
    ids=["floats", "fractions", "large"],
)
def test_exact_rays_are_primitive_int_tuples(generators, expected):
    rays = dual_cone_rays_exact(generators)
    assert rays == sorted(expected)
    assert all(type(x) is int for r in rays for x in r)


def test_exact_rays_of_a_max_tensor_are_primitive_int_tuples():
    square_rays = dual_cone_rays(SQUARE_VERTICES)
    cube_rays = dual_cone_rays(CUBE_VERTICES)
    rows = np.array([np.kron(f, g) for f in square_rays for g in cube_rays]).astype(int)
    rays = dual_cone_rays_exact(rows)
    assert len(rays) == 128 and rays == sorted(set(rays))
    for r in rays:
        assert all(type(x) is int for x in r) and math.gcd(*r) == 1
        assert min(int(v) for v in rows.astype(object) @ np.array(r, dtype=object)) >= 0


def _max_tensor_rows(verts_a, verts_b):
    return np.array(
        [np.kron(f, g) for f in dual_cone_rays(verts_a) for g in dual_cone_rays(verts_b)]
    )


OCTAHEDRON_VERTICES = np.array([[1.0, *e] for e in np.vstack([np.eye(3), -np.eye(3)])])


@pytest.mark.parametrize("verts_a, verts_b, dtype, count", [
    (SQUARE_VERTICES, CUBE_VERTICES, np.int64, 128),
    (OCTAHEDRON_VERTICES, OCTAHEDRON_VERTICES, object, 684),
], ids=["square-cube", "octahedron-octahedron"])
def test_exact_enumeration_takes_int64_where_it_cannot_overflow(
        monkeypatch, verts_a, verts_b, dtype, count):
    # square x cube rows: max |g|_1 = max |g|_2^2 = 4 in K = 12, so
    # 2 * 4 * 5**12 < 2**63; octahedron^2 rows: 16 entries of +-1, and
    # 2 * 16 * 17**16 > 2**63
    rows = np.round(_max_tensor_rows(verts_a, verts_b)).astype(int)
    seen = []
    run = gptlab.geometry._double_description

    def recording(G, *args):
        seen.append(G.dtype)
        return run(G, *args)

    monkeypatch.setattr(gptlab.geometry, "_double_description", recording)
    rays = dual_cone_rays_exact(rows)
    assert seen == [np.dtype(dtype)] and len(rays) == count
    assert all(type(x) is int for r in rays for x in r)


def _cone_rows(rng, k, m, bound):
    """m random integer rows in R^k, each with a positive value on the all-ones
    vector, so the cone has an interior; entries in [-bound, bound]."""
    rows = rng.integers(-bound, bound, size=(m, k), endpoint=True)
    rows *= np.sign(rows.sum(axis=1))[:, None]
    return rows[rows.sum(axis=1) > 0].astype(object)


@pytest.mark.parametrize("bound, dtype", [(3, np.int64), (2**40, object)],
                         ids=["int64", "object"])
def test_exact_rays_match_bruteforce_on_both_dtypes(bound, dtype):
    # with entries near 2**40 a new ray v_p r_n - v_n r_p passes 2**80 even
    # in K = 2, so an int64 run of the loop would wrap; floats hold the
    # entries exactly, so the oracle reads the same cone from rows scaled to
    # max-abs 1
    rng = np.random.default_rng(20260312)
    dtypes = set()
    for _ in range(40):
        k = int(rng.integers(2, 5))
        rows = _cone_rows(rng, k, int(rng.integers(k + 1, k + 6)), bound)
        if rows.shape[0] < k or np.linalg.matrix_rank(rows.astype(float)) < k:
            continue
        dtypes.add(gptlab.geometry._exact_dtype(_integer_rows(rows)))
        rays = dual_cone_rays_exact(rows)
        for r in rays:
            assert math.gcd(*r) == 1
            assert min(rows @ np.array(r, dtype=object)) >= 0
        floats = rows.astype(float)
        oracle = brute_force_dual_cone_rays(floats / np.abs(floats).max(axis=1, keepdims=True))
        assert len(rays) == oracle.shape[0] > 0
        assert _same_rows(_exact_rays_as_floats(rays), oracle, tol=1e-7)
    assert dtypes == {dtype}


@pytest.mark.parametrize(
    "verts_a, verts_b",
    [
        (SQUARE_VERTICES, SQUARE_VERTICES),
        (SQUARE_VERTICES, CUBE_VERTICES),
        (SIMPLEX3_VERTICES, SIMPLEX3_VERTICES),
    ],
    ids=["square-square", "square-cube", "classical3-classical3"],
)
def test_exact_and_float_enumeration_agree(verts_a, verts_b):
    # the product-facet rows of a max tensor: integral for these parts
    rows = _max_tensor_rows(verts_a, verts_b)
    assert np.array_equal(rows, np.round(rows))
    exact = np.array(
        [[float(x / r[0]) for x in r] for r in dual_cone_rays_exact(rows.astype(int))]
    )
    floats = dual_cone_rays(rows)
    assert _same_rows(floats / floats[:, :1], exact)


@seed(20120321)
@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=k - 1, max_size=k - 1),
            min_size=k,
            max_size=8,
        )
    )
)
def test_cone_rays_match_bruteforce_on_random_point_sets(coords):
    points = np.array([[1.0, *c] for c in coords])
    assume(affine_dimension(points) == points.shape[1] - 1)
    oracle = brute_force_dual_cone_rays(points)
    assert _same_rows(dual_cone_rays(points), oracle, tol=1e-7)
    exact = _exact_rays_as_floats(dual_cone_rays_exact(points.astype(int)))
    assert _same_rows(exact, oracle, tol=1e-7)


@seed(20121018)
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, 70), (4, 12), (5, 10)]).flatmap(
        lambda k_rows: st.lists(
            st.lists(st.integers(min_value=-2, max_value=2),
                     min_size=k_rows[0] - 1, max_size=k_rows[0] - 1),
            min_size=k_rows[0],
            max_size=k_rows[1],
        )
    )
)
def test_cone_rays_match_bruteforce_on_half_integer_polytopes(coords):
    # points on a half-integer grid, repeats allowed: many points share a
    # facet, so many rays share tight rows
    points = np.array([[1.0, *c] for c in coords])
    points[:, 1:] /= 2
    assume(affine_dimension(points) == points.shape[1] - 1)
    oracle = brute_force_dual_cone_rays(points)
    floats = dual_cone_rays(points)
    exact = _exact_rays_as_floats(dual_cone_rays_exact(points))
    assert _same_rows(floats, oracle, tol=1e-7)
    assert _same_rows(exact, oracle, tol=1e-7)
    assert _same_rows(floats, exact)


def _circle_points(r2):
    """The points (1, x, y) with integers x^2 + y^2 = r2."""
    points = set()
    for x in range(-math.isqrt(r2), math.isqrt(r2) + 1):
        y = math.isqrt(r2 - x * x)
        if y * y == r2 - x * x:
            points |= {(1, x, y), (1, x, -y)}
    return np.array(sorted(points))


def test_cone_rays_with_two_mask_words_match_bruteforce():
    # 5^2 * 13 * 17 * 29 is a sum of two squares in 96 ways: a 96-gon, so
    # every ray mask takes two words
    points = _circle_points(160225)
    assert points.shape == (96, 3)
    oracle = brute_force_dual_cone_rays(points)
    assert oracle.shape == (96, 3)
    assert _same_rows(dual_cone_rays(points), oracle)
    assert _same_rows(_exact_rays_as_floats(dual_cone_rays_exact(points)), oracle)


PENTAGON_VERTICES = np.array(
    [[1.0, np.cos(2 * np.pi * j / 5), np.sin(2 * np.pi * j / 5)] for j in range(5)]
)


@pytest.mark.parametrize(
    "rows, count",
    [
        (_max_tensor_rows(SQUARE_VERTICES, SQUARE_VERTICES).astype(int), 24),
        (_max_tensor_rows(SQUARE_VERTICES, CUBE_VERTICES).astype(int), 128),
        (_max_tensor_rows(PENTAGON_VERTICES, PENTAGON_VERTICES), 135),
    ],
    ids=["square-square-exact", "square-cube-exact", "5gon-5gon-float"],
)
def test_ray_budget_error_reports_a_lower_bound(rows, count):
    enumerate_rays = dual_cone_rays if rows.dtype == float else dual_cone_rays_exact
    assert len(enumerate_rays(rows, max_rays=count)) == count
    for budget in range(count // 2, count):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_rays(rows, max_rays=budget)
        # "at least n" from the early stop, or the final count
        reported = int(re.search(r"(\d+) extreme rays", str(info.value))[1])
        assert budget < reported <= count


def test_ray_budget_holds_when_the_early_bound_misses_a_ray():
    # the last row is -0.7 tol on the facet ray (1, -1, 0): within tol, so it
    # cuts nothing, but below the early bound's -tol/2, so that bound counts
    # three of the four rays; the final count still raises
    rows = np.vstack([SQUARE_VERTICES, [[1.0, 1.0 + 0.7e-9, 0.0]]])
    assert len(dual_cone_rays(rows, tol=1e-9)) == 4
    with pytest.raises(BudgetExceededError, match="cone has 4 extreme rays"):
        dual_cone_rays(rows, tol=1e-9, max_rays=3)


@pytest.mark.parametrize(
    "rows",
    [
        _max_tensor_rows(SQUARE_VERTICES, CUBE_VERTICES).astype(int),
        _max_tensor_rows(PENTAGON_VERTICES, PENTAGON_VERTICES),
    ],
    ids=["square-cube-exact", "5gon-5gon-float"],
)
def test_one_pair_per_block_gives_the_same_rays(rows, monkeypatch):
    # a budget of one mask word per step puts every positive ray in its own
    # prefilter block and every surviving pair in its own subset-test chunk
    enumerate_rays = dual_cone_rays if rows.dtype == float else dual_cone_rays_exact
    whole = enumerate_rays(rows)
    monkeypatch.setattr(gptlab.geometry, "_DD_WORDS", 1)
    blocked = enumerate_rays(rows)
    if rows.dtype == float:
        assert whole.tobytes() == blocked.tobytes()
    else:
        assert whole == blocked


def test_integer_rows_of_ints_skip_fractions(monkeypatch):
    ints = np.array([[2, -4, 6], [0, 3, 0], [1, 0, -1]])
    expected = [[1, -2, 3], [0, 1, 0], [1, 0, -1]]
    assert _integer_rows(ints.astype(float)) == expected
    assert _integer_rows(ints.astype(object) * BIG) == expected

    def no_fraction(*args):
        raise AssertionError("Fraction built for an integer row")

    monkeypatch.setattr(gptlab.geometry, "Fraction", no_fraction)
    assert _integer_rows(ints) == expected
    assert all(type(x) is int for row in _integer_rows(ints) for x in row)


def test_cube_facets_exact_and_float_match_bruteforce():
    # every facet ray of the cube is tight at four vertices, one more than K - 1
    oracle = brute_force_dual_cone_rays(CUBE_VERTICES)
    assert oracle.shape == (6, 4)
    assert _same_rows(dual_cone_rays(CUBE_VERTICES), oracle)
    exact = _exact_rays_as_floats(dual_cone_rays_exact(CUBE_VERTICES.astype(int)))
    assert _same_rows(exact, oracle)


def test_vertex_permutation_reads_the_images_within_100_tol():
    # swapping the two coordinates exchanges vertices 1 and 2 of the square
    swap = np.eye(3)[[0, 2, 1]]
    assert vertex_permutation(SQUARE_VERTICES, swap, 1e-9).tolist() == [0, 2, 1, 3]
    near, far = swap.copy(), swap.copy()
    near[1, 0] += 5e-8
    far[1, 0] += 5e-7
    assert vertex_permutation(SQUARE_VERTICES, near, 1e-9).tolist() == [0, 2, 1, 3]
    assert vertex_permutation(SQUARE_VERTICES, far, 1e-9) is None
    # every image is a vertex, but two vertices share one
    assert vertex_permutation(SQUARE_VERTICES, np.diag([1.0, 1.0, 0.0]), 1e-9) is None


def _dfs_vertex_symmetries(vertices, tol, node_budget):
    """Reference for vertex_symmetries: backtracking that visits one leaf per
    group element, in lexicographic order of the images of the basis."""
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    u, svals, _ = np.linalg.svd(verts, full_matrices=False)
    white = u[:, : int(np.sum(svals > tol * max(1.0, svals[0])))]
    digits = max(1, int(np.floor(-np.log10(100.0 * tol))))
    gram = np.round(white @ white.T, digits) + 0.0
    signature = np.column_stack([np.diag(gram), np.sort(gram, axis=1)])
    basis = _independent_rows(white, tol)
    basis_pinv = np.linalg.pinv(verts[basis].T)
    alike = [(signature == signature[a]).all(axis=1) for a in basis]
    used = np.zeros(verts.shape[0], dtype=bool)

    def fits(images):
        i = len(images)
        ok = alike[i] & ~used & (gram[:, images] == gram[basis[i], basis[:i]]).all(axis=1)
        return np.flatnonzero(ok)[::-1].tolist()

    nodes = 0
    images = []
    pending = [fits(images)]
    while pending:
        if not pending[-1]:
            pending.pop()
            if images:
                used[images.pop()] = False
            continue
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"symmetry search exceeded {node_budget} nodes")
        j = pending[-1].pop()
        if len(images) + 1 < len(basis):
            used[j] = True
            images.append(j)
            pending.append(fits(images))
            continue
        perm = vertex_permutation(verts, verts[images + [j]].T @ basis_pinv, tol)
        if perm is not None:
            yield perm


def _assert_search_matches_dfs(vertices):
    expected = list(_dfs_vertex_symmetries(vertices, 1e-9, 10**6))
    got = vertex_symmetries(vertices, 1e-9, 10**6)
    assert got.tolist() == np.array(expected).tolist()


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


@pytest.mark.parametrize("name", ["square"] + [f"{n}-gon" for n in range(3, 13)]
                         + ["cube", "octahedron", "tesseract"])
def test_vertex_symmetries_match_the_dfs_on_the_corpus(name):
    _assert_search_matches_dfs(vertices_of(build_space(load_theory(str(CORPUS / f"{name}.json")))))


def _no_signalling_polytope_and_faces() -> tuple[np.ndarray, list[np.ndarray]]:
    """The vertices of the no-signalling polytope and of its 16 faces with 8
    vertices, each cut out by two of its 16 positivity facets."""
    sq = square_gbit()
    verts = vertices_of(compose(sq, sq, "max").space)
    facets = np.array([[0.0, 1, 0], [1, -1, 0], [0, 0, 1], [1, 0, -1]])
    tight = np.abs(verts @ np.array([np.kron(f, g) for f in facets for g in facets]).T) <= 1e-9
    faces = [verts[tight[:, a] & tight[:, b]] for a, b in combinations(range(16), 2)]
    faces = [face for face in faces if face.shape[0] == 8]
    assert len(faces) == 16
    return verts, faces


def test_vertex_symmetries_match_the_dfs_on_the_no_signalling_polytope_and_faces():
    verts, faces = _no_signalling_polytope_and_faces()
    rng = np.random.default_rng(20)
    for polytope in [verts] + faces:
        for _ in range(3):
            _assert_search_matches_dfs(polytope[rng.permutation(polytope.shape[0])])


def _numpy_image_filter(gram, alike, basis):
    """Reference for geometry._image_filter: one numpy comparison per call."""
    nv = gram.shape[0]

    def fits(images):
        i = len(images)
        used = np.zeros(nv, dtype=bool)
        used[images] = True
        ok = alike[i] & ~used & (gram[:, images] == gram[basis[i], basis[:i]]).all(axis=1)
        return np.flatnonzero(ok)[::-1].tolist()

    return fits


def _assert_filter_matches_numpy(monkeypatch, vertices, tol=1e-9):
    # every call of the bitmask filter lists the images the numpy filter
    # lists, in its order, and the rows are byte-identical to the rows the
    # search finds with the numpy filter
    image_filter = gptlab.geometry._image_filter
    calls = []

    def checked_filter(gram, alike, basis):
        fast, slow = image_filter(gram, alike, basis), _numpy_image_filter(gram, alike, basis)

        def fits(images):
            calls.append(images)
            assert fast(images) == slow(images), images
            return fast(images)

        return fits

    with monkeypatch.context() as m:
        m.setattr(gptlab.geometry, "_image_filter", checked_filter)
        checked = vertex_symmetries(vertices, tol, 10**6)
        m.setattr(gptlab.geometry, "_image_filter", _numpy_image_filter)
        expected = vertex_symmetries(vertices, tol, 10**6)
    got = vertex_symmetries(vertices, tol, 10**6)
    assert calls
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes() == checked.tobytes()


def _polytope(name: str) -> list[np.ndarray]:
    if name == "ns-faces":
        return _no_signalling_polytope_and_faces()[1]
    if name in ("5-cube", "6-cube"):
        d = int(name[0])
        return [np.column_stack([np.ones(2**d), np.array(list(product((-1.0, 1.0), repeat=d)))])]
    if name == "5-cross":
        return [np.column_stack([np.ones(10), np.vstack([np.eye(5), -np.eye(5)])])]
    return [vertices_of(build_space(load_theory(str(CORPUS / f"{name}.json"))))]


@pytest.mark.parametrize("name", ["square"] + [f"{n}-gon" for n in range(3, 13)]
                         + ["cube", "octahedron", "tesseract", "ns-faces", "5-cube", "5-cross",
                            "6-cube"])
def test_the_bitmask_filter_matches_the_numpy_filter(monkeypatch, name):
    for verts in _polytope(name):
        _assert_filter_matches_numpy(monkeypatch, verts)


# Integer points on a circle and on a sphere: every subset is in convex position.
CIRCLE = [p for p in product(range(-5, 6), repeat=2) if p[0] ** 2 + p[1] ** 2 == 25]
SPHERE = [p for p in product(range(-3, 4), repeat=3) if sum(x * x for x in p) == 9]


@seed(20121020)
@settings(max_examples=40, deadline=None)
@given(
    points=st.sampled_from([CIRCLE, SPHERE]).flatmap(
        lambda pts: st.lists(st.sampled_from(pts), min_size=3, max_size=12, unique=True)),
    map_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_the_bitmask_filter_matches_the_numpy_filter_on_integer_polytopes(points, map_seed):
    # integer points in convex position and their image under a linear map
    # that fixes the unit effect (1, 0, ..)
    verts = np.array([[1.0, *p] for p in points])
    k = verts.shape[1]
    assume(affine_dimension(verts) == k - 1)
    a = np.eye(k)
    a[1:] = np.random.default_rng(map_seed).uniform(-1.0, 1.0, size=(k - 1, k))
    a[1:, 1:] += 1.5 * np.eye(k - 1)
    assume(np.linalg.cond(a) < 20)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for v in (verts, verts @ a.T):
            _assert_filter_matches_numpy(monkeypatch, v)


@pytest.mark.parametrize("verts, n_elements", [
    (np.column_stack([np.ones(10), np.vstack([np.eye(5), -np.eye(5)])]), 3840),
    (simplex_vertices(16), math.factorial(16)),
], ids=["5-cross", "16-simplex"])
def test_a_large_group_is_formed_whole_or_not_at_all(verts, n_elements):
    # within the node budget every element is formed, in the order of the
    # DFS; past it, none is
    if n_elements > SYMMETRY_NODE_BUDGET:
        with pytest.raises(BudgetExceededError, match="symmetry search"):
            vertex_symmetries(verts, 1e-9, SYMMETRY_NODE_BUDGET)
    else:
        assert len(vertex_symmetries(verts, 1e-9, SYMMETRY_NODE_BUDGET)) == n_elements
        _assert_search_matches_dfs(verts)


def _signed_permutation_orbits(d, n_points, n_generators, data_seed):
    """Vertices [1, x] for the orbits of random points under the group that
    random signed permutation matrices generate, in seeded order."""
    rng = np.random.default_rng(data_seed)
    generators = [np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=d)
                  for _ in range(n_generators)]
    orbit = {tuple(x) for x in rng.normal(size=(n_points, d))}
    frontier = list(orbit)
    while frontier:
        images = {tuple(g @ x) for g in generators for x in frontier} - orbit
        orbit |= images
        frontier = list(images)
    points = np.array(sorted(orbit))
    return np.column_stack([np.ones(len(points)), points])[rng.permutation(len(points))]


@seed(20121019)
@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=4),
    n_points=st.integers(min_value=1, max_value=2),
    n_generators=st.integers(min_value=1, max_value=2),
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vertex_symmetries_match_the_dfs_on_signed_permutation_orbits(
        d, n_points, n_generators, data_seed):
    verts = _signed_permutation_orbits(d, n_points, n_generators, data_seed)
    assume(verts.shape[0] <= 64)
    _assert_search_matches_dfs(verts)


def test_the_symmetry_budget_counts_products_before_forming_them(monkeypatch):
    verts = simplex_vertices(16)
    with pytest.raises(BudgetExceededError, match="symmetry search"):
        vertex_symmetries(CUBE_VERTICES, 1e-9, node_budget=5)
    formed = []
    monkeypatch.setattr(gptlab.geometry, "_chain_products",
                        lambda *args: formed.append(args))
    with pytest.raises(BudgetExceededError, match="symmetry search"):
        polytope_symmetry_group(verts)  # 16! products
    assert formed == []
    monkeypatch.undo()
    # so the capacity search marks orbits under the identity alone
    assert _vertex_permutations(verts, 1e-9).tolist() == [list(range(16))]


def test_on_nearly_symmetric_vertices_the_search_keeps_only_what_the_dfs_accepts():
    # within 100 tol, maps that permute perturbed vertices need not form a
    # group: products of accepted maps can fail, and then they are dropped
    rng = np.random.default_rng(22)
    hexagon = np.column_stack([np.ones(6), np.cos(np.arange(6) * np.pi / 3),
                               np.sin(np.arange(6) * np.pi / 3)])
    octahedron = np.column_stack([np.ones(6), np.vstack([np.eye(3), -np.eye(3)])])
    fewer = 0
    for verts in [hexagon, octahedron, CUBE_VERTICES] * 20:
        tol = rng.choice([1e-6, 1e-5, 1e-4])
        noise = rng.uniform(5, 80) * tol * rng.uniform(-1, 1, size=verts.shape)
        noise[:, 0] = 0.0
        expected = [tuple(p) for p in _dfs_vertex_symmetries(verts + noise, tol, 10**6)]
        got = [tuple(p) for p in vertex_symmetries(verts + noise, tol, 10**6)]
        assert got == [p for p in expected if p in set(got)]  # in the DFS, in its order
        fewer += len(got) < len(expected)
    assert fewer > 0
