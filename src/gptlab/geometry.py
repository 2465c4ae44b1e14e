"""Cone duality and vertex/facet enumeration via the double description method.

One routine serves every direction of the duality: the extreme rays of
``{x : G x >= 0}`` give facet effects when ``G`` holds polytope vertices, and
give composite-state vertices when ``G`` holds product-effect functionals.

One incremental double-description loop (Fukuda & Prodon, 1996) does the
enumeration on floats compared against a tolerance (``dual_cone_rays``) and
on integers compared exactly (``dual_cone_rays_exact``), so that small
integral fixtures are bit-exact.  The exact path is fraction-free from input
to output: rational rows are scaled to integers, the starting rows are
picked and inverted by Bareiss elimination (adjugate instead of inverse),
and rays are kept primitive, divided by the gcd of their entries where the
float path scales them to unit max-abs.  Its integers are int64 when a
Hadamard bound on the rows shows that no step can overflow, and Python ints
in numpy object arrays otherwise; the choice is made once per call, from
the rows, and both give the same rays.  The two entry points differ only in
that set-up and in the final deduplication.

Each cutting row is processed as arrays, not ray by ray (numpy 2.0 or
later).  The rays' values on the row are one matrix product ``rays @ g`` on
the exact path, where integers sum exactly in any order, and ``np.vecdot``
on the float path, which keeps the bits of a ray-by-ray loop.
The rows tight at each ray are one row of packed ``uint64`` words (a bit
pattern, as in Terzer & Stelling, Bioinformatics 24(19), 2008).  A
positive and a negative ray with fewer than K - 2 common tight rows cannot
be adjacent in a pointed K-dimensional cone; this count runs over all such
pairs with ``np.bitwise_count``, in blocks of positive rays, and on large
inputs most pairs fail it.  The surviving pairs take the combinatorial
adjacency test (no third ray tight on every common row) against every ray's
mask, in chunks of pairs, and their new rays are formed and normalized in
one batch.  Given a ray budget, the loop stops as soon as the rays that
every later row keeps outnumber it.

The float path's deduplication (``canonicalize_vertices``) walks the rows in
lexicographic order and keeps a row unless an already kept row lies within
``tol`` of it in every coordinate.  Near pairs are found by one sort: the
rows are projected onto a fixed direction, and only rows whose projections
lie within a slack of each other, which covers ``tol`` and the rounding of
the projection, are compared coordinate by coordinate, in chunks of pairs.
Only rows with an earlier near row are decided one by one.

``vertex_symmetries`` finds the vertex permutations that linear maps induce on
a polytope; the postulate checker builds its automatic groups from them and
the capacity search its orbits of vertex subsets.  It walks the group's
stabilizer chain along a basis among the vertices: backtracking, pruned by
whitened Gram signatures, finds one verified symmetry per coset of each
stabilizer in the next larger one, and the group elements are the products
of these coset representatives, formed as arrays in the order of a search
over the whole tree and each checked against its linear map.  The pruning
filter intersects Python-int bitmasks over the vertices, precomputed once
per search for each pair of basis positions and each vertex, where a numpy
comparison per node would cost more than the node.  Each image the
backtracking tries and each product formed counts against one node budget,
``SYMMETRY_NODE_BUDGET``, which the checker's groups and the capacity
search's orbits share.  The capacity search asks for its orbits only just
before an LP that a mark could save: once an LP has answered "not
distinguishable", or has tested a candidate of the same size.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from fractions import Fraction
from itertools import combinations

import numpy as np

from gptlab.config import resolve_tol
from gptlab.errors import BudgetExceededError, ValidationError


def affine_dimension(points: np.ndarray, tol: float | None = None) -> int:
    """Dimension of the affine hull of the given row vectors."""
    tol = resolve_tol(tol)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] <= 1:
        return 0
    diffs = pts[1:] - pts[0]
    svals = np.linalg.svd(diffs, compute_uv=False)
    scale = svals[0] if svals.size and svals[0] > 0 else 1.0
    return int(np.sum(svals > tol * max(1.0, scale)))


# Candidate pairs compared per step in canonicalize_vertices: a step holds a
# handful of index and float arrays of this length, 0.5 MB each.  A row
# whose window alone holds more pairs is one step.
_DEDUP_PAIRS = 1 << 16
# Permutations checked per step in vertex_symmetries: a step holds a
# 1024 x nv x K float array.
_CHECK_BLOCK_ROWS = 1024


@functools.cache
def _dedup_direction(K: int) -> np.ndarray:
    """The projection direction of ``canonicalize_vertices`` in R^K: the
    square roots of the first K primes.  They are linearly independent over
    the rationals, so no small integer difference of lattice rows is
    orthogonal to w, as (1, -2, 1) is to any arithmetic progression."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < K:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    w = np.sqrt(primes)
    w.flags.writeable = False  # one cached array for every caller
    return w


def canonicalize_vertices(vertices: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Deduplicate within tol and sort lexicographically (deterministic identity).

    Rows are visited in lexicographic order and a row is kept unless a row
    already kept lies within ``tol`` of it in every coordinate, so a chain
    a≈b≈c with a, c apart keeps a and c.  A non-finite coordinate raises
    ValidationError.

    Near pairs are found from one sort of the projections p = V w onto the
    fixed direction w of ``_dedup_direction``.  The candidates of a row are
    the rows whose projection lies within ``slack = 2‖w‖₁(tol + (K + 2)εX)``
    of its own, X the largest absolute coordinate and ε the machine epsilon,
    and each candidate pair takes the exact test ``|a_c - b_c| <= tol`` in
    every coordinate c.  Every near pair is a candidate: its rows differ by
    at most tol(1 + ε) in each coordinate, so their exact projections differ
    by at most tol(1 + ε)‖w‖₁, and each computed projection is within
    γ_K‖w‖₁X of the exact one, γ_K = Kε/2 / (1 - Kε/2), in any order of
    summation (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    §3.1).  The slack is about twice the sum of these bounds; the margin
    covers the rounding of the slack itself, of the gaps between sorted
    projections and of the window's ends ``p ± slack``.  So the rows kept
    are those of a comparison of every pair, bit for bit.  The projections
    and the slack are taken on the rows scaled by 2^-e, e >= 0 the least
    with X·2^-e < 1, so that no projection overflows.  The scaling is exact
    but for entries pushed below the normal range, which move a projection
    by at most K·2^-1075, far below the slack.  Candidate pairs are compared
    in chunks of about ``_DEDUP_PAIRS``, grouped by their later row in
    lexicographic order; a pair whose earlier row is already dropped is not
    compared.
    """
    tol = resolve_tol(tol)
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    if verts.size == 0:
        return verts.reshape(0, verts.shape[1] if verts.ndim == 2 else 0)
    if not np.isfinite(verts).all():
        raise ValidationError("non-finite vertex coordinate")
    verts = verts[np.lexsort(verts.T[::-1])]
    n, K = verts.shape
    w = _dedup_direction(K)
    largest = np.abs(verts).max()
    exponent = max(0, int(np.frexp(largest)[1]))
    proj = np.ldexp(verts, -exponent) @ w
    order = proj.argsort(kind="stable")
    proj = proj[order]
    slack = 2 * w.sum() * np.ldexp(tol + (K + 2) * np.finfo(float).eps * largest, -exponent)
    # a row has a candidate when a neighbour in projection order is within
    # the slack
    close = proj[1:] - proj[:-1] <= slack
    if not close.any():
        return verts
    has_candidate = np.zeros(n, dtype=bool)
    has_candidate[:-1] = close
    has_candidate[1:] |= close
    # positions of those rows in projection order, in lexicographic order of
    # the rows, and their windows [lo, lo + size) in projection order
    pos = np.flatnonzero(has_candidate)
    pos = pos[order[pos].argsort()]
    rows = order[pos]
    lo = np.searchsorted(proj, proj[pos] - slack, side="left")
    size = np.searchsorted(proj, proj[pos] + slack, side="right") - lo
    ends = np.cumsum(size)
    keep = np.ones(n, dtype=bool)
    start = 0
    while start < rows.size:
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - size[start] + _DEDUP_PAIRS,
                                                  side="right")))
        counts = size[start:stop]
        first = np.cumsum(counts) - counts  # each row's first pair in the chunk
        j = np.repeat(rows[start:stop], counts)
        i = order[np.arange(j.size) + np.repeat(lo[start:stop] - first, counts)]
        # keep[i] is final for rows of earlier chunks and still True for the
        # rest, which the loop below reads again
        earlier = (i < j) & keep[i]
        i, j = i[earlier], j[earlier]
        near = np.ones(i.size, dtype=bool)
        for col in verts.T:
            near &= np.abs(col[i] - col[j]) <= tol
        i, j = i[near], j[near]
        later, heads = np.unique(j, return_index=True)
        for row, group in zip(later, np.split(i, heads[1:])):
            keep[row] = not keep[group].any()
        start = stop
    return verts[keep]


def _independent_rows(G: np.ndarray, tol: float) -> list[int]:
    """Greedy pick of linearly independent rows via Gram-Schmidt."""
    chosen: list[int] = []
    basis: list[np.ndarray] = []
    for i, row in enumerate(G):
        residual = row.astype(float).copy()
        for b in basis:
            residual -= (residual @ b) * b
        norm = np.linalg.norm(residual)
        if norm > tol * max(1.0, np.linalg.norm(row)):
            basis.append(residual / norm)
            chosen.append(i)
            if len(chosen) == G.shape[1]:
                break
    return chosen


def _integer_rows(generators) -> list[list[int]]:
    """Rational generator rows, each scaled to a primitive integer row.

    A positive scale leaves the cone ``{x : G x >= 0}`` unchanged.  Rows of
    ints are only divided by their gcd; other entries are read as the
    nearest fraction with denominator at most 10**12.
    """
    rows = []
    for row in np.atleast_2d(generators).tolist():
        if all(type(x) is int for x in row):
            ints = row
        else:
            try:
                fracs = [Fraction(x).limit_denominator(10**12) for x in row]
            except (ValueError, OverflowError):  # Fraction(nan), Fraction(inf)
                raise ValidationError("non-finite generator entry") from None
            scale = math.lcm(*(f.denominator for f in fracs))
            ints = [f.numerator * (scale // f.denominator) for f in fracs]
        divisor = math.gcd(*ints) or 1
        rows.append([x // divisor for x in ints])
    return rows


def _bareiss_independent_rows(G: list[list[int]]) -> list[int]:
    """Greedy pick of linearly independent integer rows by fraction-free
    (Bareiss) elimination.

    Each row is reduced against the rows already chosen, in order; after the
    j-th step its entries are minors of order j + 1 of ``G``, so the division
    by the previous pivot is exact and every entry stays an integer.
    """
    K = len(G[0])
    chosen: list[int] = []
    echelon: list[tuple[list[int], int]] = []  # (reduced row, pivot column)
    for i, row in enumerate(G):
        prev = 1
        for w, c in echelon:
            row = [(w[c] * x - row[c] * y) // prev for x, y in zip(row, w)]
            prev = w[c]
        pivot_col = next((c for c, x in enumerate(row) if x), None)
        if pivot_col is not None:
            echelon.append((row, pivot_col))
            chosen.append(i)
            if len(chosen) == K:
                break
    return chosen


def _bareiss_start_rays(B: np.ndarray) -> np.ndarray:
    """Columns spanning the simplicial cone ``{x : B x >= 0}`` of a
    nonsingular integer block: the adjugate of ``B`` times the sign of its
    determinant, that is |det B| times the inverse.

    Fraction-free Gauss-Jordan elimination on ``[B | I]`` ends with
    ``[d I | d B^-1]``, d = ±det B, every division exact.  It runs as whole
    row operations on an array of ``B``'s dtype.  After each step every
    entry is, up to sign, a minor of ``[B | I]`` with its rows permuted by
    the pivot swaps: by Cramer's rule in the rows already pivoted, by
    Sylvester's identity in the rest (Bareiss, Math. Comp. 22, 1968).  So by
    Hadamard's inequality no entry exceeds H = (max‖b‖₂² + 1)^(K/2), b a
    row of ``B``, and no product difference before its division 2H².
    """
    K = B.shape[0]
    M = np.concatenate([B, np.eye(K, dtype=B.dtype)], axis=1)
    prev = 1
    for k in range(K):
        pivot = k + np.flatnonzero(M[k:, k])[0]
        M[[k, pivot]] = M[[pivot, k]]
        row = M[k].copy()
        M = (row[k] * M - M[:, k:k + 1] * row) // prev
        M[k] = row
        prev = row[k]
    return M[:, K:] if prev > 0 else -M[:, K:]


def _unit_max_abs(rays: np.ndarray) -> np.ndarray:
    return rays / np.abs(rays).max(axis=1, keepdims=True)


def _primitive(rays: np.ndarray) -> np.ndarray:
    # from 0: over one column of Python ints the reduction would return the
    # entry itself, sign and all
    return rays // np.gcd.reduce(rays, axis=1, initial=0)[:, None]


# Mask words held by one step of the K - 2 prefilter or of the subset test in
# _adjacent_pairs (512 KB): blocks of positive rays or chunks of ray pairs
# are sized so that block x |N| or chunk x (number of rays) masks fit in it.
_DD_WORDS = 1 << 16


def _adjacent_pairs(masks: np.ndarray, pos: np.ndarray, neg: np.ndarray, K: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adjacent (positive, negative) ray pairs, positive-major, and the
    mask of the rows tight at both rays of each.

    Pairs with fewer than K - 2 common tight rows are dropped first, over
    blocks of positive rays; a surviving pair is adjacent when no third ray
    is tight on every row tight at both, that is when every other ray
    misses one of those rows.
    """
    n_rays, words = masks.shape
    untight = ~masks
    found = []
    block = max(1, _DD_WORDS // (words * neg.size))
    chunk = max(1, _DD_WORDS // (words * n_rays))
    for start in range(0, pos.size, block):
        p = pos[start:start + block]
        common = masks[p, None] & masks[neg]
        i, j = (np.bitwise_count(common).sum(axis=2) >= K - 2).nonzero()
        common = common[i, j]
        for first in range(0, i.size, chunk):
            part = slice(first, first + chunk)
            missing = (common[part, None] & untight).any(axis=2).sum(axis=1)
            adjacent = (missing == n_rays - 2).nonzero()[0] + first
            found.append((p[i[adjacent]], neg[j[adjacent]], common[adjacent]))
    if len(found) == 1:
        return found[0]
    if not found:  # no pair passed the prefilter
        return pos[:0], neg[:0], masks[:0]
    return tuple(np.concatenate(parts) for parts in zip(*found))


def _double_description(G: np.ndarray, start: np.ndarray, tol: float,
                        normalize: Callable[[np.ndarray], np.ndarray],
                        max_rays: int | None) -> np.ndarray:
    """Incremental double description of the cone ``{x : G x >= 0}``.

    The first K rows of ``G`` are independent and the columns of ``start``,
    a positive multiple of the inverse of that block, are the rays of the
    starting simplicial cone; each later row cuts the cone once.  Rays are
    the rows of one array, and a ray's mask, one row of packed ``uint64``
    words, holds the rows it makes tight: row t is bit ``t & 63`` of word
    ``t >> 6``.  The same loop runs on float arrays with a tolerance, rays
    scaled to unit max-abs, and on integer arrays (int64 or Python ints in
    object arrays, as ``G`` is) with ``tol = 0``, rays divided by the gcd of
    their entries: a combination of two integer rays is an integer ray, so
    no entry is ever a fraction.  ``normalize`` puts each row in that form.
    A row's values on integer rays come from one matrix product
    ``rays @ g``: integer sums are exact in any order, and over object
    arrays the product costs about a quarter of ``np.vecdot``.  On float
    rays they come from ``np.vecdot``, one dot product per ray, which keeps
    the bits of a ray-by-ray ``g @ r`` loop; a matrix product sums in
    another order and changes the vertex bytes.

    A ray that is nonnegative on every row not yet processed is extreme in
    the final cone, so once there are more than ``max_rays`` rays, their
    count is a lower bound on the final count; BudgetExceededError is
    raised as soon as it passes ``max_rays``.
    """
    n_rows, K = G.shape
    # contiguous rows: a dot product over a strided row sums in another
    # order, and the float vertex bytes change
    rays = normalize(np.ascontiguousarray(start.T))
    # start ray j is tight on the first K rows but row j
    masks = np.zeros((K, (n_rows + 63) // 64), dtype=np.uint64)
    for word in range((K + 63) // 64):
        masks[:, word] = (1 << min(64, K - 64 * word)) - 1
    first = np.arange(K)
    masks[first, first >> 6] ^= np.uint64(1) << (first & 63).astype(np.uint64)

    for t in range(K, n_rows):
        values = np.vecdot(G[t], rays) if rays.dtype == float else rays @ G[t]
        pos, neg = values > tol, values < -tol
        word, bit = t >> 6, np.uint64(1 << (t & 63))
        # rays on the row become tight there; the rows common to a positive
        # and a negative ray never include it
        masks[:, word] |= ~(pos | neg) * bit
        n_idx = neg.nonzero()[0]
        if not n_idx.size:
            continue
        p_idx, n_idx, common = _adjacent_pairs(masks, pos.nonzero()[0], n_idx, K)
        new_rays = normalize(values[p_idx][:, None] * rays[n_idx]
                             - values[n_idx][:, None] * rays[p_idx])
        common[:, word] |= bit
        keep = ~neg
        rays = np.concatenate([rays[keep], new_rays])
        masks = np.concatenate([masks[keep], common])
        if max_rays is not None and rays.shape[0] > max_rays:
            # half the tolerance: a ray counted here is nonnegative within
            # tol on each later row whatever the order of summation
            bound = int(np.all(G[t + 1:] @ rays.T >= -tol / 2, axis=0).sum())
            if bound > max_rays:
                raise BudgetExceededError(
                    f"cone has at least {bound} extreme rays (budget {max_rays})"
                )
    return rays


def _within_budget(rays, max_rays: int | None):
    """``rays`` unchanged, or BudgetExceededError if there are more than
    ``max_rays``: the early stop in ``_double_description`` sees only the
    rays that every later row keeps."""
    if max_rays is not None and len(rays) > max_rays:
        raise BudgetExceededError(f"cone has {len(rays)} extreme rays (budget {max_rays})")
    return rays


def dual_cone_rays(generators: np.ndarray, tol: float | None = None,
                   max_rays: int | None = None) -> np.ndarray:
    """Extreme rays of the pointed cone ``{x : generators @ x >= 0}``.

    Requires the generator rows to span the full space (otherwise the cone
    contains a line and has no extreme rays).  Rays are scaled to unit
    max-abs and returned in lexicographic order.  BudgetExceededError is
    raised when there are more than ``max_rays`` rays, as soon as the
    enumeration shows it.
    """
    tol = resolve_tol(tol)
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    if not np.all(np.isfinite(G)):
        raise ValidationError("non-finite generator entry")
    K = G.shape[1]
    scales = np.max(np.abs(G), axis=1)
    if np.any(scales == 0):
        raise ValidationError("zero generator row")
    G = G / scales[:, None]

    chosen = _independent_rows(G, tol)
    if len(chosen) < K:
        raise ValidationError("generators do not span the space; dual cone is not pointed")
    G = G[chosen + [i for i in range(G.shape[0]) if i not in chosen]]

    rays = _double_description(G, np.linalg.inv(G[:K]), tol, _unit_max_abs, max_rays)
    if rays.shape[0] == 0:
        return np.zeros((0, K))
    return _within_budget(canonicalize_vertices(rays, tol=tol), max_rays)


def _exact_dtype(G: list[list[int]]) -> type:
    """int64 when no step of the exact double description on the primitive
    integer rows ``G`` can overflow it, else object (Python ints).

    With L = max‖g‖₁ and S = max‖g‖₂² over the rows g of K entries, the test
    is 2·L·(S + 1)^K < 2^63, and it bounds every integer formed:

    - every ray the loop holds is a primitive extreme ray of the cone cut
      out by the rows processed so far, the kernel of K - 1 independent
      rows among them; its entries divide the (K - 1)-minors of those rows,
      at most S^((K-1)/2) by Hadamard's inequality;
    - a row's value v on a ray is then at most L·S^((K-1)/2) (so are the
      partial sums of ``rays @ g``), and a new ray ``v_p r_n - v_n r_p``
      before its gcd division at most 2·L·S^(K-1);
    - every entry of ``_bareiss_start_rays`` is a minor of ``[B | I]``,
      whose rows have ‖·‖₂² ≤ S + 1, so at most (S + 1)^(K/2), and each
      product difference before its exact division at most 2·(S + 1)^K.
    """
    K = len(G[0])
    L = max(sum(map(abs, g)) for g in G)
    S = max(sum(x * x for x in g) for g in G)
    return np.int64 if 2 * L * (S + 1) ** K < 2**63 else object


def dual_cone_rays_exact(generators, max_rays: int | None = None) -> list[tuple[int, ...]]:
    """Exact double description for integral or rational generators.

    Rows are scaled to primitive integer rows and independent rows picked by
    Bareiss elimination on Python ints.  The starting cone (the signed
    adjugate of that block) and the loop then run on int64 where a Hadamard
    bound shows no entry can overflow it (``_exact_dtype``), and on numpy
    object arrays of Python ints otherwise; both give the same rays.
    Returns the extreme rays as primitive integer tuples (entries with gcd
    1), sorted.  BudgetExceededError is raised as in ``dual_cone_rays``.
    """
    G = _integer_rows(generators)
    chosen = _bareiss_independent_rows(G) if G else []
    if not chosen or len(chosen) < len(G[0]):
        raise ValidationError("generators do not span the space; dual cone is not pointed")
    K = len(chosen)
    G = np.array([G[i] for i in chosen + [i for i in range(len(G)) if i not in chosen]],
                 dtype=_exact_dtype(G))

    rays = _double_description(G, _bareiss_start_rays(G[:K]), 0, _primitive, max_rays)
    return _within_budget(sorted(set(map(tuple, rays.tolist()))), max_rays)


def extremal_effect_vectors(vertices: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Extreme points of ``{f : 0 <= f·v <= 1 for every vertex v}``.

    Computed by homogenizing the effect polytope into a pointed cone in one
    extra dimension and enumerating its extreme rays.
    """
    tol = resolve_tol(tol)
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    nv, K = verts.shape
    rows = np.zeros((2 * nv + 1, K + 1))
    rows[:nv, :K] = verts
    rows[nv : 2 * nv, :K] = -verts
    rows[nv : 2 * nv, K] = 1.0
    rows[2 * nv, K] = 1.0
    rays = dual_cone_rays(rows, tol=tol)
    if np.any(rays[:, K] <= tol):
        raise ValidationError("effect polytope enumeration produced a recession ray")
    effects = rays[:, :K] / rays[:, K : K + 1]
    return canonicalize_vertices(effects, tol=tol)


def vertex_permutation(vertices: np.ndarray, matrix: np.ndarray, tol: float
                       ) -> np.ndarray | None:
    """The permutation ``p`` such that ``matrix`` sends each vertex i to within
    ``100 * tol`` of vertex p[i] in every coordinate, when the nearest
    vertices so found are distinct; otherwise None."""
    error = np.abs((vertices @ matrix.T)[:, None, :] - vertices[None]).max(axis=2)
    perm = error.argmin(axis=1)
    nv = vertices.shape[0]
    if (error[np.arange(nv), perm].max() <= 100 * tol
            and np.bincount(perm, minlength=nv).max() == 1):
        return perm
    return None


# Nodes a vertex-symmetry search may spend, one per image the backtracking
# tries and one per product formed: the 46,080 symmetries of the 6-cube fit,
# the 645,120 of the 7-cross do not.
SYMMETRY_NODE_BUDGET = 200_000


def vertex_symmetries(vertices: np.ndarray, tol: float | None, node_budget: int) -> np.ndarray:
    """Vertex permutations induced by invertible linear maps, one per row.

    The rows come in lexicographic order of the images of a basis b_0, b_1,
    .. among the vertices, which fix the linear map.  The search runs on the
    whitened vertices: the rows of U in the thin SVD V = U S Wᵀ, with the
    rank cut at ``tol``.  Their Gram matrix
    U Uᵀ = V (VᵀV)⁺ Vᵀ is invariant under every linear map that permutes the
    vertices, so the search prunes on its rounded entries (Bremner, Dutour
    Sikirić, Pasechnik, Rehn & Schürmann, LMS J. Comput. Math. 17, 2014).

    The group G is found along its stabilizer chain (Seress, Permutation
    Group Algorithms, 2003, ch. 4): G_i fixes b_0..b_{i-1}, and every element
    of G is one product t_0 ∘ t_1 ∘ .. with t_i from a transversal T_i of
    G_{i+1} in G_i.  For each image j of b_i that passes the Gram filter
    with b_0..b_{i-1} fixed, backtracking over the images of b_{i+1}, ..
    finds one completion, a map that ``vertex_permutation`` accepts in the
    original coordinates; the identity stands for j = b_i.  This visits
    about Σ|T_i| leaves where a search of the whole tree visits |G|.  The
    products are then formed level by level, one array step per level, and
    each is checked once more: its basis images must have the Gram
    signatures of the basis, and the linear map they fix must send every
    vertex within ``100 * tol`` of its image.  On vertices that are
    symmetric only to within the tolerance, the accepted maps need not form
    a group; products that fail the check are left out.

    Each image tried by the backtracking is one node, and each product
    formed is one more; BudgetExceededError is raised once the backtracking
    passes ``node_budget`` nodes, or before the products are formed if they
    would.
    """
    tol = resolve_tol(tol)
    verts = np.atleast_2d(np.asarray(vertices, dtype=float))
    u, svals, _ = np.linalg.svd(verts, full_matrices=False)
    white = u[:, : int(np.sum(svals > tol * max(1.0, svals[0])))]
    # comparisons at the run tolerance: coarser tol admits symmetries of
    # approximately symmetric vertex data
    digits = max(1, int(np.floor(-np.log10(100.0 * tol))))
    gram = np.round(white @ white.T, digits) + 0.0
    signature = np.column_stack([np.diag(gram), np.sort(gram, axis=1)])
    basis = _independent_rows(white, tol)
    basis_pinv = np.linalg.pinv(verts[basis].T)
    nv = verts.shape[0]
    alike = np.array([(signature == signature[a]).all(axis=1) for a in basis]).reshape(-1, nv)
    fits = _image_filter(gram, alike, basis)
    nodes = 0

    def visit() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"symmetry search exceeded {node_budget} nodes")

    def completion(images: list[int]) -> np.ndarray | None:
        """The first accepted permutation, in the order of the backtracking,
        that sends b_0.. to ``images``."""
        if len(images) == len(basis):
            return vertex_permutation(verts, verts[images].T @ basis_pinv, tol)
        pending = [fits(images)]  # untried images, one list per basis vertex
        while pending:
            if not pending[-1]:
                pending.pop()
                if pending:
                    images.pop()
                continue
            visit()
            j = pending[-1].pop()
            if len(images) + 1 < len(basis):
                images.append(j)
                pending.append(fits(images))
                continue
            perm = vertex_permutation(verts, verts[images + [j]].T @ basis_pinv, tol)
            if perm is not None:
                return perm
        return None

    def accepted(perms: np.ndarray) -> np.ndarray:
        """Mask of the rows p that send each basis vertex to one alike to it
        and whose linear map sends every vertex i within ``100 * tol`` of
        vertex p[i] in every coordinate, in blocks of rows."""
        ok = np.empty(perms.shape[0], dtype=bool)
        for s in range(0, perms.shape[0], _CHECK_BLOCK_ROWS):
            block = perms[s : s + _CHECK_BLOCK_ROWS]
            images = block[:, basis]
            maps = np.swapaxes(verts[images], 1, 2) @ basis_pinv
            error = np.abs(verts @ np.swapaxes(maps, 1, 2) - verts[block]).max(axis=(1, 2))
            ok[s : s + _CHECK_BLOCK_ROWS] = ((error <= 100 * tol)
                                             & alike[np.arange(len(basis)), images].all(axis=1))
        return ok

    identity = np.arange(nv)
    transversals = []  # T_i, one verified symmetry per image of b_i
    for i, b in enumerate(basis):
        fixed = basis[:i]
        level = []
        for j in fits(fixed):
            visit()
            perm = identity if j == b else completion(fixed + [j])
            if perm is not None:
                level.append(perm)
        transversals.append(np.array(level))

    # the products of t_0..t_i, formed at each level i with |T_i| > 1
    sizes = [len(t) for t in transversals]
    formed = sum(math.prod(sizes[: i + 1]) for i, size in enumerate(sizes) if size > 1)
    if nodes + formed > node_budget:
        raise BudgetExceededError(
            f"symmetry search needs {nodes + formed} nodes (budget {node_budget})")

    elements = _chain_products(transversals, basis, nv)
    return elements[accepted(elements)]


def _image_filter(gram: np.ndarray, alike: np.ndarray, basis: list[int]
                  ) -> Callable[[list[int]], list[int]]:
    """The Gram filter of ``vertex_symmetries``: ``fits(images)`` lists,
    from the highest index down, the vertices w outside ``images`` alike to
    b_i, i = len(images), with gram[w, images[k]] == gram[b_i, b_k] for
    every k < i.

    The filter works on Python-int bitmasks over the vertices, bit w for
    vertex w: one of the vertices alike to each b_i, and for each k < i and
    each vertex v one of the w != v with gram[w, v] == gram[b_i, b_k], read
    from the column gram[:, v] and shared by the pairs with one Gram value.
    An image v of b_k has its own bit cleared in the masks it selects, so
    no vertex is an image twice.
    """
    alike_bits = bitmask_rows(alike)
    by_value = {}  # Gram value g -> row v: the w != v with gram[w, v] == g

    def masks(g: float) -> list[int]:
        if g not in by_value:
            same = gram.T == g
            np.fill_diagonal(same, False)
            by_value[g] = bitmask_rows(same)
        return by_value[g]

    gram_bits = [[masks(gram[b, basis[k]]) for k in range(i)] for i, b in enumerate(basis)]

    def fits(images: list[int]) -> list[int]:
        i = len(images)
        ok = alike_bits[i]
        for row, v in zip(gram_bits[i], images):
            ok &= row[v]
        found = []
        while ok:
            j = ok.bit_length() - 1
            found.append(j)
            ok ^= 1 << j
        return found

    return fits


def bitmask_rows(mask: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a Python int, bit w for column w."""
    packed = np.packbits(mask, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _chain_products(transversals: list[np.ndarray], basis: list[int], nv: int) -> np.ndarray:
    """The products t_0 ∘ t_1 ∘ .. with t_i a row of ``transversals[i]``, in
    lexicographic order of their images of ``basis``."""
    elements = np.arange(nv)[None, :]
    for b, level in zip(basis, transversals):
        if len(level) > 1:
            products = elements[:, level]  # prefix ∘ t for every t in the level
            order = np.argsort(products[:, :, b], axis=1)
            elements = np.take_along_axis(products, order[:, :, None], axis=1)
            elements = elements.reshape(-1, nv)
    return elements


def brute_force_dual_cone_rays(generators: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Independent oracle: rays from null spaces of (K-1)-subsets of generators."""
    tol = resolve_tol(tol)
    G = np.atleast_2d(np.asarray(generators, dtype=float))
    R, K = G.shape
    found: list[np.ndarray] = []
    for subset in combinations(range(R), K - 1):
        sub = G[list(subset)]
        _, svals, vt = np.linalg.svd(sub)
        if np.sum(svals > tol * max(1.0, svals[0] if svals.size else 1.0)) != K - 1:
            continue
        d = vt[-1]
        for cand in (d, -d):
            if np.all(G @ cand >= -tol * 10):
                active = np.abs(G @ cand) <= 10 * tol
                if np.sum(active) >= K - 1 and affine_dimension(
                    np.vstack([np.zeros(K), G[active]])
                ) == K - 1:
                    found.append(cand / np.max(np.abs(cand)))
                break
    if not found:
        return np.zeros((0, K))
    return canonicalize_vertices(np.array(found), tol=1e-7)


def brute_force_polytope_vertices(
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray | None = None,
    b_eq: np.ndarray | None = None,
    tol: float | None = None,
) -> np.ndarray:
    """Independent oracle: enumerate basic feasible points of an H-polytope."""
    tol = resolve_tol(tol)
    A = np.atleast_2d(np.asarray(a_ub, dtype=float))
    b = np.asarray(b_ub, dtype=float)
    K = A.shape[1]
    if a_eq is None:
        Ae = np.zeros((0, K))
        be = np.zeros(0)
    else:
        Ae = np.atleast_2d(np.asarray(a_eq, dtype=float))
        be = np.asarray(b_eq, dtype=float)
    n_free = K - Ae.shape[0]
    found: list[np.ndarray] = []
    for subset in combinations(range(A.shape[0]), n_free):
        M = np.vstack([Ae, A[list(subset)]])
        rhs = np.concatenate([be, b[list(subset)]])
        try:
            x = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.all(A @ x <= b + 10 * tol):
            found.append(x)
    if not found:
        return np.zeros((0, K))
    return canonicalize_vertices(np.array(found), tol=1e-7)
