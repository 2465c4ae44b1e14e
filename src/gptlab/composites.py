"""Bipartite composition: min/max tensor spaces, marginals, conditionals,
no-signalling checks and CHSH evaluation.

Bipartite states live in the Kronecker product of the part ambients, indexed
row-major by coordinate pairs; coordinate (0, 0) is the normalization
coordinate, and the composite unit effect is the product of the part units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gptlab import quantum
from gptlab.config import resolve_tol
from gptlab.errors import (
    DimensionMismatchError,
    UnsupportedRepresentationError,
    ZeroProbabilityConditioningError,
)
from gptlab.convex import (
    BallRep,
    Measurement,
    PolytopeRep,
    QuantumRep,
    SimplexRep,
    StateSpace,
    affine_dim_of,
    sample_pure_state,
    sample_state,
    unit_effect_vector,
    vertices_of,
)
from gptlab.discrimination import (
    DistinguishabilityWitness,
    capacity,
    complete_measurement,
    verify_witness,
)
from gptlab.geometry import affine_dimension, dual_cone_rays, dual_cone_rays_exact
from gptlab.symmetry import (
    FiniteMatrixGroup,
    PermutationGroup,
    _group_matrices,
    _orbit,
    maximally_mixed,
)

MIN_TENSOR = "min"
MAX_TENSOR = "max"

MAX_COMPOSITE_VERTICES = 4096


def _kron_last(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kronecker product of the last axes, broadcast over the leading ones."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    outer = x[..., :, None] * y[..., None, :]
    return outer.reshape(outer.shape[:-2] + (-1,))


def product_state(omega_a: np.ndarray, omega_b: np.ndarray) -> np.ndarray:
    """Independent preparation: the Kronecker product of the coordinate
    vectors, taken row by row over any leading axes."""
    return _kron_last(omega_a, omega_b)


def product_effect(effect_a: np.ndarray, effect_b: np.ndarray) -> np.ndarray:
    """Independent local measurement outcome; evaluation factorizes exactly.
    Broadcasts over leading axes like ``product_state``."""
    return _kron_last(effect_a, effect_b)


def _is_finite(space: StateSpace) -> bool:
    return isinstance(space.rep, (PolytopeRep, SimplexRep))


@dataclass(frozen=True)
class Composite:
    """A bipartite state space tagged with its composition rule.

    ``space`` is an explicit polytope when both parts have finite vertex
    lists; composites of ball/quantum parts are handled constructively
    (products, marginals, conditionals) and by membership queries.
    """

    part_a: StateSpace
    part_b: StateSpace
    rule: str
    space: StateSpace | None

    @property
    def k_a(self) -> int:
        return self.part_a.ambient_dim

    @property
    def k_b(self) -> int:
        return self.part_b.ambient_dim

    @property
    def ambient_dim(self) -> int:
        return self.k_a * self.k_b

    @property
    def unit_effect(self) -> np.ndarray:
        return unit_effect_vector(self.ambient_dim)


def _cone_rays(space: StateSpace, tol: float) -> np.ndarray | None:
    """Extreme rays of a part's effect cone (facets of its state cone); None
    for ball and quantum parts, whose cones are not polyhedral from K = 3 on."""
    if isinstance(space.rep, (BallRep, QuantumRep)):  # ball(1): (1, ±1); quantum(1): (1)
        k = space.ambient_dim
        return np.array([[1.0, 1.0], [1.0, -1.0]])[:k, :k] if k <= 2 else None
    return dual_cone_rays(vertices_of(space), tol=tol)


def _part_cone_rays(a: StateSpace, b: StateSpace, tol: float):
    """``_cone_rays`` of both parts, enumerated once when they are one space."""
    rays_a = _cone_rays(a, tol)
    return rays_a, rays_a if b is a else _cone_rays(b, tol)


def _integral(arr: np.ndarray) -> bool:
    return bool(np.max(np.abs(arr - np.round(arr))) < 1e-12)


def compose(a: StateSpace, b: StateSpace, rule: str, tol: float | None = None) -> Composite:
    """Build the min- or max-tensor composite of two state spaces.

    Min tensor: convex hull of all products of part vertices (separable
    states).  Max tensor: every normalized vector that is nonnegative on all
    product effects; vertices enumerated by double description from the
    product-effect inequalities.  Integral cases up to K = 16 run the exact
    path on primitive integer rays; dividing by the first (normalization)
    entry with ``int / int`` rounds each coordinate correctly.  The
    enumeration raises BudgetExceededError as soon as it shows more than
    ``MAX_COMPOSITE_VERTICES`` vertices.
    """
    tol = resolve_tol(tol)
    if rule not in (MIN_TENSOR, MAX_TENSOR):
        raise ValueError(f"unknown composition rule {rule!r}")
    if not (_is_finite(a) and _is_finite(b)):
        return Composite(a, b, rule, space=None)
    name = f"{rule}({a.name},{b.name})"
    k = a.ambient_dim * b.ambient_dim

    if rule == MIN_TENSOR:
        prods = product_state(vertices_of(a)[:, None], vertices_of(b)[None]).reshape(-1, k)
        return Composite(a, b, rule, space=StateSpace(name=name, rep=PolytopeRep(prods)))

    rays_a, rays_b = _part_cone_rays(a, b, tol)
    rows = product_effect(rays_a[:, None], rays_b[None]).reshape(-1, k)
    if _integral(rows) and rows.shape[1] <= 16:
        ints = dual_cone_rays_exact(np.round(rows).astype(int),
                                    max_rays=MAX_COMPOSITE_VERTICES)
        rays = np.array([[x / r[0] for x in r] for r in ints])
    else:
        raw = dual_cone_rays(rows, tol=tol, max_rays=MAX_COMPOSITE_VERTICES)
        if np.any(raw[:, 0] <= tol):
            raise UnsupportedRepresentationError(
                "max tensor enumeration produced an unnormalizable ray"
            )
        rays = raw / raw[:, 0:1]
    return Composite(a, b, rule, space=StateSpace(name=name, rep=PolytopeRep(rays)))


# ---------------------------------------------------------------------------
# Marginals and conditionals
# ---------------------------------------------------------------------------

def _check_dim(c: Composite, omega: np.ndarray) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (c.ambient_dim,):
        raise DimensionMismatchError(
            f"bipartite vector of shape {omega.shape}, expected ({c.ambient_dim},)"
        )
    return omega


def contract_b(c: Composite, omega: np.ndarray, effect_b: np.ndarray) -> np.ndarray:
    """(Id_A (x) E_B)(omega): the unnormalized A-vector after outcome E_B."""
    omega = _check_dim(c, omega)
    return omega.reshape(c.k_a, c.k_b) @ np.asarray(effect_b, dtype=float)


def contract_a(c: Composite, omega: np.ndarray, effect_a: np.ndarray) -> np.ndarray:
    omega = _check_dim(c, omega)
    return np.asarray(effect_a, dtype=float) @ omega.reshape(c.k_a, c.k_b)


def reduced_state(c: Composite, omega: np.ndarray, side: str = "A") -> np.ndarray:
    """Marginal on one side: contraction of the other index with the unit effect."""
    if side == "A":
        return contract_b(c, omega, unit_effect_vector(c.k_b))
    if side == "B":
        return contract_a(c, omega, unit_effect_vector(c.k_a))
    raise ValueError("side must be 'A' or 'B'")


def conditional_state(c: Composite, omega: np.ndarray, effect: np.ndarray,
                      side: str = "B", tol: float | None = None) -> np.ndarray:
    """State left on the opposite side after observing ``effect`` on ``side``."""
    tol = resolve_tol(tol)
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    raw = contract_b(c, omega, effect) if side == "B" else contract_a(c, omega, effect)
    weight = raw[0]
    if weight <= tol:
        raise ZeroProbabilityConditioningError(
            f"conditioning probability {weight:.3e} below tolerance"
        )
    return raw / weight


# ---------------------------------------------------------------------------
# No-signalling and CHSH
# ---------------------------------------------------------------------------

def no_signalling_check(c: Composite, omega: np.ndarray, measurements_b,
                        tol: float | None = None) -> bool:
    """The A-marginal reconstructed outcome-by-outcome must not depend on the
    B measurement choice (within tol)."""
    tol = resolve_tol(tol)
    marginals = []
    for m in measurements_b:
        if m.ambient_dim != c.k_b:
            raise DimensionMismatchError("measurement does not act on part B")
        total = np.zeros(c.k_a)
        for effect in m.effects:
            total = total + contract_b(c, omega, effect)
        marginals.append(total)
    for i in range(len(marginals)):
        for j in range(i + 1, len(marginals)):
            if np.max(np.abs(marginals[i] - marginals[j])) > tol:
                return False
    return True


def _observables(measurements, k: int, side: str) -> np.ndarray:
    """Rows e_0 - e_1: the +-1 observable of each two-outcome setting."""
    if len(measurements) != 2:
        raise ValueError("CHSH needs two settings per side")
    for m in measurements:
        if m.n_outcomes != 2:
            raise ValueError("CHSH settings must be two-outcome measurements")
        if m.ambient_dim != k:
            raise DimensionMismatchError(
                f"setting of length {m.ambient_dim} does not act on part {side} (K = {k})"
            )
    return np.array([m.effects[0] - m.effects[1] for m in measurements])


def chsh_value(c: Composite, omega: np.ndarray, a_measurements, b_measurements):
    """|<A0B0> + <A0B1> + <A1B0> - <A1B1>| with the first effect of each
    two-outcome measurement valued +1.

    With Omega the K_A x K_B matrix of ``omega``, <AxBy> = alpha_x^T Omega
    beta_y.  One state gives a float; a stack of states, one per row, gives
    an array of values.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim not in (1, 2) or omega.shape[-1] != c.ambient_dim:
        raise DimensionMismatchError(
            f"bipartite vector of shape {omega.shape}, expected (..., {c.ambient_dim})"
        )
    alpha = _observables(a_measurements, c.k_a, "A")
    beta = _observables(b_measurements, c.k_b, "B")
    corr = alpha @ omega.reshape(omega.shape[:-1] + (c.k_a, c.k_b)) @ beta.T
    value = np.abs(corr[..., 0, 0] + corr[..., 0, 1] + corr[..., 1, 0] - corr[..., 1, 1])
    return float(value) if omega.ndim == 1 else value


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def local_tomography_check(c: Composite, tol: float | None = None) -> bool:
    """Product effects separate states iff the composite spans K_A*K_B - 1
    affine dimensions."""
    tol = resolve_tol(tol)
    if c.space is not None:
        return affine_dimension(vertices_of(c.space), tol) == c.ambient_dim - 1
    # the product states span span(S_A) ⊗ span(S_B)
    return all(affine_dim_of(part) == part.ambient_dim - 1 for part in (c.part_a, c.part_b))


def maximally_mixed_composite(c: Composite, tol: float | None = None) -> np.ndarray:
    """Group-invariant composite state.

    For finite local groups this is an honest orbit average of a composite
    pure state under local product transformations; for parametric parts the
    closed-form product is the group average (the averaging projector
    factorizes).
    """
    ga, gb = c.part_a.group, c.part_b.group
    finite = isinstance(ga, (FiniteMatrixGroup, PermutationGroup)) and isinstance(
        gb, (FiniteMatrixGroup, PermutationGroup)
    )
    if finite and c.space is not None:
        eye_a = np.eye(c.k_a)
        eye_b = np.eye(c.k_b)
        gens = [np.kron(m, eye_b) for m in _group_matrices(ga)]
        gens += [np.kron(eye_a, m) for m in _group_matrices(gb)]
        return np.mean(_orbit(vertices_of(c.space)[-1], gens), axis=0)
    return product_state(maximally_mixed(c.part_a), maximally_mixed(c.part_b))


@dataclass(frozen=True)
class MultiplicativityResult:
    product_bound: int                 # N_A * N_B, witnessed by product states
    witness: DistinguishabilityWitness
    composite_capacity: int | None     # full-search result; None if not attempted
    capacity_exact: bool               # False when the search ran out of budget
    ok: bool


def capacity_multiplicativity_check(c: Composite, full_search: bool = False,
                                    lp_budget: int | None = None,
                                    tol: float | None = None) -> MultiplicativityResult:
    """Verify that the parts' complete measurements combine into N_A*N_B
    jointly distinguishable product states; optionally confirm the composite
    capacity by full subset search (finite case, within budget).

    A budget-exhausted full search downgrades to the lower-bound-only result
    rather than reporting a failure.
    """
    tol = resolve_tol(tol)
    wa = complete_measurement(c.part_a, tol=tol)
    wb = complete_measurement(c.part_b, tol=tol)
    k = c.ambient_dim
    states = product_state(wa.states[:, None], wb.states[None]).reshape(-1, k)
    effects = product_effect(
        wa.measurement.effects[:, None], wb.measurement.effects[None]
    ).reshape(-1, k)
    witness = DistinguishabilityWitness(Measurement(effects), states)
    delta = effects @ states.T
    ok = bool(np.max(np.abs(delta - np.eye(states.shape[0]))) <= 10 * tol)
    if c.space is not None:
        ok = ok and verify_witness(c.space, witness, tol=tol)
    composite_capacity = None
    capacity_exact = False
    if full_search and c.space is not None:
        kwargs = {} if lp_budget is None else {"lp_budget": lp_budget}
        result = capacity(c.space, tol=tol, **kwargs)
        composite_capacity = result.n
        capacity_exact = result.exact
        if result.n is not None:
            ok = ok and result.n == states.shape[0]
    return MultiplicativityResult(
        states.shape[0], witness, composite_capacity, capacity_exact, ok
    )


# ---------------------------------------------------------------------------
# Membership for continuous-part max tensors
# ---------------------------------------------------------------------------

def max_tensor_contains(c: Composite, omega: np.ndarray, tol: float | None = None) -> bool:
    """Membership of ``omega`` in the max tensor of the parts of ``c``: each
    normalized product effect must be at least -tol.  A part with finitely
    many extreme effects f (a polytope, ball(1), quantum(1)) decides by the
    other part's least effect on f·Omega, Omega the K_A x K_B matrix of
    ``omega``; ball and qubit pairs go to ``_lorentz_positive``.
    """
    tol = resolve_tol(tol)
    omega = _check_dim(c, omega)
    if abs(omega[0] - 1.0) > tol or not np.all(np.isfinite(omega)):
        return False
    M = omega.reshape(c.k_a, c.k_b)
    rays_a, rays_b = _part_cone_rays(c.part_a, c.part_b, tol)
    if rays_a is not None:
        return all(_min_effect(c.part_b, rays_b, f @ M) >= -tol for f in rays_a)
    if rays_b is not None:
        return all(_min_effect(c.part_a, rays_a, M @ g) >= -tol for g in rays_b)
    L = _lorentz_scale(c.part_a)[:, None] * M * _lorentz_scale(c.part_b)
    L[0, 0] += tol  # now (1, u) L (1, v) >= 0 is the test, u and v unit vectors
    return _lorentz_positive(L) and _lorentz_positive(L.T)


def _lorentz_positive(L: np.ndarray) -> bool:
    """Whether f·L·g >= 0 on the Lorentz cones of L's rows and columns.

    S-lemma (Loewy & Schneider, 1975): with L e_0 in L_A, yes iff some mu in
    [0, Q_00] gives Q - mu J_A >= 0, Q = L J_B L^T, J = diag(1, -1, ..., -1).
    That value is about -d·|L^T f|/2 for an effect f at -d, so the effects
    L^T nearly annihilates, and e_0 (image: the marginal L^T e_0), are tested.
    """
    j_a, j_b = (np.diag(np.where(np.arange(k) == 0, 1.0, -1.0)) for k in L.shape)
    Q = L @ j_b @ L.T
    mu = np.linspace(0.0, max(Q[0, 0], 0.0), 33)
    for _ in range(14):  # keep the grid cells next to the best of 33 points
        least = np.linalg.eigvalsh(Q - mu[:, None, None] * j_a)[:, 0]
        k = int(np.argmax(least))
        mu = np.linspace(mu[max(k - 1, 0)], mu[min(k + 1, 32)], 33)
    U = np.linalg.svd(L)[0][:, ::-1]  # the directions L^T shrinks most come first
    Z = np.column_stack([U[:, :m] @ np.linalg.eigh(U[:, :m].T @ j_a @ U[:, :m])[1][:, -1]
                         for m in range(1, L.shape[0] + 1)])  # J-largest in each span; e_0 last
    Z *= np.where(Z[0] < 0, -1.0, 1.0) / np.maximum(np.linalg.norm(Z[1:], axis=0), 1e-300)
    V = np.hstack([Z[1:], Z[1:] / np.maximum(Z[0], 1.0)])
    W = L.T @ np.vstack([np.ones(V.shape[1]), V])  # images of (1, v) on and inside L_A
    rounding = 64 * np.finfo(float).eps * np.sum(L * L)  # of Q's entries and eigenvalues
    return bool(least[k] >= -rounding and np.all(W[0] >= np.linalg.norm(W[1:], axis=0)))


def _lorentz_scale(space: StateSpace) -> np.ndarray:
    """Coordinates of the extreme effects (1, u), |u| = 1: (1/2, u/sqrt(2)) on a qubit."""
    if isinstance(space.rep, QuantumRep) and space.rep.n > 2:
        raise UnsupportedRepresentationError(f"{space.name} needs a polyhedral max-tensor partner")
    s = np.sqrt(0.5) if isinstance(space.rep, QuantumRep) else 1.0
    return np.concatenate([[s * s], np.full(space.ambient_dim - 1, s)])


def _min_effect(space: StateSpace, rays: np.ndarray | None, w: np.ndarray) -> float:
    """Least value of f·w over the normalized extreme effects of the cone."""
    rep = space.rep
    if isinstance(rep, BallRep):
        return float(w[0] - np.linalg.norm(w[1:]))
    if isinstance(rep, QuantumRep):
        return float(np.linalg.eigvalsh(quantum.state_matrix(w, rep.n))[0])
    return float(np.min(rays @ w))


def sample_composite_state(c: Composite, rng: np.random.Generator) -> np.ndarray:
    """Random state of the composite (mixture of vertices / products)."""
    if c.space is not None:
        return sample_state(c.space, rng)
    weights = rng.dirichlet(np.ones(8))
    draws = [(sample_pure_state(c.part_a, rng), sample_pure_state(c.part_b, rng))
             for _ in range(8)]
    return weights @ product_state(*map(np.array, zip(*draws)))
