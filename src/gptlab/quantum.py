"""Hermitian operator bases and density-matrix <-> coordinate maps.

Coordinate convention for an N-level system (K = N^2 real coordinates):
``coords[0] = Tr(rho)`` (the normalization coordinate) and
``coords[i] = Tr(rho G_i)`` for the Hilbert-Schmidt-normalized traceless
basis ``G_1, ..., G_{N^2-1}``.  Reconstruction uses the dual basis
``rho = coords[0] * I/N + sum_i coords[i] * G_i``.  Effects pair Euclidean:
an operator ``E`` acts as the functional ``(Tr(E)/N, Tr(E G_1), ...)``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def _hs_normalize(mat: np.ndarray) -> np.ndarray:
    return mat / np.sqrt(np.trace(mat @ mat.conj().T).real)


@lru_cache(maxsize=None)
def gell_mann_basis(n: int) -> np.ndarray:
    """Traceless Hermitian basis with shape ``(n^2 - 1, n, n)``, HS norm 1.

    Order: symmetric off-diagonal, antisymmetric off-diagonal, diagonal; for
    ``n = 2`` this is ``(sigma_x, sigma_y, sigma_z) / sqrt(2)``.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    mats: list[np.ndarray] = []
    for k in range(1, n):
        for j in range(k):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(_hs_normalize(m))
    for k in range(1, n):
        for j in range(k):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(_hs_normalize(m))
    for ell in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(ell), np.arange(ell)] = 1.0
        m[ell, ell] = -float(ell)
        mats.append(_hs_normalize(m))
    basis = np.stack(mats, axis=0) if mats else np.zeros((0, n, n), dtype=complex)
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=None)
def coordinate_functional_basis(n: int) -> np.ndarray:
    """Operators pairing states to coordinates: ``[I, G_1, ..., G_{n^2-1}]``."""
    out = np.concatenate([np.eye(n, dtype=complex)[None], gell_mann_basis(n)], axis=0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def reconstruction_basis(n: int) -> np.ndarray:
    """Dual operators: ``[I/n, G_1, ...]`` with Tr(functional_i @ dual_j) = delta_ij."""
    out = np.concatenate([np.eye(n, dtype=complex)[None] / n, gell_mann_basis(n)], axis=0)
    out.setflags(write=False)
    return out


def state_coords(rho: np.ndarray, n: int) -> np.ndarray:
    """Real coordinate vector of a Hermitian matrix (length n^2)."""
    funcs = coordinate_functional_basis(n)
    return np.real(np.einsum("kij,ji->k", funcs, np.asarray(rho, dtype=complex)))


def state_matrix(coords: np.ndarray, n: int) -> np.ndarray:
    """Hermitian matrix reconstructed from a coordinate vector."""
    duals = reconstruction_basis(n)
    return np.einsum("k,kij->ij", np.asarray(coords, dtype=float), duals)


def effect_coords(op: np.ndarray, n: int) -> np.ndarray:
    """Functional vector of an effect operator: pairs as Tr(op @ rho)."""
    duals = reconstruction_basis(n)
    return np.real(np.einsum("kij,ji->k", duals, np.asarray(op, dtype=complex)))


def effect_matrix(f: np.ndarray, n: int) -> np.ndarray:
    """Effect operator reconstructed from a functional vector."""
    funcs = coordinate_functional_basis(n)
    return np.einsum("k,kij->ij", np.asarray(f, dtype=float), funcs)


def composite_state_coords(rho: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Coordinates of a bipartite density matrix in the product basis (row-major)."""
    fa = coordinate_functional_basis(n_a)
    fb = coordinate_functional_basis(n_b)
    rho4 = np.asarray(rho, dtype=complex).reshape(n_a, n_b, n_a, n_b)
    # X[(i,j)] = Tr(rho (F_i (x) F_j))
    return np.real(np.einsum("ica,jdb,abcd->ij", fa, fb, rho4).reshape(-1))


def composite_state_matrix(coords: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Bipartite density matrix reconstructed from product-basis coordinates."""
    da = reconstruction_basis(n_a)
    db = reconstruction_basis(n_b)
    X = np.asarray(coords, dtype=float).reshape(n_a * n_a, n_b * n_b)
    mat = np.einsum("ij,iac,jbd->abcd", X, da, db)
    d = n_a * n_b
    return mat.reshape(d, d)


def partial_trace(rho: np.ndarray, n_a: int, n_b: int, keep: str) -> np.ndarray:
    """Partial trace of a bipartite matrix; ``keep`` is "A" or "B"."""
    r = np.asarray(rho, dtype=complex).reshape(n_a, n_b, n_a, n_b)
    if keep == "A":
        return np.einsum("ikjk->ij", r)
    if keep == "B":
        return np.einsum("kikj->ij", r)
    raise ValueError("keep must be 'A' or 'B'")


def min_eigenvalue(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(mat)[0])


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (QR of a complex Ginibre matrix, phases fixed)."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_pure_density(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def unitary_coordinate_matrix(u: np.ndarray, n: int) -> np.ndarray:
    """K x K real matrix acting on coordinates as ``rho -> U rho U^dagger``."""
    duals = reconstruction_basis(n)
    conj = np.einsum("ab,kbc,dc->kad", u, duals, u.conj())
    cols = [state_coords(conj[k], n) for k in range(n * n)]
    return np.column_stack(cols)

