"""Built-in theories and the quantum/ball correspondence fixtures.

Four families: classical N-level simplices with permutation symmetry,
Euclidean ball bits with rotation symmetry, the square gbit with its
8-element dihedral group, and quantum N-level systems with unitary
conjugations.  Plus the linear map between ball-bit coordinates and qubit
density matrices, and the standard correlated bipartite fixtures.
"""

from __future__ import annotations

import numpy as np

from gptlab import quantum as qc
from gptlab.config import resolve_tol
from gptlab.errors import DomainError
from gptlab.convex import (
    BallRep,
    Measurement,
    PolytopeRep,
    QuantumRep,
    SimplexRep,
    StateSpace,
    validate_space,
)
from gptlab.symmetry import (
    FiniteMatrixGroup,
    PermutationGroup,
    RotationGroup,
    UnitaryGroup,
)

MAX_QUANTUM_LEVELS = 4


def classical(n: int) -> StateSpace:
    """Classical N-level system: the simplex of probability distributions."""
    if n < 1:
        raise DomainError("classical level count must be >= 1")
    space = StateSpace(name=f"classical({n})", rep=SimplexRep(n), group=PermutationGroup(n))
    validate_space(space)
    return space


def gbit_ball(d: int) -> StateSpace:
    """Generalized bit with a d-dimensional Euclidean ball state space."""
    if d < 1:
        raise DomainError("ball dimension must be >= 1")
    if d == 1:
        # S^0 = two points; the connected rotation group is trivial, so the
        # symmetry is the finite flip group.
        flip = np.diag([1.0, -1.0])
        group = FiniteMatrixGroup(np.stack([np.eye(2), flip]))
    else:
        group = RotationGroup(d)
    space = StateSpace(name=f"ball({d})", rep=BallRep(d), group=group)
    validate_space(space)
    return space


def _square_symmetries() -> np.ndarray:
    """The 8 symmetries of the unit square [0,1]^2 in homogeneous coordinates."""
    maps = [
        lambda x, y: (x, y),
        lambda x, y: (1 - y, x),
        lambda x, y: (1 - x, 1 - y),
        lambda x, y: (y, 1 - x),
        lambda x, y: (x, 1 - y),
        lambda x, y: (1 - x, y),
        lambda x, y: (y, x),
        lambda x, y: (1 - y, 1 - x),
    ]
    mats = []
    for f in maps:
        m = np.zeros((3, 3))
        m[0, 0] = 1.0
        cx, cy = f(0.0, 0.0)
        m[1, 0], m[2, 0] = cx, cy
        for col, (dx, dy) in ((1, f(1.0, 0.0)), (2, f(0.0, 1.0))):
            m[1, col] = dx - cx
            m[2, col] = dy - cy
        mats.append(m)
    return np.stack(mats)


def square_gbit() -> StateSpace:
    """The square state space: two independent binary effects X and Y."""
    verts = np.array([
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
    ])
    space = StateSpace(
        name="square", rep=PolytopeRep(verts), group=FiniteMatrixGroup(_square_symmetries())
    )
    validate_space(space)
    return space


def quantum(n: int) -> StateSpace:
    """Quantum N-level system in the real coordinate representation."""
    if n < 1:
        raise DomainError("quantum level count must be >= 1")
    if n > MAX_QUANTUM_LEVELS:
        raise DomainError(f"quantum levels capped at {MAX_QUANTUM_LEVELS}")
    space = StateSpace(name=f"quantum({n})", rep=QuantumRep(n), group=UnitaryGroup(n))
    validate_space(space)
    return space


def square_measurements() -> tuple[Measurement, Measurement]:
    """The two canonical binary measurements {X, 1-X} and {Y, 1-Y}."""
    x = Measurement(np.array([[0.0, 1.0, 0.0], [1.0, -1.0, 0.0]]))
    y = Measurement(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, -1.0]]))
    return x, y


# ---------------------------------------------------------------------------
# Bloch correspondence
# ---------------------------------------------------------------------------

def _bloch_basis_images() -> np.ndarray:
    """Images of the ball coordinate basis under omega -> (w0*I + what.sigma)/2."""
    mats = [np.eye(2, dtype=complex) / 2.0] + [s / 2.0 for s in qc.PAULI]
    return np.stack(mats)


_BLOCH_MATS = _bloch_basis_images()
_BLOCH_COORD_MAP = np.column_stack([qc.state_coords(m, 2) for m in _BLOCH_MATS])


def bloch_map(omega: np.ndarray) -> np.ndarray:
    """Ball(3) coordinates -> quantum(2) coordinates (linear bijection).

    Pure ball states map to rank-1 projectors; the ball center maps to the
    coordinates of I/2.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4,):
        raise DomainError("ball-bit vectors have 4 coordinates")
    return _BLOCH_COORD_MAP @ omega


def bloch2_matrix(x: np.ndarray) -> np.ndarray:
    """Apply the tensor square of the Bloch map to a 16-vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (16,):
        raise DomainError("two-bit vectors have 16 coordinates")
    grid = x.reshape(4, 4)
    mat = np.einsum("ij,iab,jcd->acbd", grid, _BLOCH_MATS, _BLOCH_MATS)
    return mat.reshape(4, 4)


def bloch2_isometry_check(x: np.ndarray, y: np.ndarray, tol: float | None = None) -> bool:
    """Tr(L2(x) L2(y)) must equal <x, y>/4 for the tensor-squared Bloch map."""
    tol = resolve_tol(tol)
    lhs = np.trace(bloch2_matrix(x) @ bloch2_matrix(y)).real
    rhs = 0.25 * float(np.asarray(x) @ np.asarray(y))
    return abs(lhs - rhs) <= tol


# ---------------------------------------------------------------------------
# Bipartite fixtures
# ---------------------------------------------------------------------------

def pr_box_state() -> np.ndarray:
    """The perfectly correlated extremal no-signalling state of two squares.

    Convention: outcome XOR equals the AND of the measurement choices
    (choice 0 = X, choice 1 = Y; outcome 1 = the first fiducial effect).
    The coordinates are exactly the fiducial joint probabilities.
    """
    grid = np.zeros((3, 3))
    grid[0, 0] = 1.0
    # uniform marginals
    grid[0, 1] = grid[0, 2] = grid[1, 0] = grid[2, 0] = 0.5
    for xa in (0, 1):
        for xb in (0, 1):
            # P(a=1, b=1 | xa, xb): correlated unless both choices are Y
            grid[1 + xa, 1 + xb] = 0.0 if xa and xb else 0.5
    return grid.reshape(-1)


def psi_u(u: float) -> np.ndarray:
    """Coordinates of |psi_u><psi_u| with |psi_u> = cos(u/2)|00> + sin(u/2)|11>."""
    if not 0.0 <= u < np.pi:
        raise DomainError("u must lie in [0, pi)")
    vec = np.zeros(4, dtype=complex)
    vec[0] = np.cos(u / 2.0)
    vec[3] = np.sin(u / 2.0)
    rho = np.outer(vec, vec.conj())
    return qc.composite_state_coords(rho, 2, 2)


def bell_state() -> np.ndarray:
    """The maximally entangled two-qubit state (Schmidt coefficients 1/sqrt2)."""
    return psi_u(np.pi / 2.0)


def qubit_measurement(direction: np.ndarray) -> Measurement:
    """Spin measurement {(I + n.sigma)/2, (I - n.sigma)/2} as effect vectors."""
    n = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(n)
    if not 0.0 < norm < np.inf:
        raise DomainError("measurement direction must be finite and nonzero")
    n = n / norm
    op = sum(ni * si for ni, si in zip(n, qc.PAULI))
    plus = qc.effect_coords((np.eye(2) + op) / 2.0, 2)
    minus = qc.effect_coords((np.eye(2) - op) / 2.0, 2)
    return Measurement(np.vstack([plus, minus]))


def tsirelson_settings() -> tuple[tuple[Measurement, Measurement], tuple[Measurement, Measurement]]:
    """Measurement settings attaining the quantum CHSH maximum on the Bell state."""
    a0 = qubit_measurement([0.0, 0.0, 1.0])
    a1 = qubit_measurement([1.0, 0.0, 0.0])
    s = 1.0 / np.sqrt(2.0)
    b0 = qubit_measurement([s, 0.0, s])
    b1 = qubit_measurement([-s, 0.0, s])
    return (a0, a1), (b0, b1)
