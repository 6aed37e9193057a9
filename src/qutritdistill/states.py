"""Rank-five symmetric two-qutrit state families and local transformations.

The five shared eigenvectors live in the symmetric subspace of C3 x C3:
three symmetrized level pairs, the 00-11 difference, and the traceless
diagonal direction 00+11-2*22. A family state fixes one eigenvalue at x and
splits the rest of the unit trace evenly across the other four eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

DIM_A = 3
DIM_B = 3
DIM = DIM_A * DIM_B
SCHMIDT_TOL = 1e-9  # Schmidt coefficients of the unit vector counted nonzero
SPAN_TOL = 1e-12  # singular values above SPAN_TOL max(1, the largest) span new directions


class OutOfRange(ValueError):
    pass


class ZeroVector(ValueError):
    pass


def basis_ket(a: int, b: int) -> np.ndarray:
    v = np.zeros(DIM, dtype=complex)
    v[DIM_B * a + b] = 1.0
    return v


# |a,b> -> |b,a>: the identity with rows DIM_B a + b and DIM_B b + a exchanged
SWAP = np.eye(DIM)[np.arange(DIM).reshape(DIM_A, DIM_B).T.reshape(DIM)]


def _symmetric_eigenvectors() -> np.ndarray:
    sym01 = (basis_ket(0, 1) + basis_ket(1, 0)) / np.sqrt(2)
    sym12 = (basis_ket(1, 2) + basis_ket(2, 1)) / np.sqrt(2)
    sym02 = (basis_ket(0, 2) + basis_ket(2, 0)) / np.sqrt(2)
    diag_diff = (basis_ket(0, 0) - basis_ket(1, 1)) / np.sqrt(2)
    diag_trace = (basis_ket(0, 0) + basis_ket(1, 1) - 2 * basis_ket(2, 2)) / np.sqrt(6)
    return np.vstack([sym01, sym12, sym02, diag_diff, diag_trace])


# The five shared eigenvectors as rows of a read-only (5, 9) array, in the
# order sym(0,1), sym(1,2), sym(0,2), (00 - 11)/sqrt2, (00 + 11 - 2*22)/sqrt6.
SYMMETRIC_BASIS = _symmetric_eigenvectors()
SYMMETRIC_BASIS.flags.writeable = False

# case id -> index of the distinguished basis vector in SYMMETRIC_BASIS
CASE_INDEX = {"i": 0, "ii": 3, "iii": 1, "iv": 2, "v": 4}
CASES = tuple(CASE_INDEX)


@dataclass(frozen=True)
class QutritState:
    """A 9x9 density matrix, with the family case and x that built it, if any."""

    rho: np.ndarray
    case_id: str | None = None
    x: float | None = None


@dataclass(frozen=True)
class LocalOperator:
    """A pair of local unitaries, one per qutrit; both are checked unitary."""

    op_a: np.ndarray
    op_b: np.ndarray

    def __post_init__(self):
        for op in (self.op_a, self.op_b):
            m = np.asarray(op, dtype=complex)
            if m.shape[0] != m.shape[1]:
                raise linalg.DimensionMismatch("unitary operators must be square")
            if np.abs(m @ m.conj().T - np.eye(m.shape[0])).max() > linalg.UNITARY_TOL:
                raise ValueError("local operator is not unitary")


# (flat positions, values) of the nonzero entries of each projector |v_k><v_k|
_PROJECTOR_ENTRIES = [(np.flatnonzero(p), p[p != 0])
                      for p in SYMMETRIC_BASIS[:, :, None] * SYMMETRIC_BASIS.conj()[:, None, :]]


def family_stack(case_id: str, xs) -> np.ndarray:
    """The density matrices of the case at every x of xs, as an (n, 9, 9)
    array: eigenvalue x on the case's distinguished eigenvector and
    (1-x)/4 on the other four. Every x must lie in the closed interval
    [0, 1]; the endpoints give rank four (x = 0) and rank one (x = 1).

    Each projector adds its nonzero entries, weighted, in basis order, so
    each entry sums its nonzero terms in ascending k from +0: 21 of the 81
    entries have any. That is bitwise the dense sum of the five weighted
    projectors: the products are the same, a sum that starts at +0 never
    becomes -0, and adding the dense sum's +-0 terms changes nothing."""
    if case_id not in CASE_INDEX:
        raise ValueError(f"unknown case {case_id!r}; expected one of {CASES}")
    xs = np.asarray(xs, dtype=float).reshape(-1)
    inside = (0.0 <= xs) & (xs <= 1.0)
    if not inside.all():
        raise OutOfRange(f"x={xs[~inside][0]} outside [0, 1]")
    # complex weights, as numpy casts them for a product with a complex entry
    lam = np.repeat(((1.0 - xs) / 4.0)[:, None], 5, axis=1).astype(complex)
    lam[:, CASE_INDEX[case_id]] = xs
    rho = np.zeros((len(xs), DIM, DIM), dtype=complex)
    flat = rho.reshape(len(xs), DIM * DIM)
    for k, (entries, values) in enumerate(_PROJECTOR_ENTRIES):
        flat[:, entries] += lam[:, k, None] * values
    return rho


def build_family(case_id: str, x: float) -> QutritState:
    """The family state of the case at x: family_stack at the one x."""
    return QutritState(rho=family_stack(case_id, x)[0], case_id=case_id, x=float(x))


def uniform_state_on_span(vectors) -> QutritState:
    """Equal-weight state on the span of the given 9-vectors, which may be
    dependent: a vector is kept when the kept ones with it have more
    singular values above SPAN_TOL max(1, the largest) than without it,
    and QR orthonormalizes the kept ones."""
    kept = []
    for v in vectors:
        cand = np.array(kept + [np.asarray(v, dtype=complex)])
        s = np.linalg.svd(cand, compute_uv=False)
        if np.count_nonzero(s > SPAN_TOL * max(1.0, s[0])) > len(kept):
            kept.append(cand[-1])
    if not kept:
        raise ZeroVector("span is empty")
    basis = np.linalg.qr(np.array(kept).T)[0]
    return QutritState(rho=(basis @ basis.conj().T) / len(kept))


def hadamard_on_01() -> np.ndarray:
    """Real orthogonal mixer of levels 0 and 1 (level 2 untouched)."""
    k = np.eye(3)
    k[0, 0] = k[0, 1] = k[1, 0] = 1 / np.sqrt(2)
    k[1, 1] = -1 / np.sqrt(2)
    return k


def phase_mix_on_01() -> np.ndarray:
    """Unitary sending levels 0,1 to their +-i phase mixtures, level 2 fixed."""
    k = np.eye(3, dtype=complex)
    k[0, 0], k[0, 1] = 1 / np.sqrt(2), 1j / np.sqrt(2)
    k[1, 0], k[1, 1] = 1 / np.sqrt(2), -1j / np.sqrt(2)
    return k


def apply_local(state: QutritState | np.ndarray, op: LocalOperator) -> np.ndarray:
    """(opA x opB) rho (opA x opB)^dag, not renormalized."""
    rho = state.rho if isinstance(state, QutritState) else np.asarray(state, dtype=complex)
    big = np.kron(np.asarray(op.op_a, dtype=complex), np.asarray(op.op_b, dtype=complex))
    if big.shape[1] != rho.shape[0]:
        raise linalg.DimensionMismatch(
            f"operator acts on dimension {big.shape[1]}, state has {rho.shape[0]}"
        )
    return big @ rho @ big.conj().T


def from_density(m: np.ndarray) -> QutritState:
    """Wrap an arbitrary density matrix (renormalized to unit trace), with no
    family label: only build_family labels a state."""
    rho = linalg.as_matrix(np.asarray(m, dtype=complex))
    linalg.check_hermitian(rho)
    rho = 0.5 * (rho + rho.conj().T)
    t = complex(np.trace(rho)).real
    if abs(t) < 1e-300:
        raise ZeroVector("trace is zero")
    return QutritState(rho=rho / t)


def range_kernel(state: QutritState | np.ndarray):
    """Orthonormal bases (columns) of the range and kernel of a PSD matrix:
    the eigenvectors whose eigenvalues are positive, and zero, by
    linalg.spectrum_signs."""
    rho = state.rho if isinstance(state, QutritState) else np.asarray(state, dtype=complex)
    dec = linalg.eig_hermitian(rho)
    mask = linalg.spectrum_signs(dec.values) > 0
    rng = dec.vectors[:, mask]
    ker = dec.vectors[:, ~mask]
    return rng, ker


def coefficient_matrix(v: np.ndarray) -> np.ndarray:
    vec = np.asarray(v, dtype=complex).reshape(-1)
    if vec.size != DIM:
        raise linalg.DimensionMismatch(f"vector length {vec.size} != {DIM}")
    return vec.reshape(DIM_A, DIM_B)


def schmidt_rank(v) -> int:
    """Count of Schmidt coefficients of the normalized v above SCHMIDT_TOL;
    ZeroVector for v = 0, linalg.NonFiniteValue for a non-finite entry."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    if not np.isfinite(vec).all():
        raise linalg.NonFiniteValue("cannot take the Schmidt rank of a non-finite vector")
    nrm = float(np.linalg.norm(vec))
    if nrm == 0.0:
        raise ZeroVector("cannot take the Schmidt rank of the zero vector")
    mat = coefficient_matrix(vec / nrm)
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(s > SCHMIDT_TOL))
