"""Dense complex linear algebra for bipartite qutrit analysis.

All functions take and return plain numpy arrays (complex double precision)
with value semantics: inputs are never mutated. Matrices here are small
(9x9 and below in practice, nothing beyond ~100x100), so everything runs on
numpy's LAPACK-backed dense routines, pencil_roots included: it reduces
det(m a + n b) = 0 to one standard eigenproblem. check_hermitian,
eig_hermitian, partial_transpose, kron_eye3, inertia_of_spectrum and pencil_roots also
take a stack of matrices (leading axes) and treat each matrix as the
single-matrix call does, with the same bits: numpy's batched LAPACK calls
run the same routine on each matrix of a stack.

Conventions:
    - bipartite vectors index as |a,b> -> position dimB*a + b (row-major);
    - partial_transpose and partial_trace act on C3 x C3, the transpose on
      the first (A) factor;
    - Hermitian eigenvalues come back ascending, singular values descending.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

HERM_TOL = 1e-12
UNITARY_TOL = 1e-10
MINOR_IMAG_TOL = 1e-10
PENCIL_TOL = 1e-12
RANK_TOL = 1e-10  # matrix_rank counts singular values above it
EYE3 = np.eye(3, dtype=complex)
EYE3.flags.writeable = False


class NotHermitian(ValueError):
    pass


class NotSymmetric(ValueError):
    pass


class NonRealMinor(ValueError):
    """A principal minor, or a closed form of one, came out with a
    non-negligible imaginary part."""


class DimensionMismatch(ValueError):
    pass


class NoConvergence(RuntimeError):
    pass


class NonFiniteValue(ValueError):
    """A value is not finite: an entry of an input matrix or vector, a
    parameter product of minors.compression_chunks, a compression of
    minors.build_projected, or a grid value of minors.scan. The package's
    one overflow error."""


class EigenDecomposition(NamedTuple):
    values: np.ndarray      # real, ascending
    vectors: np.ndarray     # orthonormal columns, vectors[:, k] pairs values[k]


class Inertia(NamedTuple):
    negative: int
    zero: int
    positive: int


class TakagiFactorization(NamedTuple):
    unitary: np.ndarray
    singular_values: np.ndarray   # nonnegative, descending


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={a.ndim}")
    return a


def _as_stack(m) -> np.ndarray:
    """m as a complex array of one matrix or a stack of them (ndim >= 2)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise DimensionMismatch(f"expected a matrix or a stack of them, got ndim={a.ndim}")
    return a


def _reject_non_finite(a: np.ndarray, error: type) -> None:
    if not np.isfinite(a).all():
        raise error(f"non-finite entries at {np.argwhere(~np.isfinite(a)).tolist()}")


def check_hermitian(m) -> np.ndarray:
    """Return m, one matrix or a stack of them, as an array, raising
    NotHermitian when a matrix has a non-finite entry or a big ||M - M^dag||.

    The tolerance is HERM_TOL relative to max(1, ||M||_max) of each matrix.
    """
    a = _as_stack(m)
    if a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"not square: {a.shape}")
    _reject_non_finite(a, NotHermitian)
    if not a.size:
        return a
    # |M - M^dag| from the real and imaginary parts of the difference,
    # without a complex copy of the stack
    axes = (-2, -1)
    re, im = a.real, a.imag
    d_re = re - re.swapaxes(*axes)
    defect = np.hypot(d_re, im + im.swapaxes(*axes), out=d_re)
    if defect.max() > HERM_TOL:  # each bound is at least HERM_TOL
        defect = defect.max(axis=axes).reshape(-1)
        bound = HERM_TOL * np.maximum(1.0, np.abs(a).max(axis=axes)).reshape(-1)
        bad = np.flatnonzero(defect > bound)
        if bad.size:
            i = bad[0]
            raise NotHermitian(f"Hermiticity defect {defect[i]:.3e} exceeds {bound[i]:.3e}")
    return a


def eig_hermitian(m) -> EigenDecomposition:
    """Full spectral decomposition of a Hermitian matrix, eigenvalues
    ascending; for a stack, values (..., n) and vectors (..., n, n)."""
    a = check_hermitian(m)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - raised on NaN, rejected above
        raise NoConvergence(str(exc)) from exc
    return EigenDecomposition(values=w, vectors=v)


def partial_transpose(m) -> np.ndarray:
    """Transpose the first factor of C3 x C3: block (i,j) of the output
    equals block (j,i) of the input, blocks being 3x3."""
    a = _as_stack(m)
    if a.shape[-2:] != (9, 9):
        raise DimensionMismatch(f"expected (9, 9), got {a.shape}")
    t = a.reshape(a.shape[:-2] + (3, 3, 3, 3))
    out = np.empty_like(t)
    out[...] = t.swapaxes(-4, -2)
    return out.reshape(a.shape)


def kron_eye3(rows: np.ndarray) -> np.ndarray:
    """kron(rows, I_3) for a p x q complex matrix, or each matrix of a stack
    (..., p, q), as the one broadcast multiply rows[i, j] * I_3[k, l] that
    np.kron itself performs: the same products, bit for bit, without
    np.kron's per-call shape handling."""
    *lead, p, q = rows.shape
    return (rows[..., :, None, :, None] * EYE3[:, None, :]).reshape(*lead, 3 * p, 3 * q)


def partial_trace(m, keep: str) -> np.ndarray:
    """Trace out one factor of C3 x C3; keep is "A" or "B"."""
    a = as_matrix(m)
    if a.shape != (9, 9):
        raise DimensionMismatch(f"expected (9, 9), got {a.shape}")
    t = a.reshape(3, 3, 3, 3)
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abad->bd", t)
    raise ValueError("keep must be 'A' or 'B'")


def matrix_rank(a) -> int:
    """Count of singular values above RANK_TOL; NonFiniteValue on a
    non-finite entry."""
    m = as_matrix(a)
    if m.size == 0:
        return 0
    _reject_non_finite(m, NonFiniteValue)
    return int(np.count_nonzero(np.linalg.svd(m, compute_uv=False) > RANK_TOL))


def takagi(a) -> TakagiFactorization:
    """Takagi factorization A = U diag(s) U^T of a complex symmetric matrix.

    Route: embed into the real symmetric matrix [[Re A, Im A], [Im A, -Re A]].
    Its spectrum is the symmetric set {+-s_j}; an eigenvector (x; y) at
    eigenvalue s > 0 yields a con-eigenvector u = x + iy with A conj(u) = s u,
    and the map (x; y) -> (-y; x) carries the +s eigenspace onto the -s
    eigenspace, which forces complex orthonormality of the u's even inside
    degenerate clusters. Zero singular values get the trailing columns of the
    unitary Q of one QR of [u's | I], which complete the u's; they multiply
    zeros, so U is unique only up to mixing inside degenerate clusters.
    A non-finite entry raises NotSymmetric before the symmetry test.
    """
    m = as_matrix(a)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"not square: {m.shape}")
    _reject_non_finite(m, NotSymmetric)
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    if float(np.abs(m - m.T).max()) > 1e-12 * scale:
        raise NotSymmetric("input is not complex symmetric (A != A^T)")
    w, v = np.linalg.eigh(np.block([[m.real, m.imag], [m.imag, -m.real]]))  # ascending
    s, v = w[n:][::-1], v[:, n:][:, ::-1]  # the nonnegative half, descending
    r = int(np.count_nonzero(s > 1e-12 * max(s[0], 1e-300)))
    u = v[:n, :r] + 1j * v[n:, :r]
    q = np.linalg.qr(np.hstack([u, np.eye(n)]))[0]
    return TakagiFactorization(unitary=np.hstack([u, q[:, r:]]),
                               singular_values=np.concatenate([s[:r], np.zeros(n - r)]))


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norms of a stack (n, k, k), each summed as np.linalg.norm
    sums one matrix: the dot products of its real and imaginary parts."""
    n, k = a.shape[:2]
    re, im = a.real.reshape(n, k * k), a.imag.reshape(n, k * k)
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def inertia_of_spectrum(w: np.ndarray) -> Inertia:
    """Counts of the eigenvalues w of a Hermitian matrix below -tol, within
    +-tol, and above +tol, with tol 1e-10 times the spectral norm max |w|.
    A stack of spectra (..., n) gives the three counts as (...) arrays."""
    w = np.asarray(w)
    tol = 1e-10 * np.maximum(np.abs(w).max(axis=-1, initial=0.0, keepdims=True), 1e-300)
    neg = (w < -tol).sum(axis=-1)
    pos = (w > tol).sum(axis=-1)
    counts = (neg, w.shape[-1] - neg - pos, pos)
    return Inertia(*(map(int, counts) if w.ndim == 1 else counts))


def pencil_roots(a, b) -> np.ndarray:
    """Homogeneous roots (m : n) of det(m a + n b) = 0 for k x k matrices a
    and b, as the rows of a (k, 2) array, each scaled to unit norm; NaN rows
    when the pencil vanishes identically. The root (1 : 0) appears exactly
    when a is singular, (0 : 1) when b is.

    det(m a + n b) is a form of degree k in (m, n), so it vanishes
    identically as soon as it vanishes at k + 1 distinct directions. The
    directions tried are (m0 : n0) = (cos t, sin t), t = pi j / (k + 1) for
    j = 0..k. A direction counts as singular when the smallest singular value
    of c = m0 a + n0 b is at most PENCIL_TOL (|m0| |a| + |n0| |b|), Frobenius
    norms; when all k + 1 are, the roots are NaN. Otherwise c is the
    direction with the largest such relative singular value, d = -n0 a + m0 b
    completes the rotation, and every eigenvalue l of c^-1 d gives the root
    (m : n) = (-m0 l - n0, -n0 l + m0), since d - l c = m a + n b.

    Stacks a, b of shape (..., k, k) give roots of shape (..., k, 2), each
    pair solved as alone.
    """
    a, b = _as_stack(a), _as_stack(b)
    if a.shape != b.shape or a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"need two square matrices of one shape, got {a.shape}, {b.shape}")
    lead, k = a.shape[:-2], a.shape[-1]
    a, b = a.reshape(-1, k, k), b.reshape(-1, k, k)
    t = np.pi * np.arange(k + 1) / (k + 1)
    m0, n0 = np.cos(t)[:, None, None], np.sin(t)[:, None, None]
    pencils = m0 * a[:, None]
    pencils += n0 * b[:, None]
    norm_a, norm_b = _frobenius(a)[:, None], _frobenius(b)[:, None]
    scale = np.abs(m0[:, 0, 0]) * norm_a + np.abs(n0[:, 0, 0]) * norm_b
    smallest = np.linalg.svd(pencils, compute_uv=False)[..., -1]
    solvable = ~(smallest <= PENCIL_TOL * scale).all(axis=-1)
    roots = np.full(a.shape[:-1] + (2,), np.nan, dtype=complex)
    i = np.flatnonzero(solvable)
    if i.size:
        # the floor keeps a zero scale (a or b zero) from dividing by zero
        j = np.argmax(smallest[i] / np.maximum(scale[i], 1e-300), axis=-1)
        mj, nj = m0[j], n0[j]
        lam = np.linalg.eigvals(np.linalg.solve(pencils[i, j], -nj * a[i] + mj * b[i]))
        found = np.stack([-mj[..., 0] * lam - nj[..., 0], -nj[..., 0] * lam + mj[..., 0]], axis=-1)
        roots[i] = found / np.linalg.norm(found, axis=-1, keepdims=True)
    return roots.reshape(lead + (k, 2))


def leading_principal_minors(m) -> np.ndarray:
    """Determinants of the k x k top-left submatrices, k = 1..n, as reals.

    Minors of a Hermitian matrix are real; the imaginary residue is checked
    against 1e-10 * max(1, |minor|) and dropped, raising NonRealMinor beyond.
    """
    a = check_hermitian(m)
    n = a.shape[0]
    out = np.empty(n)
    for k in range(1, n + 1):
        d = complex(np.linalg.det(a[:k, :k]))
        if abs(d.imag) > MINOR_IMAG_TOL * max(1.0, abs(d)):
            raise NonRealMinor(f"minor {k} has imaginary part {d.imag:.3e}")
        out[k - 1] = d.real
    return out
