"""Product vectors in kernels and low-dimensional subspaces.

Four mechanisms, in increasing generality:

  * explicit candidate checks (|22> and |01> against a kernel projector);
  * an exact cubic pencil for 3-dim subspaces of C2 x C3: orthogonality of
    (m|0> + n|1>) x |w> to three spanners is a 3x3 system M(m,n) w = 0
    whose determinant is a homogeneous cubic in (m,n), so a root always
    exists over C and yields a product vector in the orthogonal complement
    (the roots come from linalg.pencil_roots, one numpy eigenproblem);
  * an exact lemma for kernels spanned by the antisymmetric subspace and
    one swap-symmetric vector of Schmidt rank three (every family state
    with 0 < x < 1): such a kernel holds no product vector;
  * multi-start minimization of the rank-one minor objective
    f(v) = sum |2x2 minors of the 3x3 coefficient matrix|^2 over any other
    kernel, with its exact gradient, reporting "not found at budget"
    rather than claiming nonexistence.

A product vector from a candidate or a pencil root is "certified": its
residual is re-checked numerically. A check that finds none is
"not_found_at_budget".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg, states
from .linalg import NotSymmetric
from .states import ZeroVector
from ._fmt import complex_pair

PENCIL_RESIDUAL_TOL = 1e-9
SEARCH_FOUND_TOL = 1e-18
LEMMA_SPLIT_TOL = 1e-10  # deviation of the kernel from the swap split
LEMMA_RANK_TOL = 1e-6  # smallest singular value of the symmetric vector


class DegeneratePencil(RuntimeError):
    """det M(m,n) vanishes identically; every direction works. Carries a
    representative product vector in .result."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class EmptyKernel(ValueError):
    pass


class SchmidtRankTooHigh(ValueError):
    pass


class NotInKernel(ValueError):
    pass


@dataclass
class ProductVectorResult:
    found: bool
    vector: Optional[np.ndarray]
    u: Optional[np.ndarray]
    w: Optional[np.ndarray]
    residual: float
    min_objective: Optional[float] = None
    evidence_level: Optional[str] = None  # None: from found, for a re-checked residual

    def __post_init__(self):
        if self.evidence_level is None:
            self.evidence_level = "certified" if self.found else "not_found_at_budget"

    def to_json(self) -> dict:
        factors = None
        if self.u is not None:
            factors = {
                "u": [complex_pair(z) for z in np.asarray(self.u, dtype=complex)],
                "w": [complex_pair(z) for z in np.asarray(self.w, dtype=complex)],
            }
        return {
            "found": bool(self.found),
            "factors": factors,
            "residual": float(self.residual),
            "min_objective": None if self.min_objective is None else float(self.min_objective),
            "evidence_level": self.evidence_level,
        }


# --- rank-one minor system ---------------------------------------------------

_PAIRS = ((0, 1), (0, 2), (1, 2))


def rank1_minor_system(v: np.ndarray) -> tuple[np.ndarray, float]:
    """Nine 2x2 minors of the 3x3 coefficient matrix of v, and the sum of
    their squared moduli. All nine vanish exactly when v is a product vector.
    No normalization is applied."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    if v.shape != (9,):
        raise linalg.DimensionMismatch(f"expected a 9-component vector, got {v.shape}")
    if np.linalg.norm(v) == 0.0:
        raise ZeroVector("zero vector has no coefficient matrix of interest")
    c = v.reshape(3, 3)
    minors = np.empty((3, 3), dtype=complex)
    for i, (r0, r1) in enumerate(_PAIRS):
        for j, (c0, c1) in enumerate(_PAIRS):
            minors[i, j] = c[r0, c0] * c[r1, c1] - c[r0, c1] * c[r1, c0]
    total = float(np.sum(np.abs(minors) ** 2))
    return minors, total


def _minor_objective_23(v6: np.ndarray) -> float:
    # 2x3 coefficient matrix: three 2x2 minors
    c = v6.reshape(2, 3)
    total = 0.0
    for c0, c1 in _PAIRS:
        total += abs(c[0, c0] * c[1, c1] - c[0, c1] * c[1, c0]) ** 2
    return float(total)


# --- cubic pencil in C2 x C3 -------------------------------------------------


def _pencil_matrix(rows: np.ndarray, m: complex, n: complex) -> np.ndarray:
    return m * rows[:, 0, :].conj() + n * rows[:, 1, :].conj()


def _pencil_result(vs_mat: np.ndarray, rows: np.ndarray, m: complex,
                   n: complex) -> ProductVectorResult:
    norm_mn = np.hypot(abs(m), abs(n))
    u = np.array([m, n], dtype=complex) / norm_mn
    mat = _pencil_matrix(rows, u[0], u[1])
    _, _, vh = np.linalg.svd(mat)
    w = vh[-1].conj()
    vector = np.kron(u, w)
    # violation: component of the candidate inside the spanned subspace
    overlap = vs_mat.conj() @ vector
    residual = float(np.linalg.norm(overlap)) + _minor_objective_23(vector)
    return ProductVectorResult(
        found=residual <= PENCIL_RESIDUAL_TOL, vector=vector, u=u, w=w, residual=residual,
    )


def product_vector_in_2x3_complement(vs: Sequence[np.ndarray]) -> ProductVectorResult:
    """Product vector orthogonal to up to three given vectors in C2 x C3.

    M(m,n) = m a + n b is a 3x3 pencil; its roots (m : n) come from
    linalg.pencil_roots, and the one leaving the smallest singular value of
    M is kept.
    """
    vs = [np.asarray(v, dtype=complex).reshape(-1) for v in vs]
    if len(vs) > 3:
        raise ValueError("at most three spanning vectors supported")
    for v in vs:
        if v.shape != (6,):
            raise linalg.DimensionMismatch(f"expected 6-component vectors, got {v.shape}")
    while len(vs) < 3:
        vs.append(np.zeros(6, dtype=complex))
    vs_mat = np.stack(vs)  # rows span the subspace to avoid
    rows = vs_mat.reshape(3, 2, 3)

    try:
        roots = linalg.pencil_roots(rows[:, 0, :].conj(), rows[:, 1, :].conj())
    except linalg.SingularPencil:
        res = _pencil_result(vs_mat, rows, 1.0, 0.0)
        raise DegeneratePencil("det M(m,n) vanishes identically", res) from None
    sigmas = [np.linalg.svd(_pencil_matrix(rows, m, n), compute_uv=False)[-1] for m, n in roots]
    m, n = roots[int(np.argmin(sigmas))]
    return _pencil_result(vs_mat, rows, m, n)


# --- kernel searches ---------------------------------------------------------


def _factor_rank1(vector: np.ndarray, da: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    c = vector.reshape(da, db)
    uu, ss, vh = np.linalg.svd(c)
    u = uu[:, 0] * np.sqrt(ss[0])
    w = vh[0].conj() * np.sqrt(ss[0])
    nu, nw = np.linalg.norm(u), np.linalg.norm(w)
    return u / nu, w / nw


def _cross(p, q):
    """Cross product of two 3-sequences."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def minor_objective(z: np.ndarray, basis: np.ndarray):
    """f(c) = sum |2x2 minors of reshape(basis @ c)|^2 / |c|^4 and its
    gradient over the real coordinates z = (Re c_0, Im c_0, Re c_1, ...).

    The nine minors are, up to sign, the entries of the cofactor rows
    x_i = r_(i+1) x r_(i+2) of C = reshape(basis @ c), so phi = sum |x_i|^2
    has Wirtinger derivative d phi / d conj(r_0) = conj(r_1) x x_2 -
    conj(r_2) x x_1 (and cyclic); dividing by |c|^4 adds -2 phi c / |c|^6.
    The value is summed from the |x_i|^2 themselves: the Cauchy-Binet form
    ((tr G)^2 - |G|^2) / 2 of the Gram matrix G = C C^dag cancels to about
    -1e-16 at a product vector. Python scalars beat numpy calls on arrays
    of nine entries."""
    c = z.view(np.complex128)
    n2 = float(z @ z)
    if n2 < 1e-16:
        return 1e6, np.zeros_like(z)
    v = (basis @ c).tolist()
    r0, r1, r2 = v[0:3], v[3:6], v[6:9]
    x0, x1, x2 = _cross(r1, r2), _cross(r2, r0), _cross(r0, r1)
    phi = sum(t.real * t.real + t.imag * t.imag for t in x0 + x1 + x2)
    s0, s1, s2 = ([t.conjugate() for t in r] for r in (r0, r1, r2))
    dphi = np.array([p - q for a, xa, b, xb in ((s1, x2, s2, x1), (s2, x0, s0, x2), (s0, x1, s1, x0))
                     for p, q in zip(_cross(a, xa), _cross(b, xb))])
    # the real gradient is twice the Wirtinger derivative d f / d conj(c)
    grad = (dphi @ basis.conj()) * (2.0 / n2 ** 2) - (4.0 * phi / n2 ** 3) * c
    return phi / n2 ** 2, grad.view(np.float64)


def minimize_minor_objective(basis: np.ndarray, n_starts: int = 64, seed: int = 0):
    """Minimize f(c) = sum |2x2 minors of reshape(basis @ c)|^2 over unit-norm
    coefficient vectors c by L-BFGS-B with the exact gradient of
    minor_objective, from n_starts seeded random starts. A start that ends
    below 1e-6 is solved again with ftol = 0 and then polished. Returns
    (best objective, best c)."""
    from scipy.optimize import minimize  # deferred: scipy.optimize is slow to import

    k = basis.shape[1]

    def local(z, ftol):
        # ftol is relative to max(|f|, 1): near a zero of f, only ftol = 0
        # keeps L-BFGS-B going below ~1e-17
        return minimize(minor_objective, z, args=(basis,), jac=True, method="L-BFGS-B",
                        options={"maxiter": 200, "ftol": ftol, "gtol": 1e-14})

    def polish(c):
        # alternate: truncate the lifted vector to rank 1, project back onto
        # the span; collapses a near-zero objective to roundoff level
        for _ in range(8):
            v = basis @ c
            cm = v.reshape(3, 3)
            u, s, vh = np.linalg.svd(cm)
            r1 = s[0] * np.outer(u[:, 0], vh[0])
            c2 = basis.conj().T @ r1.reshape(-1)
            nrm = np.linalg.norm(c2)
            if nrm < 1e-12:
                break
            c = c2 / nrm
        return c

    best_val, best_c = np.inf, None
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xAE], dtype=np.uint64)))
    for _ in range(n_starts):
        z0 = rng.normal(size=2 * k)
        res = local((z0[:k] + 1j * z0[k:]).view(np.float64), 1e-16)
        if res.fun < 1e-6:
            res = local(res.x, 0.0)
        c = res.x.view(np.complex128)
        c = c / np.linalg.norm(c)
        val = float(res.fun)
        if val < 1e-6:
            c2 = polish(c)
            _, val2 = rank1_minor_system(basis @ c2)
            if val2 < val:
                c, val = c2, float(val2)
        if val < best_val:
            best_val, best_c = val, c
        if best_val < SEARCH_FOUND_TOL:
            break
    return best_val, best_c


def antisymmetric_lemma_applies(ker: np.ndarray) -> bool:
    """Whether the span of the orthonormal columns ker is the antisymmetric
    subspace plus one swap-symmetric vector S of Schmidt rank three. Such a
    span holds no product vector: if u w^T = A + t S with A antisymmetric,
    the symmetric part (u w^T + w u^T) / 2 = t S has rank at most two, so
    t = 0, and a nonzero antisymmetric matrix never has rank one. The lemma
    is exact; this checks the shape numerically, to LEMMA_SPLIT_TOL for the
    split and LEMMA_RANK_TOL for the rank of S."""
    if ker.shape != (9, 4):
        return False
    swapped = states.SWAP @ ker
    m = ker.conj().T @ swapped  # SWAP restricted to the span, if it is invariant
    if np.linalg.norm(swapped - ker @ m) > LEMMA_SPLIT_TOL:
        return False
    vals, vecs = np.linalg.eigh(m)
    if np.abs(vals - np.array([-1.0, -1.0, -1.0, 1.0])).max() > LEMMA_SPLIT_TOL:
        return False
    sym = (ker @ vecs[:, 3]).reshape(3, 3)
    return bool(np.linalg.svd(sym, compute_uv=False)[-1] > LEMMA_RANK_TOL)


def kernel_product_vector(state: states.QutritState, mode: str = "exact_cases",
                          seed: int = 0) -> ProductVectorResult:
    """Look for a product vector in ker rho.

    mode="exact_cases": test the two explicit candidates |22> and |01> by
    projection residual against the kernel projector (evidence "certified"
    for a hit, "not_found_at_budget" otherwise).
    mode="search": when antisymmetric_lemma_applies, no product vector
    exists (evidence "certified", no objective). Otherwise a 64-start
    minimization of the minor objective over the kernel; found means
    objective < 1e-18, otherwise not-found-at-budget.
    """
    _, ker = states.range_kernel(state)
    if ker.shape[1] == 0:
        raise EmptyKernel("state has trivial kernel")
    proj = ker @ ker.conj().T

    if mode == "exact_cases":
        best = None
        for a, b in ((2, 2), (0, 1)):
            cand = states.basis_ket(a, b)
            residual = float(np.linalg.norm(cand - proj @ cand))
            if residual <= 1e-12:
                u = np.zeros(3, dtype=complex)
                w = np.zeros(3, dtype=complex)
                u[a] = 1.0
                w[b] = 1.0
                return ProductVectorResult(found=True, vector=cand, u=u, w=w,
                                           residual=residual)
            if best is None or residual < best:
                best = residual
        return ProductVectorResult(found=False, vector=None, u=None, w=None, residual=best)

    if mode != "search":
        raise ValueError(f"unknown mode {mode!r}; expected 'exact_cases' or 'search'")

    if antisymmetric_lemma_applies(ker):
        return ProductVectorResult(
            found=False, vector=None, u=None, w=None, residual=np.inf,
            evidence_level="certified",
        )
    best_val, best_c = minimize_minor_objective(ker, n_starts=64, seed=seed)
    if best_val < SEARCH_FOUND_TOL:
        vector = ker @ best_c
        u, w = _factor_rank1(vector, 3, 3)
        residual = float(np.linalg.norm(vector - proj @ vector)) + best_val
        return ProductVectorResult(
            found=True, vector=vector, u=u, w=w, residual=residual,
            min_objective=best_val, evidence_level="searched",
        )
    return ProductVectorResult(
        found=False, vector=None, u=None, w=None, residual=np.inf,
        min_objective=best_val, evidence_level="not_found_at_budget",
    )


# --- two-dimensional span exclusion ------------------------------------------


@dataclass
class SpanExclusionVerdict:
    contained: bool
    residual_00: float
    residual_01: float
    product_vector: Optional[ProductVectorResult] = None

    def to_json(self) -> dict:
        return {
            "contained": bool(self.contained),
            "residual_00": float(self.residual_00),
            "residual_01": float(self.residual_01),
            "product_vector": None if self.product_vector is None else self.product_vector.to_json(),
        }


def span_0001_exclusion_check(state: states.QutritState) -> SpanExclusionVerdict:
    """Does the range contain span{|00>, |01>}? If yes, produce a kernel
    product vector: range vectors orthogonal to that span only constrain the
    A-levels {1,2} slice, where the cubic pencil always delivers a direction
    (m:n) and a B-side vector w with (0, m, n) x w annihilated by rho."""
    rng_basis, _ = states.range_kernel(state)
    proj = rng_basis @ rng_basis.conj().T
    k00 = states.basis_ket(0, 0)
    k01 = states.basis_ket(0, 1)
    r00 = float(np.linalg.norm(k00 - proj @ k00))
    r01 = float(np.linalg.norm(k01 - proj @ k01))
    if r00 > 1e-10 or r01 > 1e-10:
        return SpanExclusionVerdict(False, r00, r01)

    # orthonormal range directions orthogonal to the contained 2-dim span
    span = np.stack([k00, k01], axis=1)
    reduced = rng_basis - span @ (span.conj().T @ rng_basis)
    q, r = np.linalg.qr(reduced)
    keep = np.abs(np.diag(r)) > 1e-10
    rest = q[:, keep]  # 9 x 3
    restricted = rest.reshape(3, 3, rest.shape[1])[1:, :, :]  # drop A-level 0
    vs = [restricted[:, :, j].reshape(6) for j in range(rest.shape[1])]
    try:
        res = product_vector_in_2x3_complement(vs)
    except DegeneratePencil as exc:
        res = exc.result
    u3 = np.zeros(3, dtype=complex)
    u3[1:] = res.u
    vector = np.kron(u3, res.w)
    annihilation = float(np.linalg.norm(state.rho @ vector))
    lifted = ProductVectorResult(
        found=res.found and annihilation <= 1e-10,
        vector=vector,
        u=u3,
        w=res.w,
        residual=res.residual + annihilation,
    )
    return SpanExclusionVerdict(True, r00, r01, lifted)


# --- symmetric kernel-state canonicalization ---------------------------------


def takagi_canonicalize_kernel_state(a: np.ndarray, state: states.QutritState):
    """Rotate a symmetric Schmidt-rank-<=2 kernel vector to diagonal form.

    Returns (transformed state, canonical vector, schmidt coefficients). The
    same single-qutrit rotation is applied to both sides, so the canonical
    vector has coefficient matrix diag(s0, s1, 0) with s0 >= s1 >= 0.
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    if a.shape != (9,):
        raise linalg.DimensionMismatch(f"expected a 9-component vector, got {a.shape}")
    nrm = np.linalg.norm(a)
    if nrm == 0.0:
        raise ZeroVector("zero vector")
    a = a / nrm
    if np.linalg.norm(states.SWAP @ a - a) > 1e-10:
        raise NotSymmetric("vector is not swap-symmetric")
    if np.linalg.norm(state.rho @ a) > 1e-10:
        raise NotInKernel("vector is not annihilated by the state")
    if states.schmidt_rank(a) > 2:
        raise SchmidtRankTooHigh("coefficient matrix has three nonzero singular values")

    coeff = states.coefficient_matrix(a)
    fac = linalg.takagi(coeff)
    u = fac.unitary.conj().T
    op = states.LocalOperator(u, u)
    rotated = states.from_density(states.apply_local(state, op),
                                  case_id=state.case_id, x=state.x)
    s = fac.singular_values
    canonical = np.zeros(9, dtype=complex)
    for j in range(3):
        canonical += s[j] * states.basis_ket(j, j)
    return rotated, canonical, s


def rank1_exclusion_margin(s0: float, s1: float, s2: float) -> float:
    """Exact lower bound on |the obstructing minor| over all sign branches of
    the would-be product vector for a rank-three symmetric kernel direction
    with Schmidt weights (s0, s1, s2): sqrt(2) sqrt(s0) (s1 s2)^(1/4)."""
    return float(np.sqrt(2.0) * np.sqrt(s0) * (s1 * s2) ** 0.25)


def eq5_family_basis(s) -> np.ndarray:
    """Orthonormal columns spanning the antisymmetric subspace and the
    symmetric vector with Schmidt weights s = (s0, s1, s2)."""
    s = np.asarray(s, dtype=float)
    if s.shape != (3,) or np.any(s < 0):
        raise ValueError("expected three nonnegative weights")
    sym = np.zeros(9, dtype=complex)
    for j in range(3):
        sym += np.sqrt(s[j]) * states.basis_ket(j, j)
    sym /= np.linalg.norm(sym)
    anti = []
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        v = (states.basis_ket(i, j) - states.basis_ket(j, i)) / np.sqrt(2)
        anti.append(v)
    return np.stack(anti + [sym], axis=1)


def eq5_family_min_objective(s, n_starts: int = 8, seed: int = 0) -> float:
    """Searched minimum of the minor objective over eq5_family_basis(s). For
    three positive weights antisymmetric_lemma_applies, so the minimum is
    bounded away from zero."""
    best_val, _ = minimize_minor_objective(eq5_family_basis(s), n_starts=n_starts, seed=seed)
    return best_val
