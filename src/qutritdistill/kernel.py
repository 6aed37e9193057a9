"""Product vectors in kernels and low-dimensional subspaces.

Three mechanisms, in increasing generality:

  * explicit candidate checks (|22> and |01> against a kernel projector);
  * an exact lemma for kernels spanned by the antisymmetric subspace and
    one swap-symmetric vector of Schmidt rank three (every family state
    with 0 < x < 1): such a kernel holds no product vector;
  * an exact decision for any other kernel: u x w lies in ker rho exactly
    when the d x 3 matrix M(u) = [u^T conj(R_i)] of the range reshapes R_i
    drops rank, so u is a common zero in P^2 of its 3x3 minors, cubic forms
    whose coefficients come out exactly; linear algebra on their Macaulay
    matrices rules every u out or yields the zeros (decide_kernel).

The C2 x C3 solver (product_vector_in_2x3_complement) is decide_kernel's
line pencil: u x w with u = (m, n) is orthogonal to vectors v_i exactly
when M(u) = [u^T conj(V_i)] drops rank, and for three rows its determinant
is a cubic in (m : n), whose roots over C always yield a product vector.

A product vector from a candidate, a line root or a zero of the minors is
"certified": its residual is re-checked numerically. A none verdict is
"certified" when it rests on the lemma or on a Macaulay matrix of full column
rank (its margin sigma_min / sigma_max is reported), and "proved" when the
lemma covers a family state with 0 < x < 1, whose kernel a sympy test derives
for symbolic x. A check that finds none otherwise is "not_found_at_budget".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg, states
from .linalg import NotSymmetric
from .states import ZeroVector

PENCIL_RESIDUAL_TOL = 1e-9
RANK_TOL = 1e-10  # singular values below RANK_TOL max(sigma_max, 1) count as zero
LEMMA_SPLIT_TOL = 1e-10  # deviation of the kernel from the swap split
LEMMA_RANK_TOL = 1e-6  # smallest singular value of the symmetric vector


class EmptyKernel(ValueError):
    pass


class SchmidtRankTooHigh(ValueError):
    pass


class NotInKernel(ValueError):
    pass


@dataclass
class ProductVectorResult:
    found: bool
    u: Optional[np.ndarray]
    w: Optional[np.ndarray]
    residual: float
    margin: Optional[float] = None  # sigma_min / sigma_max behind a none verdict
    evidence_level: Optional[str] = None  # None: from found, for a re-checked residual

    def __post_init__(self):
        if self.evidence_level is None:
            self.evidence_level = "certified" if self.found else "not_found_at_budget"

    @property
    def vector(self) -> Optional[np.ndarray]:
        """The product vector u x w, or None without factors."""
        return None if self.u is None else np.kron(self.u, self.w)


# --- exact decision in the u-plane -------------------------------------------


def _monomial_tables():
    """The Levi-Civita symbol; the (27, 10) map taking u_a u_e u_f, flattened
    over (a, e, f), to its cubic monomial; and the (3, 10, 15) shifts with
    shift[a] @ v4(u) = u_a v3(u), for v3 and v4 the Veronese vectors over
    the cubic and quartic monomials (exponent triples in itertools order)."""
    cubics, quartics = ([e for e in itertools.product(range(deg + 1), repeat=3) if sum(e) == deg]
                        for deg in (3, 4))
    eps, cube, shift = np.zeros((3, 3, 3)), np.zeros((27, 10)), np.zeros((3, 10, 15))
    for p in itertools.permutations(range(3)):
        eps[p] = 1.0 if p in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1.0
    for n, idx in enumerate(itertools.product(range(3), repeat=3)):
        cube[n, cubics.index(tuple(np.bincount(idx, minlength=3)))] = 1.0
    for a, (m, e) in itertools.product(range(3), enumerate(cubics)):
        shift[a, m, quartics.index(tuple(k + (j == a) for j, k in enumerate(e)))] = 1.0
    return eps, cube, shift


_EPS, _CUBE, _SHIFT = _monomial_tables()
# two fixed generic linear forms for the shift eigenproblem
_FORM_G = np.array([1.0, 0.5 + 0.7j, -0.3 + 0.4j])
_FORM_H = np.array([0.2 - 0.6j, 1.0, 0.8 + 0.1j])


def _null_space(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthonormal null-space columns of mat and the margin sigma_n / sigma_max
    over its n columns (0 with fewer rows than columns). Singular values
    count as zero below RANK_TOL max(sigma_max, 1): the minors of M(u) at a
    unit u are at most 1 in modulus, since sigma_max(M(u)) <= 1 for an
    orthonormal range basis, so a matrix of roundoff-sized coefficients
    (minors vanishing identically) has rank 0, not full rank."""
    _, s, vh = np.linalg.svd(mat)
    s = np.concatenate([s, np.zeros(mat.shape[1] - s.size)])
    rank = int(np.count_nonzero(s > RANK_TOL * max(s[0], 1.0)))
    return vh[rank:].conj().T, float(s[-1] / s[0]) if s[0] > 0 else 0.0


def _line_points(rbar: np.ndarray) -> np.ndarray:
    """Roots (m : n) of the line where M(m, n) = m a + n b, a and b the first
    two rows of every rbar[i], drops rank: the roots of the first row triple
    whose 3x3 pencil does not vanish identically (a common zero is a root of
    every triple), from one stacked pencil_roots over all triples, or (1 : 0)
    when every triple's determinant vanishes on the line."""
    t = np.array(list(itertools.combinations(range(len(rbar)), 3)), dtype=int).reshape(-1, 3)
    roots = linalg.pencil_roots(rbar[t, 0, :], rbar[t, 1, :])
    solved = np.flatnonzero(~np.isnan(roots[:, 0, 0]))
    return roots[solved[0]] if solved.size else np.eye(2)[:1]


def _shift_points(null4: np.ndarray) -> np.ndarray:
    """The r points whose quartic Veronese vectors span null4 (15 x r): with
    N = V4 T, (G N)^+ (H N) = T^-1 diag(h(u) / g(u)) T for the shift maps of
    the forms g and h, so each eigenvector x gives N x ~ v4(u), and the
    3 x 10 matrix [_SHIFT[a] N x] = u v3(u)^T has u as its left singular
    vector."""
    gn, hn = (np.einsum("a,amq,qr->mr", f, _SHIFT, null4) for f in (_FORM_G, _FORM_H))
    _, vecs = np.linalg.eig(np.linalg.lstsq(gn, hn, rcond=None)[0])
    return np.linalg.svd(np.einsum("amq,qr->ram", _SHIFT, null4 @ vecs))[0][:, :, 0]


def _lift(rbar: np.ndarray, ker: np.ndarray, u: np.ndarray) -> ProductVectorResult:
    """u x w for w the null vector of M(u) = [u^T rbar_i] (u in C2 or C3,
    rbar of shape (d, u.size, 3)), found when sigma_min(M(u)) /
    max(sigma_max, 1) and the distance of u x w from the kernel are both at
    most PENCIL_RESIDUAL_TOL (M(u) = 0 when u x C3 lies in the kernel).

    (u, w) is first polished by three Gauss-Newton steps on the bilinear
    M(u) w = N(w) u = 0, Jacobian [N(w), M(u)], with singular values below
    1e-6 of the largest dropped: they span the directions along the
    solution set (scaling, and w within a plane when u x w lies in the
    kernel for a plane of w). At such a multiple zero the shift
    eigenproblem gives u only to about the square or cube root of roundoff;
    the steps bring u x w back to roundoff."""
    w = np.linalg.svd(np.einsum("a,iab->ib", u, rbar))[2][-1].conj()
    for _ in range(3):
        m, n = np.einsum("a,iab->ib", u, rbar), np.einsum("iab,b->ia", rbar, w)
        step = np.linalg.lstsq(np.hstack([n, m]), -(m @ w), rcond=1e-6)[0]
        u, w = u + step[:u.size], w + step[u.size:]
        u, w = u / np.linalg.norm(u), w / np.linalg.norm(w)
    _, s, vh = np.linalg.svd(np.einsum("a,iab->ib", u, rbar))
    s = np.concatenate([s, np.zeros(3 - s.size)])  # d < 3 rows: sigma_min is 0
    w = vh[-1].conj()
    vector = np.kron(u, w)
    residual = float(np.linalg.norm(vector - ker @ (ker.conj().T @ vector)))
    found = s[2] <= PENCIL_RESIDUAL_TOL * max(s[0], 1.0) and residual <= PENCIL_RESIDUAL_TOL
    return ProductVectorResult(found=bool(found), u=u, w=w, residual=residual)


def decide_kernel(rng: np.ndarray, ker: np.ndarray) -> ProductVectorResult:
    """Decide whether ker rho, with range columns rng, holds a product vector.

    With d = rank rho <= 2, M(e0) has a null vector. Otherwise the C(d,3)
    minors of M(u) are cubic forms; when their coefficient matrix over the
    ten cubic monomials, or the degree-4 Macaulay matrix of the minors times
    u_0, u_1, u_2 over the fifteen quartic ones, has full column rank, no
    u != 0 exists, since its Veronese vector would be a null vector: a
    certified none with that matrix's margin. When the degree-4 nullity
    exceeds the degree-3 one, the zeros form a curve, which meets the line
    u = (m, n, 0); otherwise they are finitely many points, read from the
    degree-4 null space. The found candidate with the least residual is
    returned, or else the closest miss."""
    d = rng.shape[1]
    rbar = rng.T.conj().reshape(d, 3, 3)
    if d <= 2:
        return _lift(rbar, ker, np.eye(3)[0])
    i, j, k = np.array(list(itertools.combinations(range(d), 3))).T
    minors = np.einsum("bcd,nab,nec,nfd->naef", _EPS, rbar[i], rbar[j], rbar[k])
    cubics = minors.reshape(-1, 27) @ _CUBE
    null3, margin = _null_space(cubics)
    if null3.shape[1]:
        null4, margin = _null_space(np.einsum("pm,amq->apq", cubics, _SHIFT).reshape(-1, 15))
    if not null3.shape[1] or not null4.shape[1]:
        return ProductVectorResult(found=False, u=None, w=None, residual=np.inf,
                                   margin=margin, evidence_level="certified")
    if null4.shape[1] > null3.shape[1]:
        points = [np.array([m, n, 0.0]) for m, n in _line_points(rbar)]
    else:
        points = _shift_points(null4)
    return min((_lift(rbar, ker, u) for u in points), key=lambda r: (not r.found, r.residual))


def product_vector_in_2x3_complement(vs: Sequence[np.ndarray]) -> ProductVectorResult:
    """Product vector u x w in C2 x C3 orthogonal to every given vector v_i.

    One SVD of the stacked conj(v_i) gives orthonormal rows rbar (rank
    counted with RANK_TOL), reshaped 2 x 3, and the complement ker. u x w is
    orthogonal to every v_i exactly when M(u) = [u^T rbar_i] drops rank,
    at a root (m : n) of _line_points; with at most three independent v_i
    one always exists. The root with the least sigma_min(M(u)) is lifted.
    """
    vs = [np.asarray(v, dtype=complex).reshape(-1) for v in vs]
    for v in vs:
        if v.shape != (6,):
            raise linalg.DimensionMismatch(f"expected 6-component vectors, got {v.shape}")
    _, s, vh = np.linalg.svd(np.reshape(vs, (-1, 6)).conj())
    rank = int(np.count_nonzero(s > RANK_TOL * max(s.max(initial=0.0), 1.0)))
    rbar, ker = vh[:rank].reshape(rank, 2, 3), vh[rank:].conj().T
    roots = _line_points(rbar)
    # sigma_min of each M(u); with fewer than three rows the one root is e0
    sigmas = np.linalg.svd(np.einsum("ra,iab->rib", roots, rbar), compute_uv=False)
    return _lift(rbar, ker, roots[np.argmin(sigmas[:, 2:].sum(axis=1))])


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


def range_and_kernel(state: states.QutritState) -> tuple[np.ndarray, np.ndarray]:
    """states.range_kernel, raising EmptyKernel when the kernel is trivial."""
    rng, ker = states.range_kernel(state)
    if ker.shape[1] == 0:
        raise EmptyKernel("state has a trivial kernel; nothing to search")
    return rng, ker


def candidate_product_vector(state: states.QutritState, split=None) -> ProductVectorResult:
    """Test the two explicit candidates |22> and |01> by projection residual
    against the kernel projector: evidence "certified" for the first hit,
    "not_found_at_budget" with the least residual otherwise. split is
    range_and_kernel(state) when the caller holds it already."""
    _, ker = range_and_kernel(state) if split is None else split
    proj, residuals = ker @ ker.conj().T, []
    for a, b in ((2, 2), (0, 1)):
        cand = states.basis_ket(a, b)
        residuals.append(float(np.linalg.norm(cand - proj @ cand)))
        if residuals[-1] <= 1e-12:
            unit = np.eye(3, dtype=complex)
            return ProductVectorResult(True, unit[a], unit[b], residuals[-1])
    return ProductVectorResult(False, None, None, min(residuals))


def kernel_product_vector(state: states.QutritState, split=None) -> ProductVectorResult:
    """Decide whether ker rho holds a product vector; split is
    range_and_kernel(state) when the caller holds it already.

    When antisymmetric_lemma_applies, none exists: evidence "proved" for a
    family state with 0 < x < 1, whose kernel is derived symbolically,
    "certified" for any other state. Otherwise the exact decision of
    decide_kernel: a certified product vector, a certified none with its
    margin, or "not_found_at_budget" when no zero of the minors passes the
    residual check. Nothing is random.
    """
    rng, ker = range_and_kernel(state) if split is None else split
    if antisymmetric_lemma_applies(ker):
        family = (state.case_id in states.CASE_INDEX and state.x is not None and 0 < state.x < 1
                  and np.array_equal(state.rho, states.build_family(state.case_id, state.x).rho))
        return ProductVectorResult(
            found=False, u=None, w=None, residual=np.inf,
            evidence_level="proved" if family else "certified",
        )
    return decide_kernel(rng, ker)


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
    rotated = states.from_density(states.apply_local(state, op))
    s = fac.singular_values
    return rotated, np.diag(s).astype(complex).reshape(9), s


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
    sym = np.diag(np.sqrt(s)).astype(complex).reshape(9)
    sym /= np.linalg.norm(sym)
    anti = [(states.basis_ket(i, j) - states.basis_ket(j, i)) / np.sqrt(2)
            for i, j in ((0, 1), (0, 2), (1, 2))]
    return np.stack(anti + [sym], axis=1)
