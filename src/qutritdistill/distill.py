"""NPT detection and the 1-distillability witness.

A state is 1-distillable exactly when some rank-two projection P on the
first subsystem makes (P x I) rho^Gamma (P^dag x I) non-PSD; equivalently a
Schmidt-rank-two vector has negative expectation on the partial transpose
(DiVincenzo et al., PRA 61, 062312, 2000). witness_search builds that
projection without a search: from one eigendecomposition of the partial
transpose it takes a vector of least Schmidt rank in the negative
eigenspace (_negative_schmidt_vector), whose two leading left Schmidt
vectors are the orthonormal rows of the projection, and one eigensolve of
the compression decides. The witness is those 2x3 rows, a plain array,
certified when their compression has an eigenvalue below -NEG_TOL;
otherwise the report keeps the value reached, which proves nothing about
other projections. A report holds the ascending spectrum of the partial
transpose and derives the rest of its NPT verdict from it: the report is
NPT exactly when the spectrum's inertia counts a negative eigenvalue.

witness_stack runs that construction on a stack of states, the whole
x-grid of a scan, with one batched call per step: partial transpose,
Hermitian check and eigh, the pencil roots of the members with two or more
negative eigenvalues (a member whose pencil vanishes identically keeps its
bottom eigenvector), the 3x3 SVD, the compression and eigvalsh. numpy's
batched LAPACK calls and elementwise products treat each matrix of a stack
as the single call does, so row k is bit for bit what witness_search
reports for the k-th state; witness_search is the stack of one.

projected_matrix is the 6x6 compression (R x I) g (R x I)^dag of explicit
rows R, one matrix or a stack; R x I is linalg.kron_eye3(R), bit for bit
np.kron. The row families that minors scans at x = 1/7, and their chunked
assembly, live in minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernel, linalg, states

NEG_TOL = 1e-10
REAL_ROOT_TOL = 1e-8  # largest |imaginary part| of a pencil root taken as real


class NoSignChange(ValueError):
    pass


@dataclass
class DistillReport:
    spectrum: np.ndarray  # eigenvalues of the partial transpose, ascending
    witness: Optional[np.ndarray] = None  # the 2x3 orthonormal rows, when certified
    best_value: Optional[float] = None

    @property
    def evidence_level(self) -> str:
        return "not_found_at_budget" if self.witness is None else "certified"

    @property
    def inertia(self) -> linalg.Inertia:
        return linalg.inertia_of_spectrum(self.spectrum)

    @property
    def is_npt(self) -> bool:
        return self.inertia.negative > 0

    @property
    def min_eig_gamma(self) -> float:
        return float(self.spectrum[0])


@dataclass(frozen=True)
class ThresholdResult:
    x_star: float
    bracket: tuple
    iterations: int = 0


def npt_check(state: states.QutritState) -> DistillReport:
    """NPT verdict with the partial-transpose inertia; no witness search."""
    return DistillReport(spectrum=linalg.eig_hermitian(linalg.partial_transpose(state.rho)).values)


def projected_matrix(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The 6x6 compression (R x I) g (R x I)^dag of a 9x9 matrix by 2x3 rows R,
    or of each matrix of a stack by its rows. R x I is linalg.kron_eye3(R):
    the products np.kron forms, bit for bit."""
    r = linalg.kron_eye3(rows)
    rg = r @ g
    return rg @ np.conjugate(r, out=r).swapaxes(-2, -1)


def projected_min_eig(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The least eigenvalue of projected_matrix(g, rows), one per matrix of
    a stack."""
    return np.linalg.eigvalsh(projected_matrix(g, rows))[..., 0]


def _lift(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(R^dag x I) u: a 6-vector of the compressed space back in C^3 x C^3."""
    return linalg.kron_eye3(rows.conj().T) @ u


def witness_to_pt_vector(g: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Schmidt-rank-<=2 vector with negative partial-transpose expectation,
    reconstructed from the 2x3 witness rows R: psi = (R^dag x I) u with u the
    bottom eigenvector of the projected matrix. Returns (psi, expectation)."""
    w, v = np.linalg.eigh(projected_matrix(g, rows))
    psi = _lift(rows, v[:, 0])
    val = float(np.real(psi.conj() @ g @ psi))
    return psi, val


@dataclass(frozen=True)
class WitnessStack:
    """witness_search at each of n states: row k is what witness_search
    reports for the k-th density matrix of the stack."""

    spectra: np.ndarray  # (n, 9) partial-transpose eigenvalues, ascending
    rows: np.ndarray     # (n, 2, 3) orthonormal projection rows
    values: np.ndarray   # (n,) least eigenvalue of each compression

    @property
    def negative(self) -> np.ndarray:
        return linalg.inertia_of_spectrum(self.spectra).negative

    @property
    def found(self) -> np.ndarray:
        return self.values < -NEG_TOL

    def report(self, k: int) -> DistillReport:
        return DistillReport(spectrum=self.spectra[k], best_value=float(self.values[k]),
                             witness=self.rows[k] if self.found[k] else None)


def witness_stack(rho: np.ndarray) -> WitnessStack:
    """witness_search at every density matrix of an (n, 9, 9) stack, with one
    batched call per step: partial transpose, Hermitian check and eigh,
    _negative_schmidt_vector, the 3x3 SVD, the compression and eigvalsh."""
    g = linalg.partial_transpose(rho)
    del rho  # a scan hands over its only reference: free the states early
    dec = linalg.eig_hermitian(g)
    u = np.linalg.svd(_negative_schmidt_vector(dec).reshape(-1, 3, 3))[0]
    spectra, rows = dec.values, u[..., :2].conj().swapaxes(-2, -1)
    del dec  # free the eigenvectors before the compression's temporaries
    return WitnessStack(spectra=spectra, rows=rows, values=projected_min_eig(g, rows))


def witness_search(state: states.QutritState) -> DistillReport:
    """The rank-two projection whose orthonormal rows R = U[:, :2]^dag are
    the two leading left Schmidt vectors of psi = _negative_schmidt_vector,
    and its verdict from one eigensolve of the compression: witness_stack
    on a stack of one.

    With k >= 2 negative eigenvalues w of the partial transpose g, psi has
    Schmidt rank <= 2, the compressed space holds it, and the compression's
    smallest eigenvalue is at most <psi|g|psi> <= w[1] <= w[k-1] < 0: the
    report carries a certified witness. Otherwise psi is the bottom
    eigenvector; if its Schmidt rank is 3 the rows keep its rank-2
    truncation, whose compression may or may not be negative. The witness
    is certified when the compression by these rows has an eigenvalue below
    -NEG_TOL; best_value is that eigenvalue either way.
    """
    return witness_stack(state.rho[None]).report(0)


# --- preconditions -----------------------------------------------------------


def _negative_schmidt_vector(dec: linalg.EigenDecomposition) -> np.ndarray:
    """A unit vector of least Schmidt rank in the span of the two most
    negative eigenvectors a, b of a 9x9 Hermitian matrix, from its
    eigendecomposition dec; a itself when fewer than two eigenvalues are
    negative (by linalg.inertia_of_spectrum). For the decomposition of a
    stack (values (..., 9)) it returns one vector per matrix, (..., 9).

    With k >= 2 negative eigenvalues such a vector has Schmidt rank <= 2,
    which makes the state 1-distillable: for A and B the 3x3 coefficient
    matrices of a and b, det(mA + nB) is a homogeneous cubic, so it has a
    root (m : n) and mA + nB has rank <= 2. The vector is m a + n b at the
    root from linalg.pencil_roots of lowest Schmidt rank (singular values
    above states.SCHMIDT_TOL; unit roots of orthonormal a, b give unit
    vectors), ties broken by the smallest third singular value, then by
    root order, from one batched SVD of the 3x3 reshapes
    (_least_schmidt_rank). When the cubic vanishes identically, every
    vector of the span qualifies and a stands for them. The least rank is
    exact for k = 2 (a rank-one mA + nB sits at a root); for k >= 3 it is
    an upper bound from the span of two eigenvectors.
    """
    values, vectors = dec.values.reshape(-1, 9), dec.vectors.reshape(-1, 9, 9)
    psi = vectors[:, :, 0].copy()
    two = np.flatnonzero(linalg.inertia_of_spectrum(values).negative >= 2)
    if two.size:
        a, b = vectors[two, :, 0], vectors[two, :, 1]
        roots = linalg.pencil_roots(a.reshape(-1, 3, 3), b.reshape(-1, 3, 3))
        solved = ~np.isnan(roots[:, 0, 0])  # a vanishing pencil keeps a
        if solved.any():
            psi[two[solved]] = _least_schmidt_rank(roots[solved], a[solved], b[solved])
    return psi.reshape(dec.values.shape)


def _least_schmidt_rank(roots: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each pair of 9-vectors a, b (rows of (t, 9) arrays) and the roots
    (m : n) of their pencil, (t, 3, 2), the vector m a + n b of lowest
    Schmidt rank, ties broken by the smallest third singular value, then
    by root order."""
    vs = roots[..., :1] * a[:, None] + roots[..., 1:] * b[:, None]  # (t, 3 roots, 9)
    s = np.linalg.svd(vs.reshape(-1, 3, 3, 3), compute_uv=False)
    rank = np.count_nonzero(s > states.SCHMIDT_TOL, axis=-1)
    third = np.where(rank == rank.min(axis=-1, keepdims=True), s[..., 2], np.inf)
    return vs[np.arange(len(vs)), np.argmin(third, axis=-1)]


def precondition_report(state: states.QutritState) -> dict:
    """Necessary conditions for an NPT state to resist 1-distillation.

    Every failed item certifies 1-distillability; all items passing is
    consistent with (not proof of) resistance. The tolerances are fixed: the
    ranks of rho and its marginals count singular values above 1e-10, the
    inertia counts the signs linalg.spectrum_signs gives the eigenvalues of
    the partial transpose (zero within 1e-10 of its norm), and the Schmidt rank
    counts singular values of the unit vector above 1e-9.

    The negative-subspace item takes the Schmidt rank of
    _negative_schmidt_vector, from the same eigendecomposition as the
    inertia: it passes vacuously with no negative eigenvalue, passes with one
    whose eigenvector has Schmidt rank 3, and fails whenever the partial
    transpose has two or more. Its evidence is "certified", since the rank
    is a floating-point one. The kernel product-vector item carries
    kernel_product_vector's evidence and margin: "proved" where the
    antisymmetric-subspace lemma covers a family state with 0 < x < 1,
    otherwise the exact decision's "certified", or "not_found_at_budget"
    when no zero of the minors passed its residual check.
    """
    rho = state.rho
    rank = linalg.matrix_rank(rho)
    rank_a = linalg.matrix_rank(linalg.partial_trace(rho, "A"))
    rank_b = linalg.matrix_rank(linalg.partial_trace(rho, "B"))
    dec = linalg.eig_hermitian(linalg.partial_transpose(rho))
    inert = linalg.inertia_of_spectrum(dec.values)
    srank = states.schmidt_rank(_negative_schmidt_vector(dec)) if inert.negative else None

    try:
        pv = kernel.kernel_product_vector(state)
        kernel_item = {
            "pass": not pv.found,
            "evidence_level": pv.evidence_level,
            "margin": pv.margin,
        }
    except kernel.EmptyKernel:
        kernel_item = {"pass": True, "evidence_level": "proved", "margin": None}

    return {
        "local_dims_exceed_two": True,  # 3x3 throughout this package
        "rank_exceeds_four": rank > 4,
        "rank_exceeds_marginals": rank > max(rank_a, rank_b),
        "negative_subspace_min_schmidt_rank": {
            "pass": inert.negative == 0 or (inert.negative == 1 and srank == 3),
            "evidence_level": "certified",
            "min_schmidt_rank": srank,
        },
        "kernel_no_product_vector": kernel_item,
        "pt_inertia_one_negative": tuple(inert) == (1, 0, 8),
    }


# --- threshold ---------------------------------------------------------------

# target -> its index in the ascending partial-transpose spectrum; the CLI's
# --target choices and scan's eigenvalue columns come from this table too
THRESHOLD_TARGETS = {
    "min_eig": 0,
    "second_eig": 1,
}


def find_threshold(case_id: str, target: str, bracket: tuple) -> ThresholdResult:
    """The x in the bracket where the chosen partial-transpose eigenvalue
    crosses zero. The family is linear in x, so its partial transpose G(x)
    is too, and an eigenvalue of G vanishes exactly at the real roots of
    the pencil det(G(0) + x (G(1) - G(0))) (linalg.pencil_roots). x_star is
    the smallest such root in (lo, hi) at which the target eigenvalue itself
    is zero by linalg.spectrum_signs.

    target: "min_eig" (smallest) or "second_eig" (second smallest). The
    bracket needs lo < hi (ValueError otherwise) and a strict sign change
    across it; same-sign brackets, and ends where it is zero by
    linalg.spectrum_signs (within 1e-10 of the spectral norm), raise NoSignChange
    instead of returning an arbitrary point. Stacks at (lo, hi, 0, 1) and at
    the real roots in (lo, hi) give every spectrum; the result keeps the
    bracket as given, and iterations is 2 plus the 1-based index of the root
    returned.
    """
    if target not in THRESHOLD_TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {sorted(THRESHOLD_TARGETS)}")
    idx = THRESHOLD_TARGETS[target]
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError(f"bracket needs lo < hi, got [{lo}, {hi}]")
    g = linalg.partial_transpose(states.family_stack(case_id, [lo, hi, 0.0, 1.0]))
    ends = np.linalg.eigvalsh(g[:2])
    flo, fhi = ends[:, idx].tolist()
    slo, shi = linalg.spectrum_signs(ends)[:, idx].tolist()
    if slo * shi != -1:
        raise NoSignChange(
            f"{target} does not strictly change sign on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
        )
    roots = [n / m for m, n in linalg.pencil_roots(g[2], g[3] - g[2]) if abs(m) > 0]
    real = sorted(t.real for t in roots if abs(t.imag) <= REAL_ROOT_TOL and lo < t.real < hi)
    g = linalg.partial_transpose(states.family_stack(case_id, real))
    zeros = np.flatnonzero(linalg.spectrum_signs(np.linalg.eigvalsh(g))[:, idx] == 0).tolist()
    if zeros:
        return ThresholdResult(x_star=float(real[zeros[0]]), bracket=(lo, hi),
                               iterations=3 + zeros[0])
    raise linalg.NoConvergence(f"no pencil root in ({lo}, {hi}) zeroes {target}")
